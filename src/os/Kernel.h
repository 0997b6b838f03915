//===- os/Kernel.h - Processes, fork, storage device ------------*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal process model over AddressSpace: fork() with Copy-on-Write
/// sharing, per-process priority and sleep state (the capture child is
/// minimized and slept), and a storage device the child spools captured
/// pages to.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_OS_KERNEL_H
#define ROPT_OS_KERNEL_H

#include "os/AddressSpace.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ropt {
namespace os {

using Pid = uint32_t;

/// Scheduling priority; only the extremes matter for our purposes.
enum class Priority { Normal, Lowest };

/// A simulated process: an address space plus scheduler bookkeeping.
class Process {
public:
  Process(Pid Id, Pid Parent) : Id(Id), Parent(Parent) {}

  Pid pid() const { return Id; }
  Pid parentPid() const { return Parent; }

  AddressSpace &space() { return Space; }
  const AddressSpace &space() const { return Space; }

  Priority priority() const { return Prio; }
  void setPriority(Priority P) { Prio = P; }

  bool isAsleep() const { return Asleep; }
  void sleep() { Asleep = true; }
  void wake() { Asleep = false; }

private:
  friend class Kernel;
  Pid Id;
  Pid Parent;
  AddressSpace Space;
  Priority Prio = Priority::Normal;
  bool Asleep = false;
};

/// The storage device captured pages are spooled to. Tracks total bytes
/// written so the storage-overhead experiment (Figure 11) can account them.
class StorageDevice {
public:
  /// Writes (replacing) a named blob.
  void writeFile(const std::string &Path, std::vector<uint8_t> Bytes);

  /// Writes (replacing) a named blob whose content is the pages of
  /// \p Pages, PageSize bytes each. The device keeps the source instead of
  /// copying its bytes; a source's pages never change (an address space
  /// that maps one copies a page before writing it), so neither does the
  /// stored content. Accounted as pageCount() * PageSize bytes.
  void writePages(const std::string &Path,
                  std::shared_ptr<const PageSource> Pages);

  /// Returns the blob, or nullptr if absent. A page-backed blob is copied
  /// out of its source on its first read.
  const std::vector<uint8_t> *readFile(const std::string &Path) const;

  bool exists(const std::string &Path) const {
    return Files.count(Path) != 0;
  }

  uint64_t totalBytesStored() const;
  uint64_t lifetimeBytesWritten() const { return LifetimeBytesWritten; }

private:
  struct Blob {
    std::vector<uint8_t> Bytes;
    std::shared_ptr<const PageSource> Pages; ///< Unread page-backed content.
    uint64_t size() const {
      return Pages ? Pages->pageCount() * PageSize : Bytes.size();
    }
  };
  /// Mutable so readFile() can turn pages into bytes on a first read.
  mutable std::map<std::string, Blob> Files;
  uint64_t LifetimeBytesWritten = 0;
};

/// Process table + fork. Processes are owned by the kernel and addressed by
/// pid; pointers remain valid until the process is reaped.
class Kernel {
public:
  Kernel() = default;

  /// Creates a fresh process with an empty address space.
  Process &spawn();

  /// Forks \p Parent: the child receives a forkClone() of the parent's
  /// address space (shared physical pages, CoW on write). Returns the child.
  Process &fork(Process &Parent);

  /// Destroys the process. Shared pages survive through shared_ptr refs.
  void reap(Pid Id);

  Process *find(Pid Id);

  StorageDevice &storage() { return Disk; }
  const StorageDevice &storage() const { return Disk; }

  uint64_t forkCount() const { return Forks; }

private:
  std::map<Pid, std::unique_ptr<Process>> Table;
  StorageDevice Disk;
  Pid NextPid = 1;
  uint64_t Forks = 0;
};

} // namespace os
} // namespace ropt

#endif // ROPT_OS_KERNEL_H
