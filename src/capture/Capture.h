//===- capture/Capture.h - Captured hot-region state ------------*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The snapshot a capture produces (Section 3.2): the hot-region entry
/// ("architectural state" — root method and arguments), the pre-execution
/// contents of every page the region touched, the memory layout needed to
/// rebuild the address space, plus what is *not* stored inline: runtime
/// image pages identical across a boot (captured once per boot) and
/// file-backed pages (only their paths are logged). Storage overheads of
/// Figure 11 fall straight out of these fields.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_CAPTURE_CAPTURE_H
#define ROPT_CAPTURE_CAPTURE_H

#include "dex/DexFile.h"
#include "os/CostModel.h"
#include "os/Memory.h"
#include "vm/Value.h"

#include <string>
#include <vector>

namespace ropt {
namespace capture {

/// Raw kernel event counts observed during one capture.
struct CaptureEvents {
  uint64_t MappedPagesAtFork = 0;
  uint64_t MappingsParsed = 0;
  uint64_t ProtectCalls = 0;
  uint64_t PagesProtected = 0;
  uint64_t ReadFaults = 0;
  uint64_t WriteFaults = 0;
  uint64_t CowCopies = 0;
};

/// Figure 10's overhead breakdown, in milliseconds.
struct CaptureOverheads {
  double ForkMs = 0.0;
  double PreparationMs = 0.0;
  double FaultCowMs = 0.0;

  double totalMs() const { return ForkMs + PreparationMs + FaultCowMs; }

  static CaptureOverheads fromEvents(const CaptureEvents &E,
                                     const os::KernelCostModel &Model);
};

/// One captured page (pre-region-execution content).
struct PageRecord {
  uint64_t Addr = 0;
  /// The page's bytes, built once when the capture is collected or read
  /// back and never changed after: replay sessions map this very page
  /// (DESIGN.md §16), so an edit replaces it with a new one. Copies of
  /// the capture share it.
  std::shared_ptr<const os::PhysicalPage> Page;
};

/// A file-backed mapping reference: never captured, only logged.
struct FileMapRecord {
  uint64_t Addr = 0;
  uint64_t Size = 0;
  std::string Path;
  uint64_t Offset = 0;
};

/// The full snapshot.
struct Capture {
  dex::MethodId Root = dex::InvalidId;
  std::vector<vm::Value> Args; ///< Architectural state at region entry.
  uint64_t BootId = 0;

  std::vector<os::Mapping> Mappings;   ///< Full layout for the loader.
  std::vector<PageRecord> Pages;       ///< Process-specific pages.
  std::vector<FileMapRecord> FileMaps; ///< Mapped files (paths only).
  /// Runtime-image mapping size: stored once per boot, shared by every
  /// capture of that boot (the "Common" bar of Figure 11).
  uint64_t CommonBytes = 0;

  CaptureEvents Events;
  CaptureOverheads Overheads;

  /// Process-specific storage cost (the "Pages" bar of Figure 11).
  uint64_t processSpecificBytes() const {
    return Pages.size() * os::PageSize;
  }

  /// Serialization (what the low-priority child spools to disk).
  std::vector<uint8_t> serialize() const;
  static bool deserialize(const std::vector<uint8_t> &Bytes, Capture &Out);
};

} // namespace capture
} // namespace ropt

#endif // ROPT_CAPTURE_CAPTURE_H
