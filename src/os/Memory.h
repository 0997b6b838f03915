//===- os/Memory.h - Pages, protections, mappings ---------------*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Basic memory-model types for the simulated kernel: 4 KiB pages,
/// protection flags, and named mappings (the analogue of /proc/self/maps
/// entries, which the paper's capture mechanism parses).
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_OS_MEMORY_H
#define ROPT_OS_MEMORY_H

#include <array>
#include <cstdint>
#include <memory>
#include <string>

namespace ropt {
namespace os {

/// Page size of the simulated MMU. Matches the 4 KiB pages of the paper's
/// AArch64 Linux target.
constexpr uint64_t PageSize = 4096;

/// Returns the page-aligned base address containing \p Addr.
constexpr uint64_t pageBase(uint64_t Addr) { return Addr & ~(PageSize - 1); }

/// Returns the page number containing \p Addr.
constexpr uint64_t pageNumber(uint64_t Addr) { return Addr / PageSize; }

/// Rounds \p Size up to a whole number of pages.
constexpr uint64_t roundUpToPage(uint64_t Size) {
  return (Size + PageSize - 1) & ~(PageSize - 1);
}

/// Page protection bits. Combinable.
enum ProtFlags : uint8_t {
  ProtNone = 0,
  ProtRead = 1,
  ProtWrite = 2,
  ProtExec = 4,
};

/// What a mapping backs. The capture mechanism treats these differently:
/// RuntimeImage pages are captured once per boot, FileMapped pages are never
/// captured (only their path/offset is logged), everything else is
/// process-specific.
enum class MappingKind {
  Code,         ///< Application machine code.
  Data,         ///< Application globals.
  Heap,         ///< Garbage-collected heap.
  Stack,        ///< Thread stack.
  RuntimeImage, ///< Immutable runtime objects, identical across processes
                ///< created during the same device boot.
  FileMapped,   ///< Memory-mapped system file (e.g. shared library code).
  Anonymous,    ///< Other anonymous memory (loader scratch, buffers).
};

/// One /proc/self/maps-style entry.
struct Mapping {
  uint64_t Start = 0; ///< Inclusive, page aligned.
  uint64_t End = 0;   ///< Exclusive, page aligned.
  MappingKind Kind = MappingKind::Anonymous;
  std::string Name;

  uint64_t sizeBytes() const { return End - Start; }
  uint64_t pageCount() const { return sizeBytes() / PageSize; }
  bool contains(uint64_t Addr) const { return Addr >= Start && Addr < End; }
};

/// Backing store for one page. Shared between address spaces after fork;
/// Copy-on-Write duplicates it on the first post-fork write.
struct PhysicalPage {
  std::array<uint8_t, PageSize> Data{};
};

using PhysPageRef = std::shared_ptr<PhysicalPage>;

/// The content behind a shared mapping (AddressSpace::mapShared) or a
/// page-backed file (StorageDevice::writePages): a fixed number of pages,
/// each produced when first asked for. page(I) returns the same reference
/// on every call and is safe to call from any thread; the source holds
/// each page it produced for its whole life, so a space that maps one
/// copies it on write instead of changing it. A null page reads as zeros.
class PageSource {
public:
  explicit PageSource(uint64_t Pages) : Pages(Pages) {}
  virtual ~PageSource() = default;

  uint64_t pageCount() const { return Pages; }

  /// Page \p I, for I < pageCount().
  virtual const PhysPageRef &page(uint64_t I) const = 0;

private:
  uint64_t Pages;
};

} // namespace os
} // namespace ropt

#endif // ROPT_OS_MEMORY_H
