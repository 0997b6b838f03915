//===- os/AddressSpace.h - Simulated per-process virtual memory -*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A page-granular virtual address space with protection bits, fault
/// delivery, and Copy-on-Write sharing. This is the substrate the paper's
/// capture mechanism is built on: read-protect pages, let the fault handler
/// record first accesses, and let CoW preserve the pre-region state of any
/// page the application writes.
///
/// Two performance features serve the replay fork-server (DESIGN.md §16):
///
/// - **Snapshots.** `takeSnapshot()` freezes the current content as a
///   restore point; every page written afterwards is recorded in a dirty
///   set, and `resetToSnapshot()` reverts exactly those pages by dropping
///   their private copies and re-sharing the snapshot's physical pages
///   (re-arming the snapshot protections with them). Dirty recording rides
///   the existing CoW path: taking the snapshot bumps every materialized
///   page to shared, so the first post-snapshot write necessarily transits
///   `ensurePrivate`, which is the single recording point.
///
/// - **Inline access fast path.** `read`/`write` handle the common case —
///   page-local access, permitted protection, (for writes) already-private
///   backing — entirely in the header against a small multi-entry
///   translation cache; everything else tails into the out-of-line slow
///   path, which also keeps the fault accounting. A private page under an
///   armed snapshot is by construction already in the dirty set, so the
///   inline write path can skip the recording check.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_OS_ADDRESS_SPACE_H
#define ROPT_OS_ADDRESS_SPACE_H

#include "os/Memory.h"

#include <array>
#include <cstring>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace ropt {
namespace os {

/// Counters for kernel-visible memory events; the capture overhead model
/// (Figure 10) is driven by these.
struct MemoryStats {
  uint64_t ProtectCalls = 0;   ///< protectRange invocations.
  uint64_t PagesProtected = 0; ///< Pages whose protection changed.
  uint64_t ReadFaults = 0;     ///< Faults taken on read access.
  uint64_t WriteFaults = 0;    ///< Faults taken on write access.
  uint64_t CowCopies = 0;      ///< Pages duplicated by Copy-on-Write.
  uint64_t MapsEnumerations = 0; ///< procMaps() style walks.
  uint64_t SnapshotsTaken = 0;   ///< takeSnapshot() restore points armed.
  uint64_t SnapshotResets = 0;   ///< Successful resetToSnapshot() calls.
  uint64_t PagesReverted = 0;    ///< Dirty pages reverted across resets.
};

/// Outcome of a memory access attempt.
enum class AccessResult {
  Ok,        ///< Access performed.
  Unmapped,  ///< No page at the address.
  Violation, ///< Protection violation not resolved by the fault handler.
};

/// A page-table backed virtual address space.
///
/// Faults: when an access violates the page protection, the installed fault
/// handler (if any) runs. If it returns true the access is retried once —
/// the handler is expected to have changed the protection. A second failure,
/// or the absence of a handler, yields AccessResult::Violation.
class AddressSpace {
public:
  /// Handler invoked on a protection fault. \p Addr is the faulting address,
  /// \p IsWrite distinguishes write faults. Returns true to retry.
  using FaultHandler = std::function<bool(uint64_t Addr, bool IsWrite)>;

  AddressSpace() = default;

  /// Maps \p Size bytes (rounded up to pages) at \p Start with \p Prot.
  /// The range must not overlap an existing mapping.
  void mapRegion(uint64_t Start, uint64_t Size, uint8_t Prot,
                 MappingKind Kind, const std::string &Name);

  /// Maps one page per entry of \p Backing at \p Start, sharing those
  /// physical pages instead of allocating new ones — the same sharing
  /// forkClone() sets up, so the first write to a page copies it through
  /// the Copy-on-Write path as long as someone else still holds it. The
  /// range must not overlap an existing mapping.
  void mapShared(uint64_t Start, const std::vector<PhysPageRef> &Backing,
                 uint8_t Prot, MappingKind Kind, const std::string &Name);

  /// Unmaps every page in [Start, Start+Size). Pages outside any mapping
  /// are ignored. Mappings fully contained in the range are removed;
  /// partial overlap shrinks the mapping bookkeeping conservatively.
  void unmapRegion(uint64_t Start, uint64_t Size);

  /// Changes the protection of all mapped pages in [Start, Start+Size).
  /// Counts one ProtectCall plus one PagesProtected per page touched.
  void protectRange(uint64_t Start, uint64_t Size, uint8_t Prot);

  /// Installs (or clears, with nullptr) the protection-fault handler.
  void setFaultHandler(FaultHandler Handler) {
    OnFault = std::move(Handler);
  }

  /// Reads \p Size bytes at \p Addr into \p Out. May span pages. The
  /// page-local permitted case is served inline from the translation
  /// cache; faults, misses and page-spanning accesses take the slow path.
  AccessResult read(uint64_t Addr, void *Out, uint64_t Size) {
    uint64_t Offset = Addr & (PageSize - 1);
    if (Offset + Size <= PageSize) {
      if (const PageEntry *E = lookupTranslation(pageNumber(Addr))) {
        if (E->Prot & ProtRead) {
          if (E->Phys)
            std::memcpy(Out, E->Phys->Data.data() + Offset, Size);
          else
            std::memset(Out, 0, Size); // untouched page reads as zeros
          return AccessResult::Ok;
        }
      }
    }
    return readSlow(Addr, Out, Size);
  }

  /// Writes \p Size bytes at \p Addr. May span pages. Triggers CoW. The
  /// inline path additionally requires a private, materialized page — a
  /// shared or lazy-zero page must transit ensurePrivate (CoW + dirty-set
  /// recording) on the slow path.
  AccessResult write(uint64_t Addr, const void *Data, uint64_t Size) {
    uint64_t Offset = Addr & (PageSize - 1);
    if (Offset + Size <= PageSize) {
      if (PageEntry *E = lookupTranslation(pageNumber(Addr))) {
        if ((E->Prot & ProtWrite) && E->Phys && E->Phys.use_count() == 1) {
          std::memcpy(E->Phys->Data.data() + Offset, Data, Size);
          return AccessResult::Ok;
        }
      }
    }
    return writeSlow(Addr, Data, Size);
  }

  /// Typed helpers; assert on unaligned page-spanning is not required —
  /// they go through read()/write().
  AccessResult loadU64(uint64_t Addr, uint64_t &Out) {
    return read(Addr, &Out, sizeof(Out));
  }
  AccessResult storeU64(uint64_t Addr, uint64_t Value) {
    return write(Addr, &Value, sizeof(Value));
  }
  AccessResult loadF64(uint64_t Addr, double &Out) {
    return read(Addr, &Out, sizeof(Out));
  }
  AccessResult storeF64(uint64_t Addr, double Value) {
    return write(Addr, &Value, sizeof(Value));
  }

  /// Reads bytes ignoring protection (kernel-style access for capture and
  /// snapshot tooling). Returns false if any page is unmapped.
  bool peek(uint64_t Addr, void *Out, uint64_t Size) const;

  /// Writes bytes ignoring protection, still honouring CoW so snapshots
  /// stay intact. Returns false if any page is unmapped.
  bool poke(uint64_t Addr, const void *Data, uint64_t Size);

  /// True if the page containing \p Addr is mapped.
  bool isMapped(uint64_t Addr) const {
    return Pages.count(pageNumber(Addr)) != 0;
  }

  /// Protection of the page containing \p Addr; ProtNone if unmapped.
  uint8_t protectionOf(uint64_t Addr) const;

  /// Enumerates mappings, ordered by start address (the simulated
  /// /proc/self/maps). Counts one MapsEnumeration.
  std::vector<Mapping> procMaps();

  /// Mapping lookup without stats side effects; nullptr if none.
  const Mapping *findMapping(uint64_t Addr) const;

  /// Clones this space for fork(): page table copied, physical pages
  /// shared, so the first write on either side triggers Copy-on-Write.
  /// The clone starts without a snapshot or dirty set of its own.
  AddressSpace forkClone() const;

  /// Returns the physical page ref for tests/capture; nullptr if unmapped.
  PhysPageRef physicalPage(uint64_t Addr) const;

  /// Total number of mapped pages.
  uint64_t mappedPageCount() const { return Pages.size(); }

  /// Freezes the current content and protections as the restore point for
  /// later resetToSnapshot() calls. Every materialized page becomes shared
  /// with the snapshot, so any later write necessarily pays one CoW copy —
  /// the price of knowing exactly which pages to revert. Replaces any
  /// earlier snapshot and clears the dirty set.
  void takeSnapshot();

  /// Reverts every page written (or re-protected) since takeSnapshot() to
  /// its snapshot content and protection, dropping the private copies and
  /// re-sharing the snapshot's physical pages. Returns the number of pages
  /// reverted, or -1 when there is no valid restore point — no snapshot
  /// taken, or the address-space *structure* (map/unmap) changed since,
  /// which invalidates it. On -1 the caller must rebuild from scratch.
  int64_t resetToSnapshot();

  /// True while resetToSnapshot() would succeed.
  bool hasValidSnapshot() const { return SnapshotArmed && !StructuralChange; }

  /// Forgets the restore point and the dirty set (frees the snapshot's
  /// page-table copy; shared physical pages are released lazily by CoW).
  void dropSnapshot();

  /// Pages written or re-protected since the last takeSnapshot().
  uint64_t dirtyPageCount() const { return Dirty.size(); }

  const MemoryStats &stats() const { return Stats; }
  void resetStats() { Stats = MemoryStats(); }

private:
  /// Physical backing is allocated lazily: a null Phys reads as zeros and
  /// materializes on first write (the zero-page trick real kernels use).
  struct PageEntry {
    PhysPageRef Phys;
    uint8_t Prot = ProtNone;
  };

  /// Maps \p NumPages pages at \p Start, backed by \p Backing (one ref
  /// per page) or, when null, by lazily materialized zero pages.
  void mapPages(uint64_t Start, uint64_t NumPages, uint8_t Prot,
                const PhysPageRef *Backing, MappingKind Kind,
                const std::string &Name);

  /// Ensures this space holds a private, materialized copy of page
  /// \p PageNum before writing; records it in the dirty set while a
  /// snapshot is armed. This is the single point every first-after-
  /// snapshot write passes through (see the header comment invariant).
  void ensurePrivate(uint64_t PageNum, PageEntry &Entry);

  /// One page-bounded access step. Returns the number of bytes handled or
  /// sets \p Result and returns 0 on failure.
  uint64_t accessChunk(uint64_t Addr, void *Buf, uint64_t Size, bool IsWrite,
                       AccessResult &Result);

  AccessResult readSlow(uint64_t Addr, void *Out, uint64_t Size);
  AccessResult writeSlow(uint64_t Addr, const void *Data, uint64_t Size);

  // Small fully-associative translation cache in front of the page table.
  // unordered_map never moves its nodes, so cached PageEntry pointers stay
  // valid until a page is erased (unmapRegion invalidates the cache).
  static constexpr size_t TranslationWays = 4;
  struct TranslationEntry {
    uint64_t PageNum = ~0ULL;
    PageEntry *Entry = nullptr;
  };

  PageEntry *lookupTranslation(uint64_t PageNum) const {
    for (const TranslationEntry &T : Translations)
      if (T.PageNum == PageNum)
        return T.Entry;
    return nullptr;
  }

  void fillTranslation(uint64_t PageNum, PageEntry *Entry) const {
    Translations[TranslationVictim] = {PageNum, Entry};
    TranslationVictim = (TranslationVictim + 1) % TranslationWays;
  }

  void invalidateTranslations() const {
    for (TranslationEntry &T : Translations)
      T = TranslationEntry();
    TranslationVictim = 0;
  }

  std::unordered_map<uint64_t, PageEntry> Pages;
  std::vector<Mapping> Mappings; ///< Kept sorted by Start.
  FaultHandler OnFault;
  MemoryStats Stats;

  mutable std::array<TranslationEntry, TranslationWays> Translations;
  mutable size_t TranslationVictim = 0;

  // Snapshot/restore state (replay fork-server support).
  std::unordered_map<uint64_t, PageEntry> SnapshotPages;
  std::unordered_set<uint64_t> Dirty;
  bool SnapshotArmed = false;
  bool StructuralChange = false;
};

} // namespace os
} // namespace ropt

#endif // ROPT_OS_ADDRESS_SPACE_H
