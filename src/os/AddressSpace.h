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
/// **Page table.** The mappings sit in one vector sorted by start, and
/// each keeps its pages in 64-page chunks (1.5 KiB of entries each),
/// allocated only when one of their entries must change. An absent chunk
/// reads as 64 entries of {no page, the mapping's protection}: lazy-zero
/// pages, or source pages not fetched yet. So a space pays for the pages
/// something touched, not for its layout: a replay session over a
/// 7,488-page layout holds a few chunks. Copying the table (forkClone,
/// takeSnapshot) copies the present chunks only, and a lookup
/// binary-searches the mappings (DESIGN.md §16). Chunks belong to one
/// space or snapshot and never move, which is what lets the inline write
/// path read use_count() == 1 as "only this space holds the page" and
/// keeps cached translations valid.
///
/// **Zero fill.** zeroFill points a page nobody wrote at one shared zero
/// page rather than materializing zeros: the page stays unmaterialized,
/// yet it is backed like a forked page, so its first write pays the same
/// Copy-on-Write copy a zeroed page shared with a capture child pays.
///
/// **Demand paging.** A shared mapping reads a PageSource. Its null
/// entries mean "not fetched yet", not "zero page": the slow access path
/// fetches the source's page into the entry before it fills the
/// translation cache (so the inline path only ever sees fetched pages),
/// and poke fetches before Copy-on-Write, so a write copies the source's
/// bytes. peek, pageBytes and physicalPage read the source's page without
/// installing it. A page no access touched costs the space nothing but its
/// null entry (DESIGN.md §19).
///
/// Two performance features serve the replay fork-server (DESIGN.md §16):
///
/// - **Snapshots.** `takeSnapshot()` freezes the current content as a
///   restore point; every page written afterwards is recorded in a dirty
///   set, and `resetToSnapshot()` reverts exactly those pages by dropping
///   their private copies and re-sharing the snapshot's physical pages
///   (re-arming the snapshot protections with them). The snapshot is a copy
///   of each mapping's present chunks; since any map or unmap invalidates
///   it, a dirty page sits at the same mapping index and offset in both,
///   and a page whose chunk the snapshot lacks reverts to its mapping's
///   default entry.
///   Dirty recording rides the existing CoW path: taking the snapshot bumps
///   every materialized page to shared, so the first post-snapshot write
///   necessarily transits `ensurePrivate`, which is the single recording
///   point.
///
/// - **Inline access fast path.** `read`/`write` handle the common case —
///   page-local access, permitted protection, (for writes) already-private
///   backing — entirely in the header against a 64-entry direct-mapped
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

  /// forkClone() is the only copy: a plain copy would carry a translation
  /// cache pointing into the source's page entries.
  AddressSpace(const AddressSpace &) = delete;
  AddressSpace &operator=(const AddressSpace &) = delete;
  AddressSpace(AddressSpace &&) = default;
  AddressSpace &operator=(AddressSpace &&) = default;

  /// Maps \p Size bytes (rounded up to pages) at \p Start with \p Prot.
  /// The range must not overlap an existing mapping.
  void mapRegion(uint64_t Start, uint64_t Size, uint8_t Prot,
                 MappingKind Kind, const std::string &Name);

  /// Maps one page per page of \p Source at \p Start, fetching each from
  /// the source on first touch and sharing it instead of allocating a new
  /// one — the same sharing forkClone() sets up, so the first write to a
  /// page copies it through the Copy-on-Write path (the source itself
  /// still holds it). The range must not overlap an existing mapping.
  void mapShared(uint64_t Start, std::shared_ptr<const PageSource> Source,
                 uint8_t Prot, MappingKind Kind, const std::string &Name);

  /// Unmaps every page in [Start, Start+Size). Pages outside any mapping
  /// are ignored. Mappings fully contained in the range are removed; a
  /// mapping the range overlaps at one end is trimmed, and one the range
  /// punches a hole into is split into a head and a tail mapping.
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
            std::memset(Out, 0, Size); // a zero page: shared ones are fetched
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

  /// Writes \p Size zero bytes at \p Addr. A page outside a capture window
  /// (no fault handler installed) that is writable and has no backing yet
  /// is pointed at the shared zero page instead of getting a zeroed copy
  /// of its own, joins the dirty set while a snapshot is armed, and is
  /// counted in \p ZeroPages; one already on the zero page is left there
  /// and counted. Every other page — materialized, protected
  /// or source-backed, or any page while a handler is installed — takes
  /// write()'s path, so a capture window sees today's faults and copies
  /// (DESIGN.md §16).
  AccessResult zeroFill(uint64_t Addr, uint64_t Size, uint64_t &ZeroPages);

  /// The one all-zero page zeroFill shares. This reference keeps it shared
  /// for the life of the process, so every write to it copies it first
  /// and its bytes never change.
  static const PhysPageRef &zeroPage();

  /// Typed helpers; assert on unaligned page-spanning is not required —
  /// they go through read()/write().
  AccessResult loadU64(uint64_t Addr, uint64_t &Out) {
    return read(Addr, &Out, sizeof(Out));
  }
  AccessResult storeU64(uint64_t Addr, uint64_t Value) {
    return write(Addr, &Value, sizeof(Value));
  }

  /// Reads bytes ignoring protection (kernel-style access for capture and
  /// snapshot tooling). Returns false if any page is unmapped.
  bool peek(uint64_t Addr, void *Out, uint64_t Size) const;

  /// Kernel-style view of the page containing \p Addr, ignoring
  /// protection, for in-place comparisons: false if the page is unmapped;
  /// otherwise \p Bytes points at its PageSize bytes, or is null for an
  /// untouched zero page. Valid until the page is next written, unmapped
  /// or reset.
  bool pageBytes(uint64_t Addr, const uint8_t *&Bytes) const;

  /// Writes bytes ignoring protection, still honouring CoW so snapshots
  /// stay intact. Returns false if any page is unmapped.
  bool poke(uint64_t Addr, const void *Data, uint64_t Size);

  /// Maps \p Page by reference as the page containing \p Addr, keeping
  /// the page's protection; returns false if \p Addr is unmapped. The
  /// space never writes a page another reference can see: while the
  /// caller holds \p Page, the first write copies it through
  /// Copy-on-Write, as a forked page's, so \p Page's bytes never change.
  /// Joins the dirty set while a snapshot is armed.
  bool sharePage(uint64_t Addr, std::shared_ptr<const PhysicalPage> Page);

  /// True if the page containing \p Addr is mapped.
  bool isMapped(uint64_t Addr) const {
    return findEntry(pageNumber(Addr)) != nullptr;
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

  /// Returns the physical page ref for tests/capture; nullptr if unmapped
  /// or an untouched zero page, zeroPage() for a zero-filled one.
  PhysPageRef physicalPage(uint64_t Addr) const;

  /// The pages of the mapping holding \p Addr as this space reads them
  /// now, by reference: the pages it holds (its private copies included)
  /// and, for the ones it never fetched, its source's. Writes the space
  /// makes later copy the held pages rather than change them, so the
  /// content never changes. Nullptr if \p Addr is unmapped.
  std::shared_ptr<const PageSource> mappingPages(uint64_t Addr) const;

  /// Total number of mapped pages.
  uint64_t mappedPageCount() const;

  /// Page entries the table holds: 64 for every present chunk. The
  /// snapshot's chunks are not counted.
  uint64_t pageTableEntries() const;

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
  /// entry arrays; shared physical pages are released lazily by CoW).
  void dropSnapshot();

  /// Pages written or re-protected since the last takeSnapshot().
  uint64_t dirtyPageCount() const { return Dirty.size(); }

  const MemoryStats &stats() const { return Stats; }
  void resetStats() { Stats = MemoryStats(); }

private:
  /// Physical backing is allocated lazily: outside a shared mapping a
  /// null Phys reads as zeros and materializes on first write (the
  /// zero-page trick real kernels use); inside one it is a source page
  /// not fetched yet.
  struct PageEntry {
    PhysPageRef Phys;
    uint8_t Prot = ProtNone;
  };

  /// Pages per chunk of a mapping's page table. A constant: lookups
  /// divide by it.
  static constexpr uint64_t ChunkPages = 64;
  using EntryChunk = std::array<PageEntry, ChunkPages>;
  /// Chunk I holds pages [I * ChunkPages, (I + 1) * ChunkPages) of a
  /// mapping, or is null while all of them read as the default entry.
  using ChunkTable = std::vector<std::unique_ptr<EntryChunk>>;

  /// One mapping and its pages: entry I backs the page at
  /// Map.Start + I * PageSize. In a shared mapping, page SourceFirst + I
  /// of Source is what a null entry I reads; an unmap that trims or
  /// splits the region moves SourceFirst with its first entry.
  struct Region {
    Mapping Map;
    /// What every entry of an absent chunk reads: no page, and the
    /// protection the mapping was made with.
    PageEntry Default;
    ChunkTable Chunks;
    std::shared_ptr<const PageSource> Source;
    uint64_t SourceFirst = 0;

    /// Entry \p Index as it reads now, without allocating its chunk.
    const PageEntry &entry(uint64_t Index) const {
      const std::unique_ptr<EntryChunk> &C = Chunks[Index / ChunkPages];
      return C ? (*C)[Index % ChunkPages] : Default;
    }

    /// Entry \p Index, ready to change: an absent chunk is allocated
    /// first, as 64 default entries.
    PageEntry &materialize(uint64_t Index);

    /// Entries [First, First + Count) as a table of their own, moved out
    /// of this one: a new chunk is present if a chunk it draws from is.
    ChunkTable slice(uint64_t First, uint64_t Count);
  };

  /// Copies the present chunks of \p From into \p To, reusing the
  /// storage of the chunks \p To already has.
  static void copyChunks(const ChunkTable &From, ChunkTable &To);

  /// Maps \p NumPages pages at \p Start, backed by \p Source's pages or,
  /// when null, by lazily materialized zero pages.
  void mapPages(uint64_t Start, uint64_t NumPages, uint8_t Prot,
                std::shared_ptr<const PageSource> Source, MappingKind Kind,
                const std::string &Name);

  /// Index of the first region that ends above \p Addr (Regions.size()
  /// if none); the region holding \p Addr if any holds it.
  size_t regionFrom(uint64_t Addr) const;

  /// Index of the region holding \p Addr, or Regions.size() if none does.
  size_t regionAt(uint64_t Addr) const;

  /// The region holding page \p PageNum, with the page's index in it
  /// stored to \p Index, or nullptr if the page is unmapped.
  const Region *findRegion(uint64_t PageNum, uint64_t &Index) const;
  Region *findRegion(uint64_t PageNum, uint64_t &Index) {
    return const_cast<Region *>(
        static_cast<const AddressSpace *>(this)->findRegion(PageNum, Index));
  }

  /// The entry of page \p PageNum as it reads now, or nullptr if it is
  /// unmapped. Its chunk is left absent.
  const PageEntry *findEntry(uint64_t PageNum) const;

  /// The entry of page \p PageNum with its chunk materialized and its
  /// source page fetched, or nullptr if it is unmapped. Every path that
  /// installs a translation or writes a page goes through here.
  PageEntry *fetchEntry(uint64_t PageNum);

  /// The page that page \p PageNum reads now — its entry's page or, if
  /// not fetched, its source's, which is not installed — or nullptr if it
  /// is unmapped. The reference is null for an untouched zero page.
  const PhysPageRef *currentPage(uint64_t PageNum) const;

  /// Ensures this space holds a private, materialized copy of page
  /// \p PageNum (already fetched, in a shared mapping) before writing;
  /// records it in the dirty set while a snapshot is armed. This is the
  /// single point every first-after-snapshot write passes through (see
  /// the header comment invariant).
  void ensurePrivate(uint64_t PageNum, PageEntry &Entry);

  /// One page-bounded access step. Returns the number of bytes handled or
  /// sets \p Result and returns 0 on failure.
  uint64_t accessChunk(uint64_t Addr, void *Buf, uint64_t Size, bool IsWrite,
                       AccessResult &Result);

  AccessResult readSlow(uint64_t Addr, void *Out, uint64_t Size);
  AccessResult writeSlow(uint64_t Addr, const void *Data, uint64_t Size);

  // Direct-mapped translation cache in front of the page table, indexed
  // by the low page-number bits: one compare per lookup. Only a present
  // chunk's entry is cached; chunks never move, and only an unmap frees
  // or re-chunks them, which invalidates the cache, so a cached PageEntry
  // pointer stays valid until then.
  static constexpr size_t TranslationSlots = 64;
  struct TranslationEntry {
    uint64_t PageNum = ~0ULL;
    PageEntry *Entry = nullptr;
  };

  static size_t translationSlot(uint64_t PageNum) {
    return PageNum & (TranslationSlots - 1);
  }

  PageEntry *lookupTranslation(uint64_t PageNum) const {
    const TranslationEntry &T = Translations[translationSlot(PageNum)];
    return T.PageNum == PageNum ? T.Entry : nullptr;
  }

  void fillTranslation(uint64_t PageNum, PageEntry *Entry) const {
    Translations[translationSlot(PageNum)] = {PageNum, Entry};
  }

  void invalidateTranslations() const { Translations.fill({}); }

  std::vector<Region> Regions; ///< Sorted by start, never overlapping.
  FaultHandler OnFault;
  MemoryStats Stats;

  mutable std::array<TranslationEntry, TranslationSlots> Translations;

  // Snapshot/restore state (replay fork-server support).
  /// Each region's chunks at takeSnapshot(), index for index.
  std::vector<ChunkTable> SnapshotChunks;
  std::unordered_set<uint64_t> Dirty;
  bool SnapshotArmed = false;
  bool StructuralChange = false;
};

} // namespace os
} // namespace ropt

#endif // ROPT_OS_ADDRESS_SPACE_H
