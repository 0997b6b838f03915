//===- os/AddressSpace.cpp - Simulated per-process virtual memory --------===//

#include "os/AddressSpace.h"

#include <algorithm>
#include <cassert>
#include <iterator>

using namespace ropt;
using namespace ropt::os;

namespace {

/// A mapping's pages as one space held them (mappingPages): the held
/// pages, and the source's where the space had fetched none.
class HeldPages final : public PageSource {
public:
  HeldPages(std::vector<PhysPageRef> Held,
            std::shared_ptr<const PageSource> Source, uint64_t SourceFirst)
      : PageSource(Held.size()), Held(std::move(Held)),
        Source(std::move(Source)), SourceFirst(SourceFirst) {}

  const PhysPageRef &page(uint64_t I) const override {
    return Held[I] || !Source ? Held[I] : Source->page(SourceFirst + I);
  }

private:
  std::vector<PhysPageRef> Held;
  std::shared_ptr<const PageSource> Source;
  uint64_t SourceFirst;
};

} // namespace

void AddressSpace::mapRegion(uint64_t Start, uint64_t Size, uint8_t Prot,
                             MappingKind Kind, const std::string &Name) {
  assert(Size > 0 && "empty mapping");
  mapPages(Start, roundUpToPage(Size) / PageSize, Prot, nullptr, Kind, Name);
}

void AddressSpace::mapShared(uint64_t Start,
                             std::shared_ptr<const PageSource> Source,
                             uint8_t Prot, MappingKind Kind,
                             const std::string &Name) {
  assert(Source && Source->pageCount() > 0 && "empty mapping");
  uint64_t NumPages = Source->pageCount();
  mapPages(Start, NumPages, Prot, std::move(Source), Kind, Name);
}

void AddressSpace::mapPages(uint64_t Start, uint64_t NumPages, uint8_t Prot,
                            std::shared_ptr<const PageSource> Source,
                            MappingKind Kind, const std::string &Name) {
  assert(Start == pageBase(Start) && "mapping start must be page aligned");
  Region R;
  R.Map.Start = Start;
  R.Map.End = Start + NumPages * PageSize;
  R.Map.Kind = Kind;
  R.Map.Name = Name;
  size_t Pos = regionFrom(Start);
  assert((Pos == Regions.size() || R.Map.End <= Regions[Pos].Map.Start) &&
         "mapping overlaps existing pages");
  // Nothing is fetched or allocated yet, not even a chunk: a source page
  // is fetched on first touch (and copied by ensurePrivate on the first
  // write, since the source still holds it), a zero page materializes on
  // first write.
  R.Default.Prot = Prot;
  R.Chunks.resize((NumPages + ChunkPages - 1) / ChunkPages);
  R.Source = std::move(Source);
  Regions.insert(Regions.begin() + Pos, std::move(R));
  invalidateTranslations();
  if (SnapshotArmed)
    StructuralChange = true; // the snapshot no longer describes this space
}

size_t AddressSpace::regionFrom(uint64_t Addr) const {
  // Regions never overlap, so their ends are sorted like their starts.
  return std::partition_point(Regions.begin(), Regions.end(),
                              [Addr](const Region &R) {
                                return R.Map.End <= Addr;
                              }) -
         Regions.begin();
}

size_t AddressSpace::regionAt(uint64_t Addr) const {
  size_t Pos = regionFrom(Addr);
  if (Pos != Regions.size() && !Regions[Pos].Map.contains(Addr))
    return Regions.size();
  return Pos;
}

const AddressSpace::Region *AddressSpace::findRegion(uint64_t PageNum,
                                                     uint64_t &Index) const {
  uint64_t Addr = PageNum * PageSize;
  size_t Pos = regionAt(Addr);
  if (Pos == Regions.size())
    return nullptr;
  const Region &R = Regions[Pos];
  Index = (Addr - R.Map.Start) / PageSize;
  return &R;
}

AddressSpace::PageEntry &AddressSpace::Region::materialize(uint64_t Index) {
  std::unique_ptr<EntryChunk> &C = Chunks[Index / ChunkPages];
  if (!C) {
    C = std::make_unique<EntryChunk>();
    C->fill(Default);
  }
  return (*C)[Index % ChunkPages];
}

AddressSpace::ChunkTable AddressSpace::Region::slice(uint64_t First,
                                                     uint64_t Count) {
  ChunkTable Out((Count + ChunkPages - 1) / ChunkPages);
  for (uint64_t I = 0; I != Count; ++I) {
    std::unique_ptr<EntryChunk> &From = Chunks[(First + I) / ChunkPages];
    if (!From)
      continue;
    std::unique_ptr<EntryChunk> &To = Out[I / ChunkPages];
    if (!To) {
      To = std::make_unique<EntryChunk>();
      To->fill(Default);
    }
    (*To)[I % ChunkPages] = std::move((*From)[(First + I) % ChunkPages]);
  }
  return Out;
}

void AddressSpace::copyChunks(const ChunkTable &From, ChunkTable &To) {
  To.resize(From.size());
  for (size_t I = 0; I != From.size(); ++I) {
    if (!From[I])
      To[I].reset();
    else if (To[I])
      *To[I] = *From[I];
    else
      To[I] = std::make_unique<EntryChunk>(*From[I]);
  }
}

const AddressSpace::PageEntry *
AddressSpace::findEntry(uint64_t PageNum) const {
  uint64_t Index = 0;
  const Region *R = findRegion(PageNum, Index);
  return R ? &R->entry(Index) : nullptr;
}

AddressSpace::PageEntry *AddressSpace::fetchEntry(uint64_t PageNum) {
  uint64_t Index = 0;
  Region *R = findRegion(PageNum, Index);
  if (!R)
    return nullptr;
  PageEntry &E = R->materialize(Index);
  if (!E.Phys && R->Source)
    E.Phys = R->Source->page(R->SourceFirst + Index);
  return &E;
}

const PhysPageRef *AddressSpace::currentPage(uint64_t PageNum) const {
  uint64_t Index = 0;
  const Region *R = findRegion(PageNum, Index);
  if (!R)
    return nullptr;
  const PageEntry &E = R->entry(Index);
  if (E.Phys || !R->Source)
    return &E.Phys;
  return &R->Source->page(R->SourceFirst + Index);
}

void AddressSpace::unmapRegion(uint64_t Start, uint64_t Size) {
  uint64_t Lo = pageBase(Start);
  uint64_t Hi = Lo + roundUpToPage(Size);
  for (size_t I = regionFrom(Lo);
       I != Regions.size() && Regions[I].Map.Start < Hi;) {
    Region &R = Regions[I];
    uint64_t CutLo = std::max(Lo, R.Map.Start);
    uint64_t CutHi = std::min(Hi, R.Map.End);
    auto Index = [&R](uint64_t Addr) {
      return (Addr - R.Map.Start) / PageSize;
    };
    if (CutLo == R.Map.Start && CutHi == R.Map.End) {
      Regions.erase(Regions.begin() + I);
      continue;
    }
    // What stays is re-chunked from its own first page. Only the loader
    // trims or splits a mapping, a few times per restored space.
    if (CutLo == R.Map.Start) { // trim the head
      R.Chunks = R.slice(Index(CutHi), Index(R.Map.End) - Index(CutHi));
      R.SourceFirst += Index(CutHi);
      R.Map.Start = CutHi;
    } else if (CutHi == R.Map.End) { // trim the tail
      R.Chunks = R.slice(0, Index(CutLo));
      R.Map.End = CutLo;
    } else { // punch a hole: the pages above it become a mapping of their own
      Region Tail;
      Tail.Map = R.Map;
      Tail.Map.Start = CutHi;
      Tail.Default = R.Default;
      Tail.Source = R.Source;
      Tail.SourceFirst = R.SourceFirst + Index(CutHi);
      Tail.Chunks = R.slice(Index(CutHi), Index(R.Map.End) - Index(CutHi));
      R.Chunks = R.slice(0, Index(CutLo));
      R.Map.End = CutLo;
      Regions.insert(Regions.begin() + I + 1, std::move(Tail));
      break; // the tail starts at Hi
    }
    ++I;
  }
  invalidateTranslations();
  if (SnapshotArmed)
    StructuralChange = true;
}

void AddressSpace::protectRange(uint64_t Start, uint64_t Size, uint8_t Prot) {
  ++Stats.ProtectCalls;
  uint64_t Lo = pageBase(Start);
  uint64_t Hi = Lo + roundUpToPage(Size);
  for (size_t I = regionFrom(Lo);
       I != Regions.size() && Regions[I].Map.Start < Hi; ++I) {
    Region &R = Regions[I];
    uint64_t From = std::max(Lo, R.Map.Start);
    uint64_t To = std::min(Hi, R.Map.End);
    for (uint64_t Addr = From; Addr != To; Addr += PageSize) {
      uint64_t Index = (Addr - R.Map.Start) / PageSize;
      if (R.entry(Index).Prot != Prot) {
        R.materialize(Index).Prot = Prot;
        ++Stats.PagesProtected;
        if (SnapshotArmed)
          Dirty.insert(pageNumber(Addr)); // reset must re-arm the protection
      }
    }
  }
}

uint8_t AddressSpace::protectionOf(uint64_t Addr) const {
  const PageEntry *E = findEntry(pageNumber(Addr));
  return E ? E->Prot : static_cast<uint8_t>(ProtNone);
}

std::vector<Mapping> AddressSpace::procMaps() {
  ++Stats.MapsEnumerations;
  std::vector<Mapping> Out;
  Out.reserve(Regions.size());
  for (const Region &R : Regions)
    Out.push_back(R.Map);
  return Out;
}

const Mapping *AddressSpace::findMapping(uint64_t Addr) const {
  size_t Pos = regionAt(Addr);
  return Pos == Regions.size() ? nullptr : &Regions[Pos].Map;
}

void AddressSpace::ensurePrivate(uint64_t PageNum, PageEntry &Entry) {
  // Every first write after takeSnapshot() lands here: the snapshot's
  // chunks hold a reference to every materialized page (so
  // use_count > 1), a fetched source page is also held by its source, the
  // zero page is held by zeroPage(), and lazy-zero pages have no backing
  // yet. A private materialized page can only mean the dirty set already
  // has this page.
  if (!Entry.Phys) {
    Entry.Phys = std::make_shared<PhysicalPage>();
    if (SnapshotArmed)
      Dirty.insert(PageNum);
    return;
  }
  if (Entry.Phys.use_count() <= 1)
    return;
  // Copy-on-Write: the writer receives a private duplicate; every other
  // sharer keeps seeing the original bytes. This is exactly what keeps the
  // capture child's snapshot pristine while the parent keeps running.
  auto Copy = std::make_shared<PhysicalPage>(*Entry.Phys);
  Entry.Phys = std::move(Copy);
  ++Stats.CowCopies;
  if (SnapshotArmed)
    Dirty.insert(PageNum);
}

uint64_t AddressSpace::accessChunk(uint64_t Addr, void *Buf, uint64_t Size,
                                   bool IsWrite, AccessResult &Result) {
  uint64_t PageNum = pageNumber(Addr);
  PageEntry *Entry = lookupTranslation(PageNum);
  if (!Entry) {
    Entry = fetchEntry(PageNum);
    if (!Entry) {
      Result = AccessResult::Unmapped;
      return 0;
    }
    fillTranslation(PageNum, Entry);
  }

  uint8_t Needed = IsWrite ? ProtWrite : ProtRead;
  if ((Entry->Prot & Needed) == 0) {
    if (IsWrite)
      ++Stats.WriteFaults;
    else
      ++Stats.ReadFaults;
    bool Retried = OnFault && OnFault(Addr, IsWrite);
    if (!Retried || (Entry->Prot & Needed) == 0) {
      Result = AccessResult::Violation;
      return 0;
    }
  }

  if (IsWrite)
    ensurePrivate(PageNum, *Entry);

  uint64_t Offset = Addr - pageBase(Addr);
  uint64_t Chunk = std::min(Size, PageSize - Offset);
  if (IsWrite)
    std::memcpy(Entry->Phys->Data.data() + Offset, Buf, Chunk);
  else if (Entry->Phys)
    std::memcpy(Buf, Entry->Phys->Data.data() + Offset, Chunk);
  else
    std::memset(Buf, 0, Chunk); // untouched zero page
  Result = AccessResult::Ok;
  return Chunk;
}

AccessResult AddressSpace::readSlow(uint64_t Addr, void *Out, uint64_t Size) {
  uint8_t *Buf = static_cast<uint8_t *>(Out);
  while (Size > 0) {
    AccessResult Result;
    uint64_t Done = accessChunk(Addr, Buf, Size, /*IsWrite=*/false, Result);
    if (Result != AccessResult::Ok)
      return Result;
    Addr += Done;
    Buf += Done;
    Size -= Done;
  }
  return AccessResult::Ok;
}

AccessResult AddressSpace::writeSlow(uint64_t Addr, const void *Data,
                                     uint64_t Size) {
  const uint8_t *Buf = static_cast<const uint8_t *>(Data);
  while (Size > 0) {
    AccessResult Result;
    uint64_t Done = accessChunk(Addr, const_cast<uint8_t *>(Buf), Size,
                                /*IsWrite=*/true, Result);
    if (Result != AccessResult::Ok)
      return Result;
    Addr += Done;
    Buf += Done;
    Size -= Done;
  }
  return AccessResult::Ok;
}

const PhysPageRef &AddressSpace::zeroPage() {
  static const PhysPageRef Zero = std::make_shared<PhysicalPage>();
  return Zero;
}

AccessResult AddressSpace::zeroFill(uint64_t Addr, uint64_t Size,
                                    uint64_t &ZeroPages) {
  static const uint8_t Zeros[PageSize] = {};
  while (Size > 0) {
    uint64_t PageNum = pageNumber(Addr);
    uint64_t Chunk = std::min(Size, PageSize - (Addr - pageBase(Addr)));
    uint64_t Index = 0;
    Region *R = OnFault ? nullptr : findRegion(PageNum, Index);
    const PageEntry *E = R ? &R->entry(Index) : nullptr;
    if (E && !R->Source && (E->Prot & ProtWrite) &&
        (!E->Phys || E->Phys == zeroPage())) {
      // A page already on the zero page holds these bytes: the snapshot
      // shares it, or its first fill after takeSnapshot() made it dirty.
      if (!E->Phys) {
        R->materialize(Index).Phys = zeroPage();
        if (SnapshotArmed)
          Dirty.insert(PageNum);
      }
      ++ZeroPages;
    } else {
      AccessResult Result;
      Chunk = accessChunk(Addr, const_cast<uint8_t *>(Zeros), Chunk,
                          /*IsWrite=*/true, Result);
      if (Result != AccessResult::Ok)
        return Result;
    }
    Addr += Chunk;
    Size -= Chunk;
  }
  return AccessResult::Ok;
}

bool AddressSpace::peek(uint64_t Addr, void *Out, uint64_t Size) const {
  uint8_t *Buf = static_cast<uint8_t *>(Out);
  while (Size > 0) {
    const PhysPageRef *Phys = currentPage(pageNumber(Addr));
    if (!Phys)
      return false;
    uint64_t Offset = Addr - pageBase(Addr);
    uint64_t Chunk = std::min(Size, PageSize - Offset);
    if (*Phys)
      std::memcpy(Buf, (*Phys)->Data.data() + Offset, Chunk);
    else
      std::memset(Buf, 0, Chunk);
    Addr += Chunk;
    Buf += Chunk;
    Size -= Chunk;
  }
  return true;
}

bool AddressSpace::pageBytes(uint64_t Addr, const uint8_t *&Bytes) const {
  const PhysPageRef *Phys = currentPage(pageNumber(Addr));
  if (!Phys)
    return false;
  Bytes = *Phys ? (*Phys)->Data.data() : nullptr;
  return true;
}

bool AddressSpace::poke(uint64_t Addr, const void *Data, uint64_t Size) {
  const uint8_t *Buf = static_cast<const uint8_t *>(Data);
  while (Size > 0) {
    uint64_t PageNum = pageNumber(Addr);
    PageEntry *E = fetchEntry(PageNum);
    if (!E)
      return false;
    ensurePrivate(PageNum, *E);
    uint64_t Offset = Addr - pageBase(Addr);
    uint64_t Chunk = std::min(Size, PageSize - Offset);
    std::memcpy(E->Phys->Data.data() + Offset, Buf, Chunk);
    Addr += Chunk;
    Buf += Chunk;
    Size -= Chunk;
  }
  return true;
}

bool AddressSpace::sharePage(uint64_t Addr,
                             std::shared_ptr<const PhysicalPage> Page) {
  uint64_t PageNum = pageNumber(Addr);
  uint64_t Index = 0;
  Region *R = findRegion(PageNum, Index);
  if (!R)
    return false;
  // Held as writable like every entry: ensurePrivate copies it before any
  // write while another reference to it lives.
  R->materialize(Index).Phys = std::const_pointer_cast<PhysicalPage>(
      std::move(Page));
  if (SnapshotArmed)
    Dirty.insert(PageNum);
  return true;
}

AddressSpace AddressSpace::forkClone() const {
  AddressSpace Child;
  Child.Regions.reserve(Regions.size());
  for (const Region &R : Regions) {
    Region &C = Child.Regions.emplace_back();
    C.Map = R.Map;
    C.Default = R.Default;
    C.Source = R.Source;
    C.SourceFirst = R.SourceFirst;
    // Shares PhysicalPage refs -> CoW on either side.
    copyChunks(R.Chunks, C.Chunks);
  }
  return Child;
}

uint64_t AddressSpace::mappedPageCount() const {
  uint64_t Pages = 0;
  for (const Region &R : Regions)
    Pages += R.Map.pageCount();
  return Pages;
}

uint64_t AddressSpace::pageTableEntries() const {
  uint64_t Entries = 0;
  for (const Region &R : Regions)
    for (const std::unique_ptr<EntryChunk> &C : R.Chunks)
      Entries += C ? ChunkPages : 0;
  return Entries;
}

PhysPageRef AddressSpace::physicalPage(uint64_t Addr) const {
  const PhysPageRef *Phys = currentPage(pageNumber(Addr));
  return Phys ? *Phys : nullptr;
}

std::shared_ptr<const PageSource>
AddressSpace::mappingPages(uint64_t Addr) const {
  size_t Pos = regionAt(Addr);
  if (Pos == Regions.size())
    return nullptr;
  const Region &R = Regions[Pos];
  std::vector<PhysPageRef> Held;
  Held.reserve(R.Map.pageCount());
  for (uint64_t I = 0; I != R.Map.pageCount(); ++I)
    Held.push_back(R.entry(I).Phys);
  return std::make_shared<HeldPages>(std::move(Held), R.Source,
                                     R.SourceFirst);
}

void AddressSpace::takeSnapshot() {
  // Bumps every materialized page to shared; copying over the chunks of
  // an earlier snapshot reuses their storage.
  SnapshotChunks.resize(Regions.size());
  for (size_t I = 0; I != Regions.size(); ++I)
    copyChunks(Regions[I].Chunks, SnapshotChunks[I]);
  Dirty.clear();
  SnapshotArmed = true;
  StructuralChange = false;
  ++Stats.SnapshotsTaken;
}

int64_t AddressSpace::resetToSnapshot() {
  if (!SnapshotArmed || StructuralChange)
    return -1;
  // No map or unmap since the snapshot: every region sits at the index,
  // and every page at the offset, that the snapshot recorded.
  int64_t Reverted = 0;
  for (uint64_t P : Dirty) {
    uint64_t Addr = P * PageSize;
    size_t Pos = regionAt(Addr);
    if (Pos >= SnapshotChunks.size() || Pos == Regions.size()) {
      // Unreachable while StructuralChange tracking is sound; degrade to
      // "snapshot invalid" rather than half-restoring silently.
      StructuralChange = true;
      return -1;
    }
    Region &R = Regions[Pos];
    uint64_t Index = (Addr - R.Map.Start) / PageSize;
    // Re-share, re-arm Prot. A chunk the snapshot lacks read as defaults
    // then; the live one is present, since the page changed since.
    const std::unique_ptr<EntryChunk> &Snap =
        SnapshotChunks[Pos][Index / ChunkPages];
    R.materialize(Index) = Snap ? (*Snap)[Index % ChunkPages] : R.Default;
    ++Reverted;
  }
  Dirty.clear();
  invalidateTranslations();
  ++Stats.SnapshotResets;
  Stats.PagesReverted += static_cast<uint64_t>(Reverted);
  return Reverted;
}

void AddressSpace::dropSnapshot() {
  SnapshotChunks.clear();
  Dirty.clear();
  SnapshotArmed = false;
  StructuralChange = false;
}
