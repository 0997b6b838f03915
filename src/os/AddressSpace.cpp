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
  // Nothing is fetched or allocated yet: a source page is fetched on first
  // touch (and copied by ensurePrivate on the first write, since the
  // source still holds it), a zero page materializes on first write.
  R.Entries.assign(NumPages, {nullptr, Prot});
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

const AddressSpace::PageEntry *
AddressSpace::findEntry(uint64_t PageNum) const {
  uint64_t Index = 0;
  const Region *R = findRegion(PageNum, Index);
  return R ? &R->Entries[Index] : nullptr;
}

AddressSpace::PageEntry *AddressSpace::fetchEntry(uint64_t PageNum) {
  uint64_t Index = 0;
  Region *R = const_cast<Region *>(findRegion(PageNum, Index));
  if (!R)
    return nullptr;
  PageEntry &E = R->Entries[Index];
  if (!E.Phys && R->Source)
    E.Phys = R->Source->page(R->SourceFirst + Index);
  return &E;
}

const PhysPageRef *AddressSpace::currentPage(uint64_t PageNum) const {
  uint64_t Index = 0;
  const Region *R = findRegion(PageNum, Index);
  if (!R)
    return nullptr;
  const PageEntry &E = R->Entries[Index];
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
    auto Entry = [&R](uint64_t Addr) {
      return R.Entries.begin() + (Addr - R.Map.Start) / PageSize;
    };
    if (CutLo == R.Map.Start && CutHi == R.Map.End) {
      Regions.erase(Regions.begin() + I);
      continue;
    }
    if (CutLo == R.Map.Start) { // trim the head
      R.Entries.erase(R.Entries.begin(), Entry(CutHi));
      R.SourceFirst += (CutHi - R.Map.Start) / PageSize;
      R.Map.Start = CutHi;
    } else if (CutHi == R.Map.End) { // trim the tail
      R.Entries.erase(Entry(CutLo), R.Entries.end());
      R.Map.End = CutLo;
    } else { // punch a hole: the pages above it become a mapping of their own
      Region Tail;
      Tail.Map = R.Map;
      Tail.Map.Start = CutHi;
      Tail.Source = R.Source;
      Tail.SourceFirst = R.SourceFirst + (CutHi - R.Map.Start) / PageSize;
      Tail.Entries.assign(std::make_move_iterator(Entry(CutHi)),
                          std::make_move_iterator(R.Entries.end()));
      R.Entries.erase(Entry(CutLo), R.Entries.end());
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
      PageEntry &E = R.Entries[(Addr - R.Map.Start) / PageSize];
      if (E.Prot != Prot) {
        E.Prot = Prot;
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
  // entry arrays hold a reference to every materialized page (so
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
    Region *R = OnFault ? nullptr
                        : const_cast<Region *>(findRegion(PageNum, Index));
    PageEntry *E = R ? &R->Entries[Index] : nullptr;
    if (E && !R->Source && (E->Prot & ProtWrite) &&
        (!E->Phys || E->Phys == zeroPage())) {
      // A page already on the zero page holds these bytes: the snapshot
      // shares it, or its first fill after takeSnapshot() made it dirty.
      if (!E->Phys) {
        E->Phys = zeroPage();
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

AddressSpace AddressSpace::forkClone() const {
  AddressSpace Child;
  Child.Regions = Regions; // shares PhysicalPage refs -> CoW on either side
  return Child;
}

uint64_t AddressSpace::mappedPageCount() const {
  uint64_t Pages = 0;
  for (const Region &R : Regions)
    Pages += R.Entries.size();
  return Pages;
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
  Held.reserve(R.Entries.size());
  for (const PageEntry &E : R.Entries)
    Held.push_back(E.Phys);
  return std::make_shared<HeldPages>(std::move(Held), R.Source,
                                     R.SourceFirst);
}

void AddressSpace::takeSnapshot() {
  // Bumps every materialized page to shared; assigning over the arrays of
  // an earlier snapshot reuses their storage.
  SnapshotPages.resize(Regions.size());
  for (size_t I = 0; I != Regions.size(); ++I)
    SnapshotPages[I] = Regions[I].Entries;
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
    if (Pos >= SnapshotPages.size() || Pos == Regions.size()) {
      // Unreachable while StructuralChange tracking is sound; degrade to
      // "snapshot invalid" rather than half-restoring silently.
      StructuralChange = true;
      return -1;
    }
    Region &R = Regions[Pos];
    uint64_t Index = (Addr - R.Map.Start) / PageSize;
    R.Entries[Index] = SnapshotPages[Pos][Index]; // re-share, re-arm Prot
    ++Reverted;
  }
  Dirty.clear();
  invalidateTranslations();
  ++Stats.SnapshotResets;
  Stats.PagesReverted += static_cast<uint64_t>(Reverted);
  return Reverted;
}

void AddressSpace::dropSnapshot() {
  SnapshotPages.clear();
  Dirty.clear();
  SnapshotArmed = false;
  StructuralChange = false;
}
