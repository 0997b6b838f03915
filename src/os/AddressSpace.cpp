//===- os/AddressSpace.cpp - Simulated per-process virtual memory --------===//

#include "os/AddressSpace.h"

#include <algorithm>
#include <cassert>

using namespace ropt;
using namespace ropt::os;

const char *os::mappingKindName(MappingKind Kind) {
  switch (Kind) {
  case MappingKind::Code:
    return "code";
  case MappingKind::Data:
    return "data";
  case MappingKind::Heap:
    return "heap";
  case MappingKind::Stack:
    return "stack";
  case MappingKind::RuntimeImage:
    return "runtime-image";
  case MappingKind::FileMapped:
    return "file";
  case MappingKind::Anonymous:
    return "anon";
  }
  return "unknown";
}

void AddressSpace::mapRegion(uint64_t Start, uint64_t Size, uint8_t Prot,
                             MappingKind Kind, const std::string &Name) {
  assert(Size > 0 && "empty mapping");
  mapPages(Start, roundUpToPage(Size) / PageSize, Prot, nullptr, Kind, Name);
}

void AddressSpace::mapShared(uint64_t Start,
                             const std::vector<PhysPageRef> &Backing,
                             uint8_t Prot, MappingKind Kind,
                             const std::string &Name) {
  assert(!Backing.empty() && "empty mapping");
  mapPages(Start, Backing.size(), Prot, Backing.data(), Kind, Name);
}

void AddressSpace::mapPages(uint64_t Start, uint64_t NumPages, uint8_t Prot,
                            const PhysPageRef *Backing, MappingKind Kind,
                            const std::string &Name) {
  assert(Start == pageBase(Start) && "mapping start must be page aligned");
  uint64_t FirstPage = pageNumber(Start);
  for (uint64_t I = 0; I != NumPages; ++I) {
    assert(Pages.count(FirstPage + I) == 0 &&
           "mapping overlaps existing pages");
    PageEntry Entry;
    // Without backing the page materializes lazily on first write; shared
    // backing is copied by ensurePrivate on the first write while anyone
    // else still holds the page.
    if (Backing) {
      assert(Backing[I] && "shared backing page is null");
      Entry.Phys = Backing[I];
    }
    Entry.Prot = Prot;
    Pages.emplace(FirstPage + I, std::move(Entry));
  }
  uint64_t Bytes = NumPages * PageSize;
  Mapping M;
  M.Start = Start;
  M.End = Start + Bytes;
  M.Kind = Kind;
  M.Name = Name;
  auto Pos = std::lower_bound(
      Mappings.begin(), Mappings.end(), M,
      [](const Mapping &A, const Mapping &B) { return A.Start < B.Start; });
  Mappings.insert(Pos, std::move(M));
  invalidateTranslations();
  if (SnapshotArmed)
    StructuralChange = true; // the snapshot no longer describes this space
}

void AddressSpace::unmapRegion(uint64_t Start, uint64_t Size) {
  uint64_t Bytes = roundUpToPage(Size);
  uint64_t FirstPage = pageNumber(Start);
  uint64_t NumPages = Bytes / PageSize;
  for (uint64_t P = FirstPage; P != FirstPage + NumPages; ++P)
    Pages.erase(P);
  uint64_t End = Start + Bytes;
  for (auto It = Mappings.begin(); It != Mappings.end();) {
    if (It->Start >= Start && It->End <= End) {
      It = Mappings.erase(It);
      continue;
    }
    // Partial overlap: shrink the bookkeeping range.
    if (It->contains(Start) && It->End > End)
      It->End = Start; // conservative: drop the tail record
    else if (Start <= It->Start && It->contains(End - 1))
      It->Start = End;
    ++It;
  }
  invalidateTranslations();
  if (SnapshotArmed)
    StructuralChange = true;
}

void AddressSpace::protectRange(uint64_t Start, uint64_t Size, uint8_t Prot) {
  ++Stats.ProtectCalls;
  uint64_t Bytes = roundUpToPage(Size);
  uint64_t FirstPage = pageNumber(Start);
  uint64_t NumPages = Bytes / PageSize;
  for (uint64_t P = FirstPage; P != FirstPage + NumPages; ++P) {
    auto It = Pages.find(P);
    if (It == Pages.end())
      continue;
    if (It->second.Prot != Prot) {
      It->second.Prot = Prot;
      ++Stats.PagesProtected;
      if (SnapshotArmed)
        Dirty.insert(P); // reset must re-arm the snapshot protection
    }
  }
}

uint8_t AddressSpace::protectionOf(uint64_t Addr) const {
  auto It = Pages.find(pageNumber(Addr));
  return It == Pages.end() ? static_cast<uint8_t>(ProtNone) : It->second.Prot;
}

std::vector<Mapping> AddressSpace::procMaps() {
  ++Stats.MapsEnumerations;
  return Mappings;
}

const Mapping *AddressSpace::findMapping(uint64_t Addr) const {
  for (const Mapping &M : Mappings)
    if (M.contains(Addr))
      return &M;
  return nullptr;
}

void AddressSpace::ensurePrivate(uint64_t PageNum, PageEntry &Entry) {
  // Every first write after takeSnapshot() lands here: the snapshot's
  // page-table copy holds a reference to every materialized page (so
  // use_count > 1), and lazy-zero pages have no backing yet. A private
  // materialized page can only mean the dirty set already has this page.
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
    auto It = Pages.find(PageNum);
    if (It == Pages.end()) {
      Result = AccessResult::Unmapped;
      return 0;
    }
    Entry = &It->second;
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
    std::memset(Buf, 0, Chunk); // untouched page reads as zeros
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

bool AddressSpace::peek(uint64_t Addr, void *Out, uint64_t Size) const {
  uint8_t *Buf = static_cast<uint8_t *>(Out);
  while (Size > 0) {
    auto It = Pages.find(pageNumber(Addr));
    if (It == Pages.end())
      return false;
    uint64_t Offset = Addr - pageBase(Addr);
    uint64_t Chunk = std::min(Size, PageSize - Offset);
    if (It->second.Phys)
      std::memcpy(Buf, It->second.Phys->Data.data() + Offset, Chunk);
    else
      std::memset(Buf, 0, Chunk);
    Addr += Chunk;
    Buf += Chunk;
    Size -= Chunk;
  }
  return true;
}

bool AddressSpace::poke(uint64_t Addr, const void *Data, uint64_t Size) {
  const uint8_t *Buf = static_cast<const uint8_t *>(Data);
  while (Size > 0) {
    uint64_t PageNum = pageNumber(Addr);
    auto It = Pages.find(PageNum);
    if (It == Pages.end())
      return false;
    ensurePrivate(PageNum, It->second);
    uint64_t Offset = Addr - pageBase(Addr);
    uint64_t Chunk = std::min(Size, PageSize - Offset);
    std::memcpy(It->second.Phys->Data.data() + Offset, Buf, Chunk);
    Addr += Chunk;
    Buf += Chunk;
    Size -= Chunk;
  }
  return true;
}

AddressSpace AddressSpace::forkClone() const {
  AddressSpace Child;
  Child.Pages = Pages; // shares PhysicalPage refs -> CoW on either side
  Child.Mappings = Mappings;
  return Child;
}

PhysPageRef AddressSpace::physicalPage(uint64_t Addr) const {
  auto It = Pages.find(pageNumber(Addr));
  return It == Pages.end() ? nullptr : It->second.Phys;
}

void AddressSpace::takeSnapshot() {
  SnapshotPages = Pages; // bumps every materialized page to shared
  Dirty.clear();
  SnapshotArmed = true;
  StructuralChange = false;
  ++Stats.SnapshotsTaken;
}

int64_t AddressSpace::resetToSnapshot() {
  if (!SnapshotArmed || StructuralChange)
    return -1;
  int64_t Reverted = 0;
  for (uint64_t P : Dirty) {
    auto It = Pages.find(P);
    auto SIt = SnapshotPages.find(P);
    if (It == Pages.end() || SIt == SnapshotPages.end()) {
      // Unreachable while StructuralChange tracking is sound; degrade to
      // "snapshot invalid" rather than half-restoring silently.
      StructuralChange = true;
      return -1;
    }
    It->second = SIt->second; // re-share the snapshot page, re-arm Prot
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
