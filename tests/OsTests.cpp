//===- tests/OsTests.cpp - os/ unit tests ----------------------------------===//

#include "os/AddressSpace.h"
#include "os/CostModel.h"
#include "os/Kernel.h"

#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

using namespace ropt;
using namespace ropt::os;

namespace {

constexpr uint64_t Base = 0x10000;

AddressSpace makeSpace(uint64_t Pages = 4,
                       uint8_t Prot = ProtRead | ProtWrite) {
  AddressSpace Space;
  Space.mapRegion(Base, Pages * PageSize, Prot, MappingKind::Heap, "heap");
  return Space;
}

/// A page source over pages that already exist.
class VectorPageSource final : public PageSource {
public:
  explicit VectorPageSource(std::vector<PhysPageRef> Pages)
      : PageSource(Pages.size()), Pages(std::move(Pages)) {}
  const PhysPageRef &page(uint64_t I) const override { return Pages.at(I); }

private:
  std::vector<PhysPageRef> Pages;
};

/// \p Count fresh pages, page K holding K + 1 in its first word.
std::shared_ptr<const PageSource> numberedPages(uint64_t Count) {
  std::vector<PhysPageRef> Pages;
  for (uint64_t K = 0; K != Count; ++K) {
    auto Page = std::make_shared<PhysicalPage>();
    uint64_t Word = K + 1;
    std::memcpy(Page->Data.data(), &Word, sizeof(Word));
    Pages.push_back(std::move(Page));
  }
  return std::make_shared<VectorPageSource>(std::move(Pages));
}

} // namespace

// --- Page math ----------------------------------------------------------------

TEST(Memory, PageMath) {
  EXPECT_EQ(pageBase(0x12345), 0x12000u);
  EXPECT_EQ(pageNumber(0x12345), 0x12u);
  EXPECT_EQ(roundUpToPage(1), PageSize);
  EXPECT_EQ(roundUpToPage(PageSize), PageSize);
  EXPECT_EQ(roundUpToPage(PageSize + 1), 2 * PageSize);
  EXPECT_EQ(roundUpToPage(0), 0u);
}

// --- AddressSpace basics -------------------------------------------------------

TEST(AddressSpace, ReadWriteRoundTrip) {
  AddressSpace Space = makeSpace();
  uint64_t Value = 0x1122334455667788ULL;
  EXPECT_EQ(Space.storeU64(Base + 16, Value), AccessResult::Ok);
  uint64_t Out = 0;
  EXPECT_EQ(Space.loadU64(Base + 16, Out), AccessResult::Ok);
  EXPECT_EQ(Out, Value);
}

TEST(AddressSpace, CrossPageAccess) {
  AddressSpace Space = makeSpace();
  uint64_t Addr = Base + PageSize - 4; // straddles two pages
  uint64_t Value = 0xa5a5a5a5f0f0f0f0ULL;
  EXPECT_EQ(Space.storeU64(Addr, Value), AccessResult::Ok);
  uint64_t Out = 0;
  EXPECT_EQ(Space.loadU64(Addr, Out), AccessResult::Ok);
  EXPECT_EQ(Out, Value);
}

TEST(AddressSpace, UnmappedAccessFails) {
  AddressSpace Space = makeSpace();
  uint64_t Out;
  EXPECT_EQ(Space.loadU64(0x999000, Out), AccessResult::Unmapped);
  EXPECT_EQ(Space.storeU64(0x999000, 1), AccessResult::Unmapped);
}

TEST(AddressSpace, FreshPagesZeroed) {
  AddressSpace Space = makeSpace();
  uint64_t Out = 1;
  EXPECT_EQ(Space.loadU64(Base, Out), AccessResult::Ok);
  EXPECT_EQ(Out, 0u);
}

TEST(AddressSpace, UnmapRemovesPages) {
  AddressSpace Space = makeSpace(4);
  Space.unmapRegion(Base, 4 * PageSize);
  EXPECT_FALSE(Space.isMapped(Base));
  EXPECT_EQ(Space.mappedPageCount(), 0u);
  EXPECT_TRUE(Space.procMaps().empty());
}

TEST(AddressSpace, MappingLookup) {
  AddressSpace Space = makeSpace(2);
  const Mapping *M = Space.findMapping(Base + 100);
  ASSERT_NE(M, nullptr);
  EXPECT_EQ(M->Name, "heap");
  EXPECT_EQ(M->pageCount(), 2u);
  EXPECT_EQ(Space.findMapping(0x999000), nullptr);
}

TEST(AddressSpace, ProcMapsSortedAndCounted) {
  AddressSpace Space;
  Space.mapRegion(0x30000, PageSize, ProtRead, MappingKind::Code, "code");
  Space.mapRegion(0x10000, PageSize, ProtRead, MappingKind::Data, "data");
  auto Maps = Space.procMaps();
  ASSERT_EQ(Maps.size(), 2u);
  EXPECT_LT(Maps[0].Start, Maps[1].Start);
  EXPECT_EQ(Space.stats().MapsEnumerations, 1u);
}

// --- Protection and faults ----------------------------------------------------

TEST(AddressSpace, ReadProtectionFaultsWithoutHandler) {
  AddressSpace Space = makeSpace(1, ProtNone);
  uint64_t Out;
  EXPECT_EQ(Space.loadU64(Base, Out), AccessResult::Violation);
  EXPECT_EQ(Space.stats().ReadFaults, 1u);
}

TEST(AddressSpace, WriteProtectionFaults) {
  AddressSpace Space = makeSpace(1, ProtRead);
  EXPECT_EQ(Space.storeU64(Base, 5), AccessResult::Violation);
  EXPECT_EQ(Space.stats().WriteFaults, 1u);
  uint64_t Out;
  EXPECT_EQ(Space.loadU64(Base, Out), AccessResult::Ok);
}

TEST(AddressSpace, FaultHandlerCanFixUp) {
  AddressSpace Space = makeSpace(2, ProtNone);
  std::vector<uint64_t> Faulted;
  Space.setFaultHandler([&](uint64_t Addr, bool IsWrite) {
    Faulted.push_back(pageBase(Addr));
    EXPECT_FALSE(IsWrite);
    Space.protectRange(pageBase(Addr), PageSize, ProtRead | ProtWrite);
    return true;
  });
  uint64_t Out;
  EXPECT_EQ(Space.loadU64(Base + 8, Out), AccessResult::Ok);
  // Second access to the same page: no further fault.
  EXPECT_EQ(Space.loadU64(Base + 64, Out), AccessResult::Ok);
  ASSERT_EQ(Faulted.size(), 1u);
  EXPECT_EQ(Faulted[0], Base);
  EXPECT_EQ(Space.stats().ReadFaults, 1u);
}

TEST(AddressSpace, HandlerThatDoesNotFixYieldsViolation) {
  AddressSpace Space = makeSpace(1, ProtNone);
  Space.setFaultHandler([](uint64_t, bool) { return true; });
  uint64_t Out;
  EXPECT_EQ(Space.loadU64(Base, Out), AccessResult::Violation);
}

TEST(AddressSpace, ProtectRangeCountsPages) {
  AddressSpace Space = makeSpace(8);
  Space.resetStats();
  Space.protectRange(Base, 8 * PageSize, ProtNone);
  EXPECT_EQ(Space.stats().ProtectCalls, 1u);
  EXPECT_EQ(Space.stats().PagesProtected, 8u);
  // Re-protecting with the same protection changes nothing.
  Space.protectRange(Base, 8 * PageSize, ProtNone);
  EXPECT_EQ(Space.stats().ProtectCalls, 2u);
  EXPECT_EQ(Space.stats().PagesProtected, 8u);
}

TEST(AddressSpace, PeekPokeIgnoreProtection) {
  AddressSpace Space = makeSpace(1, ProtNone);
  uint64_t V = 77;
  EXPECT_TRUE(Space.poke(Base, &V, sizeof(V)));
  uint64_t Out = 0;
  EXPECT_TRUE(Space.peek(Base, &Out, sizeof(Out)));
  EXPECT_EQ(Out, 77u);
  EXPECT_EQ(Space.stats().ReadFaults, 0u);
  EXPECT_FALSE(Space.peek(0x999000, &Out, sizeof(Out)));
}

// --- Fork and Copy-on-Write -----------------------------------------------------

TEST(Fork, ChildSeesParentState) {
  Kernel K;
  Process &Parent = K.spawn();
  Parent.space().mapRegion(Base, 2 * PageSize, ProtRead | ProtWrite,
                           MappingKind::Heap, "heap");
  ASSERT_EQ(Parent.space().storeU64(Base, 123), AccessResult::Ok);
  Process &Child = K.fork(Parent);
  uint64_t Out = 0;
  EXPECT_EQ(Child.space().loadU64(Base, Out), AccessResult::Ok);
  EXPECT_EQ(Out, 123u);
  EXPECT_EQ(Child.parentPid(), Parent.pid());
}

TEST(Fork, CowIsolatesParentWrites) {
  Kernel K;
  Process &Parent = K.spawn();
  Parent.space().mapRegion(Base, PageSize, ProtRead | ProtWrite,
                           MappingKind::Heap, "heap");
  ASSERT_EQ(Parent.space().storeU64(Base, 1), AccessResult::Ok);
  Process &Child = K.fork(Parent);

  // Parent overwrites after the fork; the child must keep the original.
  ASSERT_EQ(Parent.space().storeU64(Base, 2), AccessResult::Ok);
  uint64_t ChildSees = 0, ParentSees = 0;
  EXPECT_EQ(Child.space().loadU64(Base, ChildSees), AccessResult::Ok);
  EXPECT_EQ(Parent.space().loadU64(Base, ParentSees), AccessResult::Ok);
  EXPECT_EQ(ChildSees, 1u);
  EXPECT_EQ(ParentSees, 2u);
  EXPECT_EQ(Parent.space().stats().CowCopies, 1u);
}

TEST(Fork, CowCopiesOncePerPage) {
  Kernel K;
  Process &Parent = K.spawn();
  Parent.space().mapRegion(Base, 4 * PageSize, ProtRead | ProtWrite,
                           MappingKind::Heap, "heap");
  // Materialize the page pre-fork so the fork actually shares it (a write
  // to a never-touched page after fork is a zero-fill, not a CoW copy).
  ASSERT_EQ(Parent.space().storeU64(Base, 7), AccessResult::Ok);
  K.fork(Parent);
  Parent.space().resetStats();
  for (int I = 0; I != 100; ++I)
    ASSERT_EQ(Parent.space().storeU64(Base + 8 * I, I), AccessResult::Ok);
  // 100 stores into one shared page: exactly one CoW copy.
  EXPECT_EQ(Parent.space().stats().CowCopies, 1u);
}

TEST(Fork, ChildWritesDoNotDisturbParent) {
  Kernel K;
  Process &Parent = K.spawn();
  Parent.space().mapRegion(Base, PageSize, ProtRead | ProtWrite,
                           MappingKind::Heap, "heap");
  ASSERT_EQ(Parent.space().storeU64(Base, 10), AccessResult::Ok);
  Process &Child = K.fork(Parent);
  ASSERT_EQ(Child.space().storeU64(Base, 99), AccessResult::Ok);
  uint64_t ParentSees = 0;
  EXPECT_EQ(Parent.space().loadU64(Base, ParentSees), AccessResult::Ok);
  EXPECT_EQ(ParentSees, 10u);
}

TEST(Fork, ReapKeepsSharedPagesAlive) {
  Kernel K;
  Process &Parent = K.spawn();
  Parent.space().mapRegion(Base, PageSize, ProtRead | ProtWrite,
                           MappingKind::Heap, "heap");
  ASSERT_EQ(Parent.space().storeU64(Base, 5), AccessResult::Ok);
  Process &Child = K.fork(Parent);
  Pid ParentId = Parent.pid();
  K.reap(ParentId);
  EXPECT_EQ(K.find(ParentId), nullptr);
  uint64_t Out = 0;
  EXPECT_EQ(Child.space().loadU64(Base, Out), AccessResult::Ok);
  EXPECT_EQ(Out, 5u);
}

TEST(Fork, PriorityAndSleep) {
  Kernel K;
  Process &P = K.spawn();
  Process &C = K.fork(P);
  C.setPriority(Priority::Lowest);
  C.sleep();
  EXPECT_EQ(C.priority(), Priority::Lowest);
  EXPECT_TRUE(C.isAsleep());
  C.wake();
  EXPECT_FALSE(C.isAsleep());
  EXPECT_EQ(K.forkCount(), 1u);
}

// --- Storage -----------------------------------------------------------------

TEST(Storage, WriteRead) {
  StorageDevice Disk;
  Disk.writeFile("a", {1, 2, 3});
  ASSERT_NE(Disk.readFile("a"), nullptr);
  EXPECT_EQ(Disk.readFile("a")->size(), 3u);
  EXPECT_EQ(Disk.readFile("missing"), nullptr);
}

TEST(Storage, AccountsBytes) {
  StorageDevice Disk;
  Disk.writeFile("a", std::vector<uint8_t>(100));
  Disk.writeFile("b", std::vector<uint8_t>(50));
  EXPECT_EQ(Disk.totalBytesStored(), 150u);
  Disk.writeFile("a", std::vector<uint8_t>(10)); // replace
  EXPECT_EQ(Disk.totalBytesStored(), 60u);
  EXPECT_EQ(Disk.lifetimeBytesWritten(), 160u);
}

TEST(Storage, PageBackedFilesKeepTheirContent) {
  AddressSpace Space;
  Space.mapRegion(0x10000, 2 * PageSize, ProtRead | ProtWrite,
                  MappingKind::Anonymous, "buf");
  uint64_t Word = 0x1234;
  ASSERT_EQ(Space.storeU64(0x10000, Word), AccessResult::Ok);
  StorageDevice Disk;
  // Page one is materialized, page two is an untouched zero page.
  Disk.writePages("image", std::make_shared<VectorPageSource>(
                               std::vector<PhysPageRef>{
                                   Space.physicalPage(0x10000),
                                   Space.physicalPage(0x10000 + PageSize)}));
  EXPECT_EQ(Disk.totalBytesStored(), 2 * PageSize);
  EXPECT_EQ(Disk.lifetimeBytesWritten(), 2 * PageSize);

  // The writer copies the shared page; the file keeps the old bytes.
  ASSERT_EQ(Space.storeU64(0x10000, 0x5678), AccessResult::Ok);
  ASSERT_EQ(Space.storeU64(0x10000 + PageSize, 0x9abc), AccessResult::Ok);
  const std::vector<uint8_t> *Bytes = Disk.readFile("image");
  ASSERT_NE(Bytes, nullptr);
  ASSERT_EQ(Bytes->size(), 2 * PageSize);
  uint64_t First = 0, Second = 0;
  std::memcpy(&First, Bytes->data(), sizeof(First));
  std::memcpy(&Second, Bytes->data() + PageSize, sizeof(Second));
  EXPECT_EQ(First, 0x1234u);
  EXPECT_EQ(Second, 0u);
  EXPECT_EQ(Disk.totalBytesStored(), 2 * PageSize);
}

// A spooled mapping keeps the bytes the space held when it was stored —
// its private copy of a page, the source's page elsewhere — without
// fetching a page the space never touched.
TEST(Storage, MappingPagesKeepTheSpacesBytes) {
  std::shared_ptr<const PageSource> Source = numberedPages(4);
  AddressSpace Space;
  Space.mapShared(Base, Source, ProtRead | ProtWrite, MappingKind::RuntimeImage,
                  "boot.art");
  uint64_t Word = 0;
  ASSERT_EQ(Space.loadU64(Base + PageSize, Word), AccessResult::Ok);
  EXPECT_EQ(Word, 2u);
  uint64_t Poked = 0x77;
  ASSERT_TRUE(Space.poke(Base + 2 * PageSize, &Poked, sizeof(Poked)));
  EXPECT_EQ(Source->page(3).use_count(), 1); // never fetched

  StorageDevice Disk;
  Disk.writePages("image", Space.mappingPages(Base + 3 * PageSize));
  EXPECT_EQ(Source->page(3).use_count(), 1);
  EXPECT_EQ(Disk.lifetimeBytesWritten(), 4 * PageSize);
  EXPECT_EQ(Space.mappingPages(Base + 4 * PageSize), nullptr);

  // Later writes copy the pages the file holds instead of changing them.
  for (uint64_t K = 0; K != 4; ++K)
    ASSERT_EQ(Space.storeU64(Base + K * PageSize, 0xdead), AccessResult::Ok);
  const std::vector<uint8_t> *Bytes = Disk.readFile("image");
  ASSERT_NE(Bytes, nullptr);
  ASSERT_EQ(Bytes->size(), 4 * PageSize);
  for (uint64_t K = 0; K != 4; ++K) {
    std::memcpy(&Word, Bytes->data() + K * PageSize, sizeof(Word));
    EXPECT_EQ(Word, K == 2 ? Poked : K + 1) << "page " << K;
  }
}

// --- Cost model ---------------------------------------------------------------

TEST(CostModel, MonotoneInEventCounts) {
  KernelCostModel Model;
  EXPECT_GT(Model.forkCostUs(10000), Model.forkCostUs(100));
  EXPECT_GT(Model.preparationCostUs(500, 500, 20000),
            Model.preparationCostUs(50, 50, 2000));
  EXPECT_GT(Model.faultAndCowCostUs(100, 100),
            Model.faultAndCowCostUs(10, 10));
  EXPECT_DOUBLE_EQ(Model.faultAndCowCostUs(0, 0), 0.0);
}

TEST(CostModel, ForkLandsInPaperBand) {
  KernelCostModel Model;
  // A process with a few thousand mapped pages forks in ~1-6 ms.
  double SmallUs = Model.forkCostUs(500);
  double LargeUs = Model.forkCostUs(10000);
  EXPECT_GT(SmallUs, 800.0);
  EXPECT_LT(LargeUs, 7000.0);
}

// --- Snapshots (replay fork-server support) ----------------------------------

TEST(Snapshot, ResetRevertsExactlyTheDirtyPages) {
  AddressSpace Space = makeSpace(8);
  uint64_t A = 0x1111, B = 0x2222;
  ASSERT_EQ(Space.write(Base, &A, 8), AccessResult::Ok);
  ASSERT_EQ(Space.write(Base + PageSize, &B, 8), AccessResult::Ok);

  Space.takeSnapshot();
  EXPECT_TRUE(Space.hasValidSnapshot());
  EXPECT_EQ(Space.dirtyPageCount(), 0u);

  // Dirty two of the eight pages.
  uint64_t X = 0xdead;
  ASSERT_EQ(Space.write(Base, &X, 8), AccessResult::Ok);
  ASSERT_EQ(Space.write(Base + 3 * PageSize, &X, 8), AccessResult::Ok);
  EXPECT_EQ(Space.dirtyPageCount(), 2u);

  int64_t Reverted = Space.resetToSnapshot();
  EXPECT_EQ(Reverted, 2);
  EXPECT_EQ(Space.dirtyPageCount(), 0u);

  // Snapshot content is back; the snapshot survives for the next round.
  uint64_t V = 0;
  ASSERT_EQ(Space.read(Base, &V, 8), AccessResult::Ok);
  EXPECT_EQ(V, 0x1111u);
  ASSERT_EQ(Space.read(Base + PageSize, &V, 8), AccessResult::Ok);
  EXPECT_EQ(V, 0x2222u);
  ASSERT_EQ(Space.read(Base + 3 * PageSize, &V, 8), AccessResult::Ok);
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(Space.hasValidSnapshot());

  EXPECT_EQ(Space.stats().SnapshotsTaken, 1u);
  EXPECT_EQ(Space.stats().SnapshotResets, 1u);
  EXPECT_EQ(Space.stats().PagesReverted, 2u);
}

TEST(Snapshot, RepeatedResetCyclesAreStable) {
  AddressSpace Space = makeSpace(4);
  uint64_t Init = 7;
  ASSERT_EQ(Space.write(Base, &Init, 8), AccessResult::Ok);
  Space.takeSnapshot();

  for (int Round = 0; Round != 5; ++Round) {
    uint64_t V = 0;
    ASSERT_EQ(Space.read(Base, &V, 8), AccessResult::Ok);
    ASSERT_EQ(V, 7u) << "round " << Round;
    uint64_t X = 100 + Round;
    ASSERT_EQ(Space.write(Base, &X, 8), AccessResult::Ok);
    EXPECT_EQ(Space.resetToSnapshot(), 1);
  }
  EXPECT_EQ(Space.stats().PagesReverted, 5u);
}

TEST(Snapshot, ResetRearmsProtections) {
  AddressSpace Space = makeSpace(2);
  Space.takeSnapshot();
  // A capture-style protect pass after the snapshot is dirtying too:
  // reset must restore the snapshot's protections, not just content.
  Space.protectRange(Base, PageSize, ProtRead);
  EXPECT_EQ(Space.protectionOf(Base), ProtRead);
  EXPECT_GE(Space.resetToSnapshot(), 1);
  EXPECT_EQ(Space.protectionOf(Base), ProtRead | ProtWrite);
}

TEST(Snapshot, StructuralChangeInvalidates) {
  AddressSpace Space = makeSpace(4);
  Space.takeSnapshot();
  Space.mapRegion(Base + 0x100000, PageSize, ProtRead | ProtWrite,
                  MappingKind::Anonymous, "late");
  EXPECT_FALSE(Space.hasValidSnapshot());
  EXPECT_EQ(Space.resetToSnapshot(), -1);
}

TEST(Snapshot, UnmapAlsoInvalidates) {
  AddressSpace Space = makeSpace(4);
  Space.takeSnapshot();
  Space.unmapRegion(Base + 2 * PageSize, PageSize);
  EXPECT_FALSE(Space.hasValidSnapshot());
  EXPECT_EQ(Space.resetToSnapshot(), -1);
}

TEST(Snapshot, NoSnapshotMeansNoReset) {
  AddressSpace Space = makeSpace(2);
  EXPECT_FALSE(Space.hasValidSnapshot());
  EXPECT_EQ(Space.resetToSnapshot(), -1);
}

TEST(Snapshot, DropSnapshotForgetsRestorePoint) {
  AddressSpace Space = makeSpace(2);
  Space.takeSnapshot();
  uint64_t X = 1;
  ASSERT_EQ(Space.write(Base, &X, 8), AccessResult::Ok);
  Space.dropSnapshot();
  EXPECT_FALSE(Space.hasValidSnapshot());
  EXPECT_EQ(Space.dirtyPageCount(), 0u);
  // Content written after the drop is simply kept.
  uint64_t V = 0;
  ASSERT_EQ(Space.read(Base, &V, 8), AccessResult::Ok);
  EXPECT_EQ(V, 1u);
}

TEST(Snapshot, ForkCloneStartsWithoutSnapshot) {
  AddressSpace Space = makeSpace(2);
  Space.takeSnapshot();
  AddressSpace Clone = Space.forkClone();
  EXPECT_FALSE(Clone.hasValidSnapshot());
  EXPECT_TRUE(Space.hasValidSnapshot());
  // Writes in the clone never dirty the parent's snapshot accounting.
  uint64_t X = 9;
  ASSERT_EQ(Clone.write(Base, &X, 8), AccessResult::Ok);
  EXPECT_EQ(Space.dirtyPageCount(), 0u);
  EXPECT_GE(Space.resetToSnapshot(), 0);
}

TEST(Snapshot, PokeIsDirtyTrackedToo) {
  // Kernel-style writes (capture/verification tooling) must participate
  // in dirty tracking, or a reset would leak their effects into the next
  // replay.
  AddressSpace Space = makeSpace(2);
  uint64_t Init = 5;
  ASSERT_EQ(Space.write(Base, &Init, 8), AccessResult::Ok);
  Space.takeSnapshot();
  uint64_t X = 77;
  ASSERT_TRUE(Space.poke(Base, &X, 8));
  EXPECT_EQ(Space.dirtyPageCount(), 1u);
  EXPECT_EQ(Space.resetToSnapshot(), 1);
  uint64_t V = 0;
  ASSERT_EQ(Space.read(Base, &V, 8), AccessResult::Ok);
  EXPECT_EQ(V, 5u);
}

// --- Translation cache --------------------------------------------------------

TEST(TranslationCache, UnmapInvalidatesCachedEntries) {
  AddressSpace Space = makeSpace(4);
  uint64_t X = 1;
  // Populate the cache with hits on two pages.
  ASSERT_EQ(Space.write(Base, &X, 8), AccessResult::Ok);
  ASSERT_EQ(Space.write(Base + PageSize, &X, 8), AccessResult::Ok);
  ASSERT_EQ(Space.read(Base, &X, 8), AccessResult::Ok);

  Space.unmapRegion(Base, PageSize);
  // A stale cache entry would serve the unmapped page from its old
  // physical backing; the correct answer is Unmapped.
  uint64_t V = 0;
  EXPECT_EQ(Space.read(Base, &V, 8), AccessResult::Unmapped);
  EXPECT_EQ(Space.read(Base + PageSize, &V, 8), AccessResult::Ok);
}

TEST(TranslationCache, ProtectionChangeIsHonored) {
  AddressSpace Space = makeSpace(2);
  uint64_t X = 3;
  ASSERT_EQ(Space.write(Base, &X, 8), AccessResult::Ok); // cache the page
  Space.protectRange(Base, PageSize, ProtRead);
  // The cached translation must not bypass the new protection.
  EXPECT_EQ(Space.write(Base, &X, 8), AccessResult::Violation);
  uint64_t V = 0;
  EXPECT_EQ(Space.read(Base, &V, 8), AccessResult::Ok);
  EXPECT_EQ(V, 3u);
}

TEST(TranslationCache, PagesSharingASlotStayDistinct) {
  // The cache is direct-mapped on the low page-number bits: pages 64
  // apart evict each other's entry and must never be served each other's
  // bytes or protection.
  AddressSpace Space = makeSpace(129);
  const uint64_t Pages[] = {0, 64, 128};
  for (int Round = 0; Round != 3; ++Round)
    for (uint64_t P : Pages) {
      uint64_t X = P * 10 + Round;
      ASSERT_EQ(Space.write(Base + P * PageSize, &X, 8), AccessResult::Ok);
    }
  for (uint64_t P : Pages) {
    uint64_t V = 0;
    ASSERT_EQ(Space.read(Base + P * PageSize, &V, 8), AccessResult::Ok);
    EXPECT_EQ(V, P * 10 + 2);
  }
  Space.protectRange(Base + 64 * PageSize, PageSize, ProtRead);
  uint64_t X = 7;
  EXPECT_EQ(Space.write(Base, &X, 8), AccessResult::Ok);
  EXPECT_EQ(Space.write(Base + 64 * PageSize, &X, 8),
            AccessResult::Violation);
  EXPECT_EQ(Space.write(Base + 128 * PageSize, &X, 8), AccessResult::Ok);
}

TEST(PageBytes, ViewsBackingIgnoringProtection) {
  AddressSpace Space = makeSpace(3);
  uint64_t X = 0x1234;
  ASSERT_EQ(Space.write(Base + PageSize + 16, &X, 8), AccessResult::Ok);
  Space.protectRange(Base, 3 * PageSize, ProtNone);

  const uint8_t *Bytes = nullptr;
  ASSERT_TRUE(Space.pageBytes(Base + PageSize + 100, Bytes));
  ASSERT_NE(Bytes, nullptr);
  uint64_t V = 0;
  std::memcpy(&V, Bytes + 16, 8);
  EXPECT_EQ(V, 0x1234u);
  // An untouched page has no backing yet: it reads as zeros.
  ASSERT_TRUE(Space.pageBytes(Base, Bytes));
  EXPECT_EQ(Bytes, nullptr);
  EXPECT_FALSE(Space.pageBytes(Base + 3 * PageSize, Bytes));
}

// --- Holes and the reference model --------------------------------------------

TEST(AddressSpace, UnmapHoleKeepsBothHalves) {
  AddressSpace Space = makeSpace(8);
  uint64_t Head = 0x11, Tail = 0x77;
  ASSERT_EQ(Space.write(Base, &Head, 8), AccessResult::Ok);
  ASSERT_EQ(Space.write(Base + 7 * PageSize, &Tail, 8), AccessResult::Ok);

  Space.unmapRegion(Base + 2 * PageSize, 3 * PageSize);

  std::vector<Mapping> Maps = Space.procMaps();
  ASSERT_EQ(Maps.size(), 2u);
  EXPECT_EQ(Maps[0].Start, Base);
  EXPECT_EQ(Maps[0].End, Base + 2 * PageSize);
  EXPECT_EQ(Maps[1].Start, Base + 5 * PageSize);
  EXPECT_EQ(Maps[1].End, Base + 8 * PageSize);
  EXPECT_EQ(Maps[1].Name, "heap");
  EXPECT_EQ(Maps[1].Kind, MappingKind::Heap);

  const Mapping *M = Space.findMapping(Base + 6 * PageSize + 8);
  ASSERT_NE(M, nullptr);
  EXPECT_EQ(M->Start, Base + 5 * PageSize);
  EXPECT_EQ(Space.findMapping(Base + 3 * PageSize), nullptr);
  EXPECT_EQ(Space.mappedPageCount(), 5u);

  uint64_t V = 0;
  ASSERT_EQ(Space.read(Base, &V, 8), AccessResult::Ok);
  EXPECT_EQ(V, Head);
  ASSERT_EQ(Space.read(Base + 7 * PageSize, &V, 8), AccessResult::Ok);
  EXPECT_EQ(V, Tail);
  EXPECT_EQ(Space.read(Base + 2 * PageSize, &V, 8), AccessResult::Unmapped);
  EXPECT_EQ(Space.write(Base + 5 * PageSize, &V, 8), AccessResult::Ok);
}

namespace {

/// Physical pages of the reference model, named by id (0 is the lazy zero
/// page), with the reference count every holder (a space, a snapshot, a
/// page source) contributes. ZeroId is the shared zero page zeroFill
/// points at; AddressSpace::zeroPage() is its first holder.
struct RefStore {
  std::map<int, std::array<uint8_t, PageSize>> Bytes;
  std::map<int, long> Refs;
  int NextId = 1;
  const int ZeroId = make({});

  int make(const std::array<uint8_t, PageSize> &From) {
    int Id = NextId++;
    Bytes[Id] = From;
    Refs[Id] = 1;
    return Id;
  }
  void hold(int Id) {
    if (Id)
      ++Refs[Id];
  }
  void release(int Id) {
    if (Id && --Refs[Id] == 0) {
      Refs.erase(Id);
      Bytes.erase(Id);
    }
  }
};

struct RefPage {
  int Phys = 0;
  uint8_t Prot = ProtNone;
  /// False for a source page the space has not fetched: it names the page
  /// it reads but holds no reference to it.
  bool Fetched = true;
};

constexpr uint64_t ChunkPages = 64; ///< AddressSpace's page-table chunk.

/// How often the model took each branch of the chunked page table.
struct ChunkCounts {
  uint64_t ResetsFromAbsent = 0;  ///< Reverted pages the snapshot lacked.
  uint64_t ResetsFromPresent = 0; ///< Reverted pages the snapshot held.
  uint64_t Rechunks = 0;   ///< Unmap pieces re-chunked from mid-chunk.
  uint64_t OddMappings = 0; ///< Mappings of more than 64 pages, no multiple.
};

/// A naive AddressSpace: one std::map entry per page, every rule spelled
/// out page by page. Chunks names the first page of every page-table
/// chunk the space holds: a chunk appears when one of its entries first
/// changes, and an unmap re-chunks what stays of a mapping from its own
/// first page.
struct RefSpace {
  RefStore &Store;
  ChunkCounts &Counts;
  std::map<uint64_t, RefPage> Pages; ///< By page number.
  std::vector<Mapping> Maps;         ///< Sorted by start.
  std::set<uint64_t> Chunks;
  std::map<uint64_t, RefPage> Snap;
  std::set<uint64_t> SnapChunks;
  std::set<uint64_t> Dirty;
  bool Armed = false;
  bool Structural = false;
  MemoryStats Stats;
  int Handler = 0; ///< 0: none; 1: unprotects and retries; 2: only retries.
  uint64_t ZeroRefills = 0; ///< Pages zeroFill found on the zero page.

  RefSpace(RefStore &Store, ChunkCounts &Counts)
      : Store(Store), Counts(Counts) {}
  RefSpace(const RefSpace &) = delete;
  ~RefSpace() {
    for (auto &[P, Page] : Pages)
      release(Page);
    dropSnapshot();
  }

  void hold(const RefPage &Page) {
    if (Page.Fetched)
      Store.hold(Page.Phys);
  }
  void release(const RefPage &Page) {
    if (Page.Fetched)
      Store.release(Page.Phys);
  }
  /// First page of the chunk holding mapped page \p P.
  uint64_t chunkOf(uint64_t P) const {
    for (const Mapping &M : Maps)
      if (M.contains(P * PageSize)) {
        uint64_t First = pageNumber(M.Start);
        return First + (P - First) / ChunkPages * ChunkPages;
      }
    ADD_FAILURE() << "page " << P << " is unmapped";
    return 0;
  }
  /// Page \p P's entry changes: its chunk must be held.
  void touch(uint64_t P) { Chunks.insert(chunkOf(P)); }

  /// Installs page \p P's source page, if it has one not yet fetched.
  void fetch(uint64_t P) {
    touch(P);
    RefPage &Page = Pages.at(P);
    if (!Page.Fetched) {
      Page.Fetched = true;
      Store.hold(Page.Phys);
    }
  }

  std::unique_ptr<RefSpace> fork() const {
    auto Child = std::make_unique<RefSpace>(Store, Counts);
    Child->Pages = Pages;
    Child->Maps = Maps;
    Child->Chunks = Chunks;
    for (auto &[P, Page] : Pages)
      Child->hold(Page);
    return Child;
  }

  bool overlaps(uint64_t First, uint64_t Count) const {
    auto It = Pages.lower_bound(First);
    return It != Pages.end() && It->first < First + Count;
  }

  /// Maps one page per id of \p Source at \p First: a source page, or
  /// a lazy zero page for id 0. Nothing is fetched yet.
  void map(uint64_t First, const std::vector<int> &Source, uint8_t Prot,
           MappingKind Kind, const std::string &Name) {
    for (size_t I = 0; I != Source.size(); ++I)
      Pages[First + I] = {Source[I], Prot, /*Fetched=*/Source[I] == 0};
    Counts.OddMappings +=
        Source.size() > ChunkPages && Source.size() % ChunkPages != 0;
    Mapping M;
    M.Start = First * PageSize;
    M.End = (First + Source.size()) * PageSize;
    M.Kind = Kind;
    M.Name = Name;
    Maps.push_back(M);
    std::sort(Maps.begin(), Maps.end(),
              [](const Mapping &A, const Mapping &B) {
                return A.Start < B.Start;
              });
    Structural |= Armed;
  }

  /// Re-chunks [Lo, Hi), what stays of a mapping starting at page
  /// \p MapFirst, whose chunks were \p Old: a new chunk is held if an
  /// old one it draws pages from was.
  void rechunk(uint64_t MapFirst, const std::set<uint64_t> &Old,
               uint64_t Lo, uint64_t Hi) {
    bool MidChunk = (Lo - MapFirst) % ChunkPages != 0;
    for (uint64_t C = Lo; C < Hi; C += ChunkPages) {
      uint64_t End = std::min(C + ChunkPages, Hi);
      for (uint64_t K : Old)
        if (K < End && C < K + ChunkPages) {
          Chunks.insert(C);
          Counts.Rechunks += MidChunk;
          break;
        }
    }
  }

  void unmap(uint64_t First, uint64_t Count) {
    for (const Mapping &M : Maps) {
      uint64_t MapFirst = pageNumber(M.Start), MapEnd = pageNumber(M.End);
      if (MapEnd <= First || MapFirst >= First + Count)
        continue;
      std::set<uint64_t> Old(Chunks.lower_bound(MapFirst),
                             Chunks.lower_bound(MapEnd));
      for (uint64_t K : Old)
        Chunks.erase(K);
      if (MapFirst < First)
        rechunk(MapFirst, Old, MapFirst, First);
      if (MapEnd > First + Count)
        rechunk(MapFirst, Old, First + Count, MapEnd);
    }
    for (uint64_t P = First; P != First + Count; ++P) {
      auto It = Pages.find(P);
      if (It == Pages.end())
        continue;
      release(It->second);
      Pages.erase(It);
    }
    uint64_t Lo = First * PageSize, Hi = (First + Count) * PageSize;
    std::vector<Mapping> Kept;
    for (const Mapping &M : Maps) {
      if (M.End <= Lo || M.Start >= Hi) {
        Kept.push_back(M);
        continue;
      }
      if (M.Start < Lo) {
        Mapping Head = M;
        Head.End = Lo;
        Kept.push_back(Head);
      }
      if (M.End > Hi) {
        Mapping Tail = M;
        Tail.Start = Hi;
        Kept.push_back(Tail);
      }
    }
    Maps = std::move(Kept);
    Structural |= Armed;
  }

  void protect(uint64_t First, uint64_t Count, uint8_t Prot) {
    ++Stats.ProtectCalls;
    for (uint64_t P = First; P != First + Count; ++P) {
      auto It = Pages.find(P);
      if (It == Pages.end() || It->second.Prot == Prot)
        continue;
      touch(P);
      It->second.Prot = Prot;
      ++Stats.PagesProtected;
      if (Armed)
        Dirty.insert(P);
    }
  }

  void makePrivate(uint64_t P) {
    RefPage &Page = Pages.at(P);
    if (!Page.Phys) {
      Page.Phys = Store.make({});
    } else if (Store.Refs.at(Page.Phys) > 1) {
      int Copy = Store.make(Store.Bytes.at(Page.Phys));
      Store.release(Page.Phys);
      Page.Phys = Copy;
      ++Stats.CowCopies;
    } else {
      return;
    }
    if (Armed)
      Dirty.insert(P);
  }

  /// zeroFill: outside a capture window (no handler), a writable lazy
  /// zero page takes the shared zero page, and one already on it stays
  /// there untouched (counted in ZeroRefills); any other page is written.
  AccessResult zeroFill(uint64_t Addr, uint64_t Size, uint64_t &ZeroPages) {
    std::array<uint8_t, PageSize> Zeros{};
    while (Size > 0) {
      uint64_t P = pageNumber(Addr);
      uint64_t Chunk = std::min(Size, PageSize - (Addr - pageBase(Addr)));
      auto It = Pages.find(P);
      if (Handler == 0 && It != Pages.end() &&
          (It->second.Phys == 0 || It->second.Phys == Store.ZeroId) &&
          (It->second.Prot & ProtWrite)) {
        if (It->second.Phys == Store.ZeroId) {
          ++ZeroRefills;
        } else {
          touch(P);
          It->second.Phys = Store.ZeroId;
          Store.hold(Store.ZeroId);
          if (Armed)
            Dirty.insert(P);
        }
        ++ZeroPages;
      } else if (AccessResult Result = access(Addr, Zeros.data(), Chunk,
                                              /*IsWrite=*/true);
                 Result != AccessResult::Ok) {
        return Result;
      }
      Addr += Chunk;
      Size -= Chunk;
    }
    return AccessResult::Ok;
  }

  AccessResult access(uint64_t Addr, uint8_t *Buf, uint64_t Size,
                      bool IsWrite) {
    while (Size > 0) {
      uint64_t P = pageNumber(Addr);
      if (!Pages.count(P))
        return AccessResult::Unmapped;
      fetch(P); // before the protection check, as the translation fill
      uint8_t Needed = IsWrite ? ProtWrite : ProtRead;
      if (!(Pages[P].Prot & Needed)) {
        ++(IsWrite ? Stats.WriteFaults : Stats.ReadFaults);
        if (Handler == 1)
          protect(P, 1, ProtRead | ProtWrite);
        if (Handler == 0 || !(Pages[P].Prot & Needed))
          return AccessResult::Violation;
      }
      Size -= copy(Addr, Buf, Size, IsWrite);
    }
    return AccessResult::Ok;
  }

  bool peekPoke(uint64_t Addr, uint8_t *Buf, uint64_t Size, bool IsWrite) {
    while (Size > 0) {
      if (!Pages.count(pageNumber(Addr)))
        return false;
      Size -= copy(Addr, Buf, Size, IsWrite);
    }
    return true;
  }

  /// One page-bounded chunk; advances \p Addr and \p Buf.
  uint64_t copy(uint64_t &Addr, uint8_t *&Buf, uint64_t Size, bool IsWrite) {
    uint64_t P = pageNumber(Addr);
    uint64_t Offset = Addr - pageBase(Addr);
    uint64_t Chunk = std::min(Size, PageSize - Offset);
    if (IsWrite) {
      fetch(P);
      makePrivate(P);
      std::memcpy(Store.Bytes.at(Pages[P].Phys).data() + Offset, Buf, Chunk);
    } else if (Pages[P].Phys) {
      std::memcpy(Buf, Store.Bytes.at(Pages[P].Phys).data() + Offset, Chunk);
    } else {
      std::memset(Buf, 0, Chunk);
    }
    Addr += Chunk;
    Buf += Chunk;
    return Chunk;
  }

  /// sharePage: the space holds \p Id in place of whatever backed \p P.
  bool share(uint64_t P, int Id) {
    auto It = Pages.find(P);
    if (It == Pages.end())
      return false;
    touch(P);
    release(It->second);
    It->second.Phys = Id;
    It->second.Fetched = true;
    Store.hold(Id);
    if (Armed)
      Dirty.insert(P);
    return true;
  }

  void takeSnapshot() {
    dropSnapshot();
    Snap = Pages;
    SnapChunks = Chunks;
    for (auto &[P, Page] : Snap)
      hold(Page);
    Armed = true;
    ++Stats.SnapshotsTaken;
  }

  int64_t reset() {
    if (!Armed || Structural)
      return -1;
    for (uint64_t P : Dirty) {
      // Every change that dirties a page first made its chunk present.
      EXPECT_TRUE(Chunks.count(chunkOf(P))) << "page " << P;
      ++(SnapChunks.count(chunkOf(P)) ? Counts.ResetsFromPresent
                                      : Counts.ResetsFromAbsent);
      hold(Snap.at(P));
      release(Pages.at(P));
      Pages[P] = Snap.at(P);
    }
    int64_t Reverted = static_cast<int64_t>(Dirty.size());
    Dirty.clear();
    ++Stats.SnapshotResets;
    Stats.PagesReverted += static_cast<uint64_t>(Reverted);
    return Reverted;
  }

  void dropSnapshot() {
    for (auto &[P, Page] : Snap)
      release(Page);
    Snap.clear();
    SnapChunks.clear();
    Dirty.clear();
    Armed = Structural = false;
  }
};

constexpr uint64_t ModelFirstPage = pageNumber(Base);
constexpr uint64_t ModelPages = 200; ///< Window the sequences work in.

void expectSameStats(const MemoryStats &A, const MemoryStats &B) {
  EXPECT_EQ(A.ProtectCalls, B.ProtectCalls);
  EXPECT_EQ(A.PagesProtected, B.PagesProtected);
  EXPECT_EQ(A.ReadFaults, B.ReadFaults);
  EXPECT_EQ(A.WriteFaults, B.WriteFaults);
  EXPECT_EQ(A.CowCopies, B.CowCopies);
  EXPECT_EQ(A.MapsEnumerations, B.MapsEnumerations);
  EXPECT_EQ(A.SnapshotsTaken, B.SnapshotsTaken);
  EXPECT_EQ(A.SnapshotResets, B.SnapshotResets);
  EXPECT_EQ(A.PagesReverted, B.PagesReverted);
}

/// Compares everything \p Space exposes with \p Ref: layout, protections,
/// bytes, physical-page identity and reference counts, snapshot state and
/// every counter. \p Ids maps the model's page ids to the pages they name,
/// across every space of one sequence.
void expectMatches(AddressSpace &Space, RefSpace &Ref,
                   std::map<int, const PhysicalPage *> &Ids) {
  std::vector<Mapping> Maps = Space.procMaps();
  ++Ref.Stats.MapsEnumerations;
  ASSERT_EQ(Maps.size(), Ref.Maps.size());
  for (size_t I = 0; I != Maps.size(); ++I) {
    EXPECT_EQ(Maps[I].Start, Ref.Maps[I].Start);
    EXPECT_EQ(Maps[I].End, Ref.Maps[I].End);
    EXPECT_EQ(Maps[I].Kind, Ref.Maps[I].Kind);
    EXPECT_EQ(Maps[I].Name, Ref.Maps[I].Name);
    const Mapping *Found = Space.findMapping(Maps[I].End - 1);
    ASSERT_NE(Found, nullptr);
    EXPECT_EQ(Found->Start, Maps[I].Start);
  }
  EXPECT_EQ(Space.mappedPageCount(), Ref.Pages.size());
  EXPECT_EQ(Space.pageTableEntries(), Ref.Chunks.size() * ChunkPages);
  for (uint64_t P = ModelFirstPage - 1; P != ModelFirstPage + ModelPages + 8;
       ++P) {
    uint64_t Addr = P * PageSize;
    auto It = Ref.Pages.find(P);
    ASSERT_EQ(Space.isMapped(Addr), It != Ref.Pages.end()) << "page " << P;
    const uint8_t *Bytes = nullptr;
    if (It == Ref.Pages.end()) {
      EXPECT_EQ(Space.findMapping(Addr), nullptr);
      EXPECT_FALSE(Space.pageBytes(Addr, Bytes));
      continue;
    }
    EXPECT_EQ(Space.protectionOf(Addr), It->second.Prot) << "page " << P;
    ASSERT_TRUE(Space.pageBytes(Addr, Bytes));
    int Id = It->second.Phys;
    ASSERT_EQ(Bytes == nullptr, Id == 0) << "page " << P;
    if (!Id)
      continue;
    EXPECT_EQ(std::memcmp(Bytes, Ref.Store.Bytes.at(Id).data(), PageSize), 0)
        << "page " << P;
    PhysPageRef Phys = Space.physicalPage(Addr);
    auto [Known, New] = Ids.emplace(Id, Phys.get());
    EXPECT_EQ(Known->second, Phys.get()) << "page " << P << " id " << Id;
    EXPECT_EQ(Phys.use_count() - 1, Ref.Store.Refs.at(Id)) << "page " << P;
  }
  EXPECT_EQ(Space.dirtyPageCount(), Ref.Dirty.size());
  EXPECT_EQ(Space.hasValidSnapshot(), Ref.Armed && !Ref.Structural);
  expectSameStats(Space.stats(), Ref.Stats);
}

/// How often the sequences zero-filled: pages left on the shared zero
/// page, and fills inside a capture window (a handler installed).
struct ZeroFillCounts {
  uint64_t SharedPages = 0;
  uint64_t Refills = 0; ///< Of SharedPages, those already on the zero page.
  uint64_t WindowFills = 0;
};

/// One seeded sequence of random operations on a space, and on a fork of
/// it while one lives, each mirrored on the reference model.
void runModelSequence(uint64_t Seed, ZeroFillCounts &Counts,
                      ChunkCounts &Chunks) {
  Rng R(Seed);
  RefStore Store;
  std::vector<std::shared_ptr<const PageSource>> Sources; // live like images
  std::vector<PhysPageRef> Shared; // held like a capture's pages
  std::map<int, const PhysicalPage *> Ids;
  // Nothing outside this sequence holds the zero page.
  ASSERT_EQ(AddressSpace::zeroPage().use_count(), 1);
  Ids[Store.ZeroId] = AddressSpace::zeroPage().get();

  struct Side {
    std::optional<AddressSpace> Space;
    std::unique_ptr<RefSpace> Ref;
  };
  std::array<Side, 2> Sides; // [0] the parent, [1] a live fork or empty
  auto InstallHandler = [&R](Side &S) {
    S.Ref->Handler = static_cast<int>(R.below(3));
    if (S.Ref->Handler == 0)
      return;
    AddressSpace &Space = *S.Space;
    bool Fixes = S.Ref->Handler == 1;
    Space.setFaultHandler([&Space, Fixes](uint64_t Addr, bool) {
      if (Fixes)
        Space.protectRange(pageBase(Addr), PageSize, ProtRead | ProtWrite);
      return true;
    });
  };
  Sides[0].Space.emplace();
  Sides[0].Ref = std::make_unique<RefSpace>(Store, Chunks);
  InstallHandler(Sides[0]);

  const uint8_t Prots[] = {ProtNone, ProtRead, ProtRead | ProtWrite,
                           ProtRead | ProtExec, ProtWrite};
  const MappingKind Kinds[] = {MappingKind::Heap, MappingKind::Data,
                               MappingKind::Anonymous};
  const char *Names[] = {"heap", "statics", "staged"};
  auto RandomAddr = [&R] {
    return (ModelFirstPage + R.below(ModelPages)) * PageSize +
           R.below(PageSize);
  };
  auto RandomSize = [&R] {
    switch (R.below(4)) {
    case 0:
      return PageSize + R.below(PageSize); // spans two or three pages
    case 1:
      return 1 + R.below(64);
    default:
      return uint64_t(8);
    }
  };

  const int Steps = 30 + static_cast<int>(R.below(30));
  for (int Step = 0; Step != Steps; ++Step) {
    SCOPED_TRACE("seed " + std::to_string(Seed) + " step " +
                 std::to_string(Step));
    uint64_t Op = R.below(19);
    if (Op == 12) { // fork, or let the live fork exit
      if (Sides[1].Space) {
        Sides[1].Space.reset();
        Sides[1].Ref.reset();
      } else {
        Sides[1].Space.emplace(Sides[0].Space->forkClone());
        Sides[1].Ref = Sides[0].Ref->fork();
        InstallHandler(Sides[1]);
      }
    }
    Side &S = Sides[Sides[1].Space && R.chance(0.3) ? 1 : 0];
    AddressSpace &Space = *S.Space;
    RefSpace &Ref = *S.Ref;
    switch (Op) {
    case 0:
    case 1:
    case 2: { // map lazily, or map a fresh page source
      uint64_t First = ModelFirstPage + R.below(ModelPages);
      uint64_t Count = R.chance(0.25) ? 40 + R.below(140)
                       : R.chance(0.3) ? 1
                                       : 1 + R.below(8);
      if (Ref.overlaps(First, Count))
        break;
      uint8_t Prot = Prots[R.below(5)];
      size_t K = R.below(3);
      std::vector<int> Ids(Count, 0);
      if (R.chance(0.4)) {
        std::vector<PhysPageRef> Pages;
        for (int &Id : Ids) {
          auto Page = std::make_shared<PhysicalPage>();
          uint64_t Word = R.next();
          std::memcpy(Page->Data.data() + R.below(PageSize / 8) * 8, &Word,
                      sizeof(Word));
          Id = Store.make(Page->Data); // the source's reference
          Pages.push_back(std::move(Page));
        }
        Sources.push_back(std::make_shared<VectorPageSource>(std::move(Pages)));
        Space.mapShared(First * PageSize, Sources.back(), Prot, Kinds[K],
                        Names[K]);
      } else {
        Space.mapRegion(First * PageSize, Count * PageSize, Prot, Kinds[K],
                        Names[K]);
      }
      Ref.map(First, Ids, Prot, Kinds[K], Names[K]);
      break;
    }
    case 3:
    case 4: { // unmap: whole mappings, an end, a hole or nothing
      uint64_t First = ModelFirstPage + R.below(ModelPages);
      uint64_t Count = 1 + R.below(R.chance(0.2) ? 100 : 10);
      Space.unmapRegion(First * PageSize, Count * PageSize);
      Ref.unmap(First, Count);
      break;
    }
    case 5: {
      uint64_t First = ModelFirstPage + R.below(ModelPages);
      uint64_t Count = 1 + R.below(R.chance(0.2) ? 100 : 10);
      uint8_t Prot = Prots[R.below(5)];
      Space.protectRange(First * PageSize, Count * PageSize, Prot);
      Ref.protect(First, Count, Prot);
      break;
    }
    case 6:
    case 7:
    case 8: { // write
      uint64_t Addr = RandomAddr();
      std::vector<uint8_t> Data(RandomSize());
      for (uint8_t &B : Data)
        B = static_cast<uint8_t>(R.next());
      std::vector<uint8_t> Copy = Data;
      EXPECT_EQ(Space.write(Addr, Data.data(), Data.size()),
                Ref.access(Addr, Copy.data(), Copy.size(), true));
      break;
    }
    case 9:
    case 10: { // read
      uint64_t Addr = RandomAddr();
      uint64_t Size = RandomSize();
      std::vector<uint8_t> Got(Size), Want(Size);
      AccessResult Result = Space.read(Addr, Got.data(), Size);
      ASSERT_EQ(Result, Ref.access(Addr, Want.data(), Size, false));
      if (Result == AccessResult::Ok) {
        EXPECT_EQ(Got, Want);
      }
      break;
    }
    case 11: { // kernel-style access
      uint64_t Addr = RandomAddr();
      uint64_t Size = RandomSize();
      std::vector<uint8_t> Got(Size), Want(Size);
      if (R.chance(0.5)) {
        for (uint8_t &B : Want)
          B = static_cast<uint8_t>(R.next());
        Got = Want;
        EXPECT_EQ(Space.poke(Addr, Got.data(), Size),
                  Ref.peekPoke(Addr, Want.data(), Size, true));
        break;
      }
      bool Ok = Space.peek(Addr, Got.data(), Size);
      ASSERT_EQ(Ok, Ref.peekPoke(Addr, Want.data(), Size, false));
      if (Ok) {
        EXPECT_EQ(Got, Want);
      }
      break;
    }
    case 13:
      Space.takeSnapshot();
      Ref.takeSnapshot();
      break;
    case 14:
      ASSERT_EQ(Space.resetToSnapshot(), Ref.reset());
      break;
    case 15:
      if (R.chance(0.3)) {
        Space.dropSnapshot();
        Ref.dropSnapshot();
      }
      break;
    case 16: { // zero fill, inside or outside a capture window
      uint64_t Addr = RandomAddr();
      if (!Ref.Pages.empty() && R.chance(0.8)) { // most at a mapped page
        auto It = Ref.Pages.begin();
        std::advance(It, R.below(Ref.Pages.size()));
        Addr = It->first * PageSize + R.below(PageSize);
      }
      uint64_t Size = R.chance(0.5) ? RandomSize() : 1 + R.below(4 * PageSize);
      uint64_t Got = 0, Want = 0, Refills = Ref.ZeroRefills;
      EXPECT_EQ(Space.zeroFill(Addr, Size, Got), Ref.zeroFill(Addr, Size, Want));
      EXPECT_EQ(Got, Want);
      Counts.SharedPages += Got;
      Counts.Refills += Ref.ZeroRefills - Refills;
      Counts.WindowFills += Ref.Handler != 0;
      break;
    }
    case 17: // open or close a capture window: install or clear the handler
      if (Ref.Handler) {
        Space.setFaultHandler(nullptr);
        Ref.Handler = 0;
      } else {
        InstallHandler(S);
      }
      break;
    case 18: { // map a page by reference, as a replay session maps a capture's
      auto Page = std::make_shared<PhysicalPage>();
      uint64_t Word = R.next();
      std::memcpy(Page->Data.data() + R.below(PageSize / 8) * 8, &Word,
                  sizeof(Word));
      int Id = Store.make(Page->Data); // the holder's reference
      Shared.push_back(Page);
      uint64_t Addr = RandomAddr();
      EXPECT_EQ(Space.sharePage(Addr, Page), Ref.share(pageNumber(Addr), Id));
      break;
    }
    }
    EXPECT_EQ(Space.dirtyPageCount(), Ref.Dirty.size());
    expectSameStats(Space.stats(), Ref.Stats);
    if (Step % 8 == 7 || Step + 1 == Steps)
      for (Side &Each : Sides)
        if (Each.Space)
          expectMatches(*Each.Space, *Each.Ref, Ids);
    if (::testing::Test::HasFailure())
      return;
  }
}

} // namespace

TEST(AddressSpace, MatchesReferenceModel) {
  ZeroFillCounts Counts;
  ChunkCounts Chunks;
  for (uint64_t Seed = 1; Seed <= 2000; ++Seed) {
    runModelSequence(Seed, Counts, Chunks);
    if (::testing::Test::HasFailure())
      return;
  }
  RecordProperty("shared_pages", std::to_string(Counts.SharedPages));
  RecordProperty("refills", std::to_string(Counts.Refills));
  RecordProperty("window_fills", std::to_string(Counts.WindowFills));
  RecordProperty("resets_from_absent", std::to_string(Chunks.ResetsFromAbsent));
  RecordProperty("resets_from_present",
                 std::to_string(Chunks.ResetsFromPresent));
  RecordProperty("rechunks", std::to_string(Chunks.Rechunks));
  RecordProperty("odd_mappings", std::to_string(Chunks.OddMappings));
  // Both sides of the rule ran, and fills found pages already on the
  // zero page (721, 21 and 2,245 when written).
  EXPECT_GT(Counts.SharedPages, 250u);
  EXPECT_GT(Counts.Refills, 20u);
  EXPECT_GT(Counts.WindowFills, 1000u);
  // Resets reverted pages whose chunk the snapshot lacked and pages whose
  // chunk it held, unmaps re-chunked from mid-chunk, and mappings were no
  // multiple of a chunk (99, 190, 981 and 1,067 when written).
  EXPECT_GT(Chunks.ResetsFromAbsent, 40u);
  EXPECT_GT(Chunks.ResetsFromPresent, 80u);
  EXPECT_GT(Chunks.Rechunks, 400u);
  EXPECT_GT(Chunks.OddMappings, 400u);
}
