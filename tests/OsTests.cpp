//===- tests/OsTests.cpp - os/ unit tests ----------------------------------===//

#include "os/AddressSpace.h"
#include "os/CostModel.h"
#include "os/Kernel.h"

#include <gtest/gtest.h>

#include <cstring>

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

TEST(Storage, WriteReadRemove) {
  StorageDevice Disk;
  Disk.writeFile("a", {1, 2, 3});
  ASSERT_NE(Disk.readFile("a"), nullptr);
  EXPECT_EQ(Disk.readFile("a")->size(), 3u);
  EXPECT_EQ(Disk.readFile("missing"), nullptr);
  EXPECT_TRUE(Disk.removeFile("a"));
  EXPECT_FALSE(Disk.removeFile("a"));
}

TEST(Storage, AccountsBytes) {
  StorageDevice Disk;
  Disk.writeFile("a", std::vector<uint8_t>(100));
  Disk.writeFile("b", std::vector<uint8_t>(50));
  EXPECT_EQ(Disk.totalBytesStored(), 150u);
  Disk.writeFile("a", std::vector<uint8_t>(10)); // replace
  EXPECT_EQ(Disk.totalBytesStored(), 60u);
  EXPECT_EQ(Disk.lifetimeBytesWritten(), 160u);
  auto Files = Disk.listFiles();
  ASSERT_EQ(Files.size(), 2u);
  EXPECT_EQ(Files[0], "a");
}

TEST(Storage, PageBackedFilesKeepTheirContent) {
  AddressSpace Space;
  Space.mapRegion(0x10000, 2 * PageSize, ProtRead | ProtWrite,
                  MappingKind::Anonymous, "buf");
  uint64_t Word = 0x1234;
  ASSERT_EQ(Space.storeU64(0x10000, Word), AccessResult::Ok);
  StorageDevice Disk;
  // Page one is materialized, page two is an untouched zero page.
  Disk.writePages("image", {Space.physicalPage(0x10000),
                            Space.physicalPage(0x10000 + PageSize)});
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
