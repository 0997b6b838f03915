//===- tests/CaptureReplayTests.cpp - capture/ + replay/ tests --------------===//

#include "capture/CaptureManager.h"
#include "core/AppInstance.h"
#include "core/IterativeCompiler.h"
#include "workloads/Workloads.h"
#include "hgraph/AndroidCompiler.h"
#include "lir/Backend.h"
#include "profiler/HotRegion.h"
#include "replay/Replayer.h"
#include "support/Format.h"
#include "support/Random.h"
#include "tests/TestPrograms.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>

using namespace ropt;
using namespace ropt::dex;
using namespace ropt::capture;
using namespace ropt::replay;
using vm::Value;

namespace {

/// A stateful app: init() builds an array in the heap referenced from a
/// static; step(x) folds x into the array and returns a digest. The hot
/// region (step) is fully determined by memory — ideal for capture.
struct StatefulApp {
  DexFile File;
  MethodId Init = InvalidId;
  MethodId Step = InvalidId;

  StatefulApp() {
    DexBuilder B;
    ClassId State = B.addClass("State");
    StaticFieldId DataRef = B.addStaticField(State, "data", Type::Ref);
    StaticFieldId Counter = B.addStaticField(State, "count", Type::I64);

    Init = B.declareFunction(InvalidId, "init", 1, false);
    {
      FunctionBuilder F = B.beginBody(Init);
      RegIdx Arr = F.newReg(), I = F.newReg(), One = F.immI(1);
      F.newArray(Arr, F.param(0), Type::I64);
      F.constI(I, 0);
      auto Head = F.newLabel(), Done = F.newLabel();
      F.bind(Head);
      F.ifGe(I, F.param(0), Done);
      RegIdx V = F.newReg();
      F.mulI(V, I, I);
      F.astore(Arr, I, V, Type::I64);
      F.addI(I, I, One);
      F.jump(Head);
      F.bind(Done);
      F.putStatic(DataRef, Arr);
      F.retVoid();
      B.endBody(F);
    }

    Step = B.declareFunction(InvalidId, "step", 1, true);
    {
      FunctionBuilder F = B.beginBody(Step);
      RegIdx Arr = F.newReg(), Len = F.newReg(), I = F.newReg(),
             Sum = F.newReg(), One = F.immI(1);
      F.getStatic(Arr, DataRef);
      F.arrayLen(Len, Arr);
      F.constI(Sum, 0);
      F.constI(I, 0);
      auto Head = F.newLabel(), Done = F.newLabel();
      F.bind(Head);
      F.ifGe(I, Len, Done);
      RegIdx V = F.newReg();
      F.aload(V, Arr, I, Type::I64);
      F.addI(Sum, Sum, V);
      // arr[i] = arr[i] + x (externally visible writes)
      F.addI(V, V, F.param(0));
      F.astore(Arr, I, V, Type::I64);
      F.addI(I, I, One);
      F.jump(Head);
      F.bind(Done);
      RegIdx C = F.newReg();
      F.getStatic(C, Counter);
      F.addI(C, C, One);
      F.putStatic(Counter, C);
      F.addI(Sum, Sum, C);
      F.ret(Sum);
      B.endBody(F);
    }
    File = B.build();
  }
};

/// Booted app process with a kernel, ready for capture.
struct AppEnv {
  os::Kernel Kernel;
  os::Process &Proc;
  vm::NativeRegistry Natives;
  vm::RuntimeConfig Config;
  std::unique_ptr<vm::Runtime> RT;

  explicit AppEnv(const DexFile &File,
                  vm::RuntimeConfig C = vm::RuntimeConfig())
      : Proc(Kernel.spawn()),
        Natives(vm::NativeRegistry::standardLibrary()), Config(C) {
    vm::Runtime::mapStandardLayout(Proc.space(), File, Config);
    RT = std::make_unique<vm::Runtime>(Proc.space(), File, Natives,
                                       Config);
  }
};

/// Captures one execution of step(x) after init(n).
Capture captureStep(const StatefulApp &App, AppEnv &Env, int64_t N,
                    int64_t X, vm::CallResult *LiveResult = nullptr) {
  EXPECT_TRUE(Env.RT->call(App.Init, {Value::fromI64(N)}).ok());
  CaptureManager CM(Env.Kernel, Env.Proc, *Env.RT);
  CM.armCapture(App.Step);
  vm::CallResult R = Env.RT->call(App.Step, {Value::fromI64(X)});
  EXPECT_TRUE(R.ok());
  if (LiveResult)
    *LiveResult = R;
  EXPECT_TRUE(CM.captureReady());
  return CM.takeCapture().value();
}

} // namespace

// --- Capture mechanics ------------------------------------------------------------

TEST(Capture, RecordsAccessedPagesOnly) {
  StatefulApp App;
  AppEnv Env(App.File);
  Capture Cap = captureStep(App, Env, /*N=*/2000, /*X=*/3);

  // ~2000 i64s = ~4 pages of array + control block + statics + a few.
  EXPECT_GE(Cap.Pages.size(), 4u);
  EXPECT_LT(Cap.Pages.size(), 40u);
  // Far fewer than the process' mapped pages.
  EXPECT_LT(Cap.Pages.size(), Env.Proc.space().mappedPageCount() / 50);
  EXPECT_EQ(Cap.Root, App.Step);
  ASSERT_EQ(Cap.Args.size(), 1u);
  EXPECT_EQ(Cap.Args[0].asI64(), 3);
}

TEST(Capture, EventsAndOverheadsPopulated) {
  StatefulApp App;
  AppEnv Env(App.File);
  Capture Cap = captureStep(App, Env, 1000, 1);

  EXPECT_GT(Cap.Events.MappedPagesAtFork, 1000u);
  EXPECT_GT(Cap.Events.MappingsParsed, 3u);
  EXPECT_GT(Cap.Events.PagesProtected, 100u);
  EXPECT_GT(Cap.Events.ReadFaults + Cap.Events.WriteFaults, 2u);
  EXPECT_GT(Cap.Events.CowCopies, 0u); // region writes shared pages

  EXPECT_GT(Cap.Overheads.ForkMs, 0.5);
  EXPECT_GT(Cap.Overheads.PreparationMs, 0.5);
  EXPECT_GT(Cap.Overheads.FaultCowMs, 0.0);
  EXPECT_LT(Cap.Overheads.totalMs(), 60.0);
}

TEST(Capture, CapturedBytesAreThePreRegionState) {
  StatefulApp App;
  AppEnv Env(App.File);
  // init builds squares 0,1,4,9... step(+5) mutates them. The capture must
  // hold the *pre-step* values even though step ran to completion.
  Capture Cap = captureStep(App, Env, 64, 5);

  // Find the captured page holding the array payload: scan pages in the
  // heap range for the sequence 0,1,4,9.
  bool FoundOriginal = false;
  for (const PageRecord &P : Cap.Pages) {
    if (P.Addr < vm::Layout::HeapBase)
      continue;
    for (size_t Off = 0; Off + 32 <= P.Bytes.size(); Off += 8) {
      const uint64_t *Words =
          reinterpret_cast<const uint64_t *>(P.Bytes.data() + Off);
      if (Words[0] == 0 && Words[1] == 1 && Words[2] == 4 && Words[3] == 9)
        FoundOriginal = true;
    }
  }
  EXPECT_TRUE(FoundOriginal);
}

TEST(Capture, PostponedWhenGcImminent) {
  StatefulApp App;
  vm::RuntimeConfig Config;
  Config.GcThresholdBytes = 1 << 20;
  AppEnv Env(App.File, Config);
  ASSERT_TRUE(Env.RT->call(App.Init, {Value::fromI64(100)}).ok());

  // Make a collection imminent at the moment the hot region is entered:
  // the entry hook must postpone the capture (Section 3.2, step 1). The
  // imminence is injected straight into the heap's control block, the
  // state an allocation burst between safepoints would leave behind.
  uint64_t AlmostThreshold = (Config.GcThresholdBytes / 10) * 95 / 10;
  ASSERT_TRUE(Env.Proc.space().poke(
      vm::Layout::HeapBase + vm::Heap::BytesSinceGcSlot, &AlmostThreshold,
      sizeof(AlmostThreshold)));
  ASSERT_TRUE(Env.RT->heap().gcImminent());

  CaptureManager CM(Env.Kernel, Env.Proc, *Env.RT);
  CM.armCapture(App.Step);
  ASSERT_TRUE(Env.RT->call(App.Step, {Value::fromI64(1)}).ok());
  EXPECT_FALSE(CM.captureReady());
  EXPECT_EQ(CM.postponedCount(), 1u);

  // That run's safepoints collected; the next run captures.
  ASSERT_TRUE(Env.RT->call(App.Step, {Value::fromI64(1)}).ok());
  EXPECT_TRUE(CM.captureReady());
}

TEST(Capture, AppKeepsRunningNormallyAfterCapture) {
  StatefulApp App;
  AppEnv Env(App.File);
  vm::CallResult Live;
  captureStep(App, Env, 100, 2, &Live);
  // Protections restored: further calls behave normally.
  vm::CallResult Next = Env.RT->call(App.Step, {Value::fromI64(2)});
  ASSERT_TRUE(Next.ok());
  EXPECT_NE(Next.Ret.asI64(), Live.Ret.asI64()); // state advanced
  EXPECT_EQ(Env.Proc.space().stats().ReadFaults, 0u);
}

TEST(Capture, SerializationRoundTrip) {
  StatefulApp App;
  AppEnv Env(App.File);
  Capture Cap = captureStep(App, Env, 256, 7);

  std::vector<uint8_t> Bytes = Cap.serialize();
  Capture Out;
  ASSERT_TRUE(Capture::deserialize(Bytes, Out));
  EXPECT_EQ(Out.Root, Cap.Root);
  EXPECT_EQ(Out.Args.size(), Cap.Args.size());
  EXPECT_EQ(Out.Pages.size(), Cap.Pages.size());
  EXPECT_EQ(Out.Mappings.size(), Cap.Mappings.size());
  EXPECT_EQ(Out.CommonBytes, Cap.CommonBytes);
  for (size_t I = 0; I != Cap.Pages.size(); ++I) {
    EXPECT_EQ(Out.Pages[I].Addr, Cap.Pages[I].Addr);
    EXPECT_EQ(Out.Pages[I].Bytes, Cap.Pages[I].Bytes);
  }
  EXPECT_FALSE(Capture::deserialize({1, 2, 3}, Out));
}

// Storage blobs are untrusted input to the replay host: truncated or
// bit-flipped bytes must be rejected (or survive as a well-formed other
// capture), never crash or over-allocate.
TEST(Capture, DeserializeRejectsEveryTruncation) {
  StatefulApp App;
  AppEnv Env(App.File);
  Capture Cap = captureStep(App, Env, 256, 7);
  std::vector<uint8_t> Bytes = Cap.serialize();
  ASSERT_GT(Bytes.size(), 64u);

  // Step through prefixes (all short ones, sampled long ones).
  for (size_t Len = 0; Len < Bytes.size();
       Len += (Len < 128 ? 1 : 211)) {
    std::vector<uint8_t> Trunc(Bytes.begin(), Bytes.begin() + Len);
    Capture Out;
    EXPECT_FALSE(Capture::deserialize(Trunc, Out)) << "len=" << Len;
  }
  Capture Out;
  EXPECT_TRUE(Capture::deserialize(Bytes, Out));
}

TEST(Capture, DeserializeSurvivesRandomCorruption) {
  StatefulApp App;
  AppEnv Env(App.File);
  Capture Cap = captureStep(App, Env, 256, 7);
  std::vector<uint8_t> Bytes = Cap.serialize();

  Rng R(0xF00D);
  for (int Trial = 0; Trial != 400; ++Trial) {
    std::vector<uint8_t> Bad = Bytes;
    int Flips = 1 + static_cast<int>(R.below(8));
    for (int F = 0; F != Flips; ++F)
      Bad[R.below(Bad.size())] ^=
          static_cast<uint8_t>(1u << R.below(8));
    Capture Out;
    // Must terminate without crashing; header-intact corruptions may
    // still parse, but never into something absurd.
    if (Capture::deserialize(Bad, Out)) {
      EXPECT_LT(Out.Pages.size(), 1u << 20);
      EXPECT_LT(Out.Args.size(), 1u << 20);
    }
  }
}

TEST(Capture, SpoolsToStorageWithCommonBlobOnce) {
  StatefulApp App;
  AppEnv Env(App.File);
  Capture Cap1 = captureStep(App, Env, 128, 1);

  CaptureManager CM(Env.Kernel, Env.Proc, *Env.RT);
  std::string Path1 = CM.spoolToStorage(Cap1, "app");
  uint64_t AfterFirst = Env.Kernel.storage().totalBytesStored();
  EXPECT_TRUE(Env.Kernel.storage().exists(Path1));
  // Common blob (runtime image) dominates the first spool.
  EXPECT_GT(AfterFirst, Cap1.CommonBytes);

  // Second capture of the same boot: only process-specific bytes grow.
  CM.armCapture(App.Step);
  ASSERT_TRUE(Env.RT->call(App.Step, {Value::fromI64(2)}).ok());
  Capture Cap2 = CM.takeCapture().value();
  CM.spoolToStorage(Cap2, "app2");
  uint64_t AfterSecond = Env.Kernel.storage().totalBytesStored();
  EXPECT_LT(AfterSecond - AfterFirst, Cap2.CommonBytes / 4);
}

// --- Replay fidelity -----------------------------------------------------------------

TEST(Replay, InterpretedReplayReproducesTheLiveResult) {
  StatefulApp App;
  AppEnv Env(App.File);
  vm::CallResult Live;
  Capture Cap = captureStep(App, Env, 300, 9, &Live);

  Replayer R(App.File, Env.Natives, Env.Config);
  ReplayResult Rep = R.replay(Cap, ReplayCode::Interpreter, nullptr);
  ASSERT_TRUE(Rep.Result.ok());
  EXPECT_EQ(Rep.Result.Ret.asI64(), Live.Ret.asI64());
}

TEST(Replay, ReplayIsIdempotent) {
  StatefulApp App;
  AppEnv Env(App.File);
  Capture Cap = captureStep(App, Env, 300, 9);

  Replayer R(App.File, Env.Natives, Env.Config);
  ReplayResult A = R.replay(Cap, ReplayCode::Interpreter, nullptr);
  ReplayResult B = R.replay(Cap, ReplayCode::Interpreter, nullptr);
  ASSERT_TRUE(A.Result.ok());
  EXPECT_EQ(A.Result.Ret.Raw, B.Result.Ret.Raw);
  EXPECT_EQ(A.Result.Cycles, B.Result.Cycles);
  EXPECT_EQ(A.Result.Insns, B.Result.Insns);
}

TEST(Replay, CompiledReplayMatchesInterpreted) {
  StatefulApp App;
  AppEnv Env(App.File);
  vm::CallResult Live;
  Capture Cap = captureStep(App, Env, 300, 4, &Live);

  vm::CodeCache Android;
  hgraph::compileAllAndroid(App.File, {App.Step}, Android);

  Replayer R(App.File, Env.Natives, Env.Config);
  ReplayResult Interp = R.replay(Cap, ReplayCode::Interpreter, nullptr);
  ReplayResult Comp = R.replay(Cap, ReplayCode::Compiled, &Android);
  ASSERT_TRUE(Comp.Result.ok());
  EXPECT_EQ(Comp.Result.Ret.asI64(), Interp.Result.Ret.asI64());
  EXPECT_EQ(Comp.Result.Ret.asI64(), Live.Ret.asI64());
  EXPECT_LT(Comp.Result.Cycles, Interp.Result.Cycles);
}

// The full on-disk path: spool to bytes, parse the bytes back, replay.
// The deserialized capture must replay to the identical result.
TEST(Replay, ReplayFromStorageRoundTripMatchesLive) {
  StatefulApp App;
  AppEnv Env(App.File);
  vm::CallResult Live;
  Capture Cap = captureStep(App, Env, 300, 9, &Live);

  std::vector<uint8_t> Bytes = Cap.serialize();
  Capture FromDisk;
  ASSERT_TRUE(Capture::deserialize(Bytes, FromDisk));

  Replayer R(App.File, Env.Natives, Env.Config);
  ReplayResult Rep = R.replay(FromDisk, ReplayCode::Interpreter, nullptr);
  ASSERT_TRUE(Rep.Result.ok());
  EXPECT_EQ(Rep.Result.Ret.asI64(), Live.Ret.asI64());
}

// Bit-rot inside captured page *contents* (the header still parses): the
// replay host must terminate cleanly every time — a wrong result, a trap,
// or a timeout, never a crash of the host itself.
TEST(Replay, CorruptedPageContentsFailSafely) {
  StatefulApp App;
  AppEnv Env(App.File);
  vm::CallResult Live;
  Capture Cap = captureStep(App, Env, 300, 9, &Live);
  ASSERT_FALSE(Cap.Pages.empty());

  Rng Rand(0xBADC0DE);
  int Diverged = 0;
  for (int Trial = 0; Trial != 24; ++Trial) {
    Capture Bad = Cap;
    // Flip a few bytes in random captured pages.
    for (int F = 0; F != 4; ++F) {
      PageRecord &P = Bad.Pages[Rand.below(Bad.Pages.size())];
      P.Bytes[Rand.below(P.Bytes.size())] ^=
          static_cast<uint8_t>(1u << Rand.below(8));
    }
    Replayer R(App.File, Env.Natives, Env.Config);
    ReplayResult Rep = R.replay(Bad, ReplayCode::Interpreter, nullptr);
    // Terminated (ok, trap, or timeout) — reaching this line is the
    // assertion. Count observable divergence for the sanity check below.
    if (!Rep.Result.ok() || Rep.Result.Ret.Raw != Live.Ret.Raw)
      ++Diverged;
  }
  // Most 4-byte corruptions of a small working set are visible.
  EXPECT_GT(Diverged, 4);
}

TEST(Replay, AslrCollisionsAreHandled) {
  StatefulApp App;
  AppEnv Env(App.File);
  vm::CallResult Live;
  Capture Cap = captureStep(App, Env, 300, 4, &Live);

  // Many replays with different loader bases: results never change, and
  // at least one placement collides with a captured mapping.
  // The loader lands in ~670 MB of address space of which ~30 MB belongs
  // to captured mappings: a few percent collision probability per replay,
  // so a few hundred (seed-deterministic) replays guarantee several.
  Replayer R(App.File, Env.Natives, Env.Config, /*AslrSeed=*/42);
  bool SawCollision = false;
  for (int I = 0; I != 300; ++I) {
    ReplayResult Rep = R.replay(Cap, ReplayCode::Interpreter, nullptr);
    ASSERT_TRUE(Rep.Result.ok());
    EXPECT_EQ(Rep.Result.Ret.asI64(), Live.Ret.asI64());
    SawCollision |= Rep.Loader.CollidingPages > 0;
  }
  EXPECT_TRUE(SawCollision);
}

TEST(Replay, VerificationMapSeesExternalWrites) {
  StatefulApp App;
  AppEnv Env(App.File);
  Capture Cap = captureStep(App, Env, 50, 6);

  Replayer R(App.File, Env.Natives, Env.Config);
  support::Result<InterpretedReplayResult> IRes = R.interpretedReplay(Cap);
  ASSERT_TRUE(IRes.ok());
  InterpretedReplayResult &IR = IRes.value();
  // 50 array writes + counter static + heap control block.
  EXPECT_GE(IR.Map.Cells.size(), 50u);
  EXPECT_TRUE(IR.Map.HasReturn);
}

TEST(Replay, VerifiedReplayAcceptsCorrectBinary) {
  StatefulApp App;
  AppEnv Env(App.File);
  Capture Cap = captureStep(App, Env, 50, 6);

  Replayer R(App.File, Env.Natives, Env.Config);
  InterpretedReplayResult IR = R.interpretedReplay(Cap).value();

  vm::CodeCache Android;
  hgraph::compileAllAndroid(App.File, {App.Step}, Android);
  EXPECT_TRUE(R.verifiedReplay(Cap, Android, IR.Map).ok());
}

TEST(Replay, VerifiedReplayRejectsWrongBinary) {
  StatefulApp App;
  AppEnv Env(App.File);
  Capture Cap = captureStep(App, Env, 50, 6);

  Replayer R(App.File, Env.Natives, Env.Config);
  InterpretedReplayResult IR = R.interpretedReplay(Cap).value();

  // Sabotage the compiled step: flip an add into a sub.
  auto Fn = hgraph::compileMethodAndroid(App.File, App.Step);
  ASSERT_NE(Fn, nullptr);
  bool Flipped = false;
  for (vm::MInsn &I : Fn->Code) {
    if (!Flipped && I.Op == vm::MOpcode::MAddI) {
      I.Op = vm::MOpcode::MSubI;
      Flipped = true;
    }
  }
  ASSERT_TRUE(Flipped);
  vm::CodeCache Bad;
  Bad.install(Fn);

  support::Result<ReplayResult> Bad2 = R.verifiedReplay(Cap, Bad, IR.Map);
  ASSERT_FALSE(Bad2.ok());
  // The typed error pinpoints the divergence class.
  EXPECT_EQ(Bad2.error().Code, support::ErrorCode::OutputMismatch);
}

namespace {

/// The compare verifiedReplay used to run: peek every cell into an
/// observed map (an unmapped cell is left out) and compare the maps.
bool referenceCellsMatch(const os::AddressSpace &Space,
                         const std::map<uint64_t, uint64_t> &Cells) {
  std::map<uint64_t, uint64_t> Observed;
  for (const auto &[Addr, Expected] : Cells) {
    uint64_t Bits = 0;
    if (Space.peek(Addr, &Bits, sizeof(Bits)))
      Observed[Addr] = Bits;
  }
  return Observed == Cells;
}

} // namespace

// The in-place compare must give the reference compare's verdict on every
// map: the verification map itself, bit flips, dropped cells, cells at
// unmapped addresses, cells straddling a page boundary and the empty map
// — directly on a post-region space, and end to end through
// verifiedReplay, whose verdict also folds in the return value.
TEST(Replay, InPlaceCompareMatchesReferenceMap) {
  for (const char *Name : {"Sieve", "FFT"}) {
    SCOPED_TRACE(Name);
    workloads::Application App = workloads::buildByName(Name);
    core::PipelineConfig Config;
    core::IterativeCompiler Pipeline(Config);
    auto P = Pipeline.profileApp(App);
    ASSERT_TRUE(P.Region.has_value());
    auto Captured = Pipeline.captureRegion(*P.Instance, *P.Region);
    ASSERT_TRUE(Captured.has_value());
    const Capture &Cap = Captured->Cap;
    const VerificationMap &Map = Captured->Map;
    ASSERT_GT(Map.Cells.size(), 8u);
    ASSERT_TRUE(Map.HasReturn);

    vm::NativeRegistry Natives = vm::NativeRegistry::standardLibrary();
    vm::CodeCache Android;
    hgraph::compileAllAndroid(*App.File, P.Region->Methods, Android);
    Replayer Rep(*App.File, Natives, App.RtConfig);
    Rep.setSessionMode(true);
    ASSERT_TRUE(Rep.verifiedReplay(Cap, Android, Map).ok());

    // The region's post-run memory: the same replay, run by hand on a
    // fork of the pristine session space.
    os::AddressSpace After = Rep.sessionSpace(Cap)->forkClone();
    vm::Runtime RT(After, *App.File, Natives, App.RtConfig);
    RT.setSharedCode(&Android);
    vm::CallResult Run = RT.call(Cap.Root, Cap.Args);
    ASSERT_TRUE(Run.ok());

    // The map's cells cover more than one page.
    EXPECT_NE(os::pageNumber(Map.Cells.begin()->first),
              os::pageNumber(Map.Cells.rbegin()->first));

    std::vector<std::pair<std::string, std::map<uint64_t, uint64_t>>>
        Variants;
    Variants.emplace_back("map", Map.Cells);
    Variants.emplace_back("empty", std::map<uint64_t, uint64_t>());
    std::vector<uint64_t> Addrs;
    for (const auto &KV : Map.Cells)
      Addrs.push_back(KV.first);
    const size_t Picks[] = {0, 1, Addrs.size() / 2, Addrs.size() - 1};
    for (size_t K : Picks) {
      for (unsigned Bit : {0u, 31u, 63u}) {
        auto Cells = Map.Cells;
        Cells[Addrs[K]] ^= 1ULL << Bit;
        Variants.emplace_back(format("flip cell %zu bit %u", K, Bit),
                              std::move(Cells));
      }
      auto Dropped = Map.Cells;
      Dropped.erase(Addrs[K]);
      Variants.emplace_back(format("drop cell %zu", K), std::move(Dropped));
      auto Moved = Map.Cells;
      uint64_t Bits = Moved[Addrs[K]];
      Moved.erase(Addrs[K]);
      Moved[0xdead0000ULL + 8 * K] = Bits;
      Variants.emplace_back(format("move cell %zu to unmapped", K),
                            std::move(Moved));
    }
    for (uint64_t Unmapped : {0x0ULL, 0xdead0000ULL, 0xfffffff8ULL}) {
      auto Cells = Map.Cells;
      Cells[Unmapped] = 0;
      Variants.emplace_back(format("add unmapped %#llx",
                                   static_cast<unsigned long long>(Unmapped)),
                            std::move(Cells));
    }
    // A cell straddling a page boundary inside the first cell's mapping,
    // with its true bits and flipped; and one straddling the end of the
    // static area into unmapped space.
    uint64_t Straddle = os::pageBase(Addrs[0]) + os::PageSize - 4;
    uint64_t StraddleBits = 0;
    ASSERT_TRUE(After.peek(Straddle, &StraddleBits, sizeof(StraddleBits)));
    auto Straddled = Map.Cells;
    Straddled[Straddle] = StraddleBits;
    Variants.emplace_back("straddle", Straddled);
    Straddled[Straddle] ^= 1ULL << 40;
    Variants.emplace_back("straddle flipped", std::move(Straddled));
    auto IntoUnmapped = Map.Cells;
    IntoUnmapped[vm::Layout::DataBase + vm::Layout::DataSize - 4] = 0;
    Variants.emplace_back("straddle into unmapped", std::move(IntoUnmapped));

    int Matching = 0, Mismatching = 0;
    for (const auto &[Label, Cells] : Variants) {
      SCOPED_TRACE(Label);
      bool Reference = referenceCellsMatch(After, Cells);
      EXPECT_EQ(cellsMatch(After, Cells), Reference);
      (Reference ? Matching : Mismatching)++;
      // End to end, with the true return value, none, and a wrong one.
      for (int Ret = 0; Ret != 3; ++Ret) {
        VerificationMap M;
        M.Cells = Cells;
        M.HasReturn = Ret != 1;
        M.ReturnBits = Map.ReturnBits ^ (Ret == 2 ? 1 : 0);
        support::Result<ReplayResult> R = Rep.verifiedReplay(Cap, Android, M);
        EXPECT_EQ(R.ok(), Reference && Ret != 2) << "return case " << Ret;
        if (!R.ok()) {
          EXPECT_EQ(R.error().Code, support::ErrorCode::OutputMismatch);
        }
      }
    }
    // Both verdicts occur.
    EXPECT_GE(Matching, 3);
    EXPECT_GE(Mismatching, 10);
  }
}

// A capture read back from a damaged file can carry any layout. Every
// runtime-image mapping other than exactly [RuntimeImageBase,
// +RuntimeImageSize) — shifted, resized, duplicated, or another mapping
// retagged as the image — must fail with a typed error naming the
// mapping, in both replay entry points and both loader modes, and never
// reach an assert or map the shared image at the wrong size.
TEST(Replay, HostileImageMappingsFailWithTypedError) {
  StatefulApp App;
  AppEnv Env(App.File);
  Capture Cap = captureStep(App, Env, 50, 6);
  vm::CodeCache Android;
  hgraph::compileAllAndroid(App.File, {App.Step}, Android);

  auto ImageIndex = [](const Capture &C) {
    for (size_t I = 0; I != C.Mappings.size(); ++I)
      if (C.Mappings[I].Kind == os::MappingKind::RuntimeImage)
        return I;
    return C.Mappings.size();
  };
  size_t Img = ImageIndex(Cap);
  ASSERT_LT(Img, Cap.Mappings.size());
  ASSERT_EQ(Cap.Mappings[Img].Name, "boot.art");

  struct Mutation {
    const char *What;
    std::function<void(Capture &)> Apply;
    const char *Named; ///< The mapping the error message must name.
  };
  const Mutation Mutations[] = {
      {"start bit flipped",
       [Img](Capture &C) {
         C.Mappings[Img].Start ^= 1ULL << 20;
         C.Mappings[Img].End ^= 1ULL << 20;
       },
       "boot.art"},
      {"one page short",
       [Img](Capture &C) { C.Mappings[Img].End -= os::PageSize; },
       "boot.art"},
      {"one page long",
       [Img](Capture &C) { C.Mappings[Img].End += os::PageSize; },
       "boot.art"},
      {"second image mapping",
       [Img](Capture &C) {
         os::Mapping Extra = C.Mappings[Img];
         Extra.Name = "boot-2.art";
         Extra.Start = 0x90000000;
         Extra.End = Extra.Start + vm::Layout::RuntimeImageSize;
         C.Mappings.push_back(Extra); // above the stack: still sorted
       },
       "boot-2.art"},
      {"heap retagged as image",
       [](Capture &C) {
         for (os::Mapping &M : C.Mappings)
           if (M.Kind == os::MappingKind::Heap)
             M.Kind = os::MappingKind::RuntimeImage;
       },
       "dalvik-heap"},
  };

  for (bool SessionMode : {false, true}) {
    Replayer R(App.File, Env.Natives, Env.Config);
    R.setSessionMode(SessionMode);
    InterpretedReplayResult Good = R.interpretedReplay(Cap).value();
    for (const Mutation &Mut : Mutations) {
      SCOPED_TRACE(std::string(Mut.What) +
                   (SessionMode ? " (session)" : " (fresh)"));
      Capture Bad = Cap;
      Mut.Apply(Bad);

      support::Result<InterpretedReplayResult> IR = R.interpretedReplay(Bad);
      ASSERT_FALSE(IR.ok());
      EXPECT_EQ(IR.error().Code, support::ErrorCode::CaptureFailed);
      EXPECT_NE(IR.error().Message.find(Mut.Named), std::string::npos)
          << IR.error().Message;

      support::Result<ReplayResult> VR =
          R.verifiedReplay(Bad, Android, Good.Map);
      ASSERT_FALSE(VR.ok());
      EXPECT_EQ(VR.error().Code, support::ErrorCode::CaptureFailed);
      EXPECT_NE(VR.error().Message.find(Mut.Named), std::string::npos)
          << VR.error().Message;

      // The raw entry point runs nothing and reports a memory fault.
      ReplayResult Raw = R.replay(Bad, ReplayCode::Interpreter, nullptr);
      EXPECT_EQ(Raw.Result.Trap, vm::TrapKind::MemoryFault);
      EXPECT_EQ(Raw.Result.Insns, 0u);
    }
    // The intact capture still replays on the same Replayer.
    EXPECT_TRUE(R.verifiedReplay(Cap, Android, Good.Map).ok());
  }
}

// The rest of the loader's layout check: a damaged entry point, mapping
// table or page record is refused the same way instead of asserting or
// indexing out of range.
TEST(Replay, HostileLayoutsFailWithTypedError) {
  StatefulApp App;
  AppEnv Env(App.File);
  Capture Cap = captureStep(App, Env, 50, 6);
  ASSERT_GE(Cap.Mappings.size(), 2u);
  ASSERT_FALSE(Cap.Pages.empty());

  struct Mutation {
    const char *What;
    std::function<void(Capture &)> Apply;
    const char *Mentions;
  };
  const Mutation Mutations[] = {
      {"root out of range",
       [](Capture &C) { C.Root = 1u << 30; }, "root method"},
      {"wrong arity", [](Capture &C) { C.Args.push_back(Value()); },
       "arguments"},
      {"unaligned mapping",
       [](Capture &C) { C.Mappings[0].End += 1; }, "page-aligned"},
      {"overlapping mappings",
       [](Capture &C) { C.Mappings[1].Start = C.Mappings[0].Start; },
       "overlaps"},
      {"huge mapping",
       [](Capture &C) { C.Mappings.back().End = 1ULL << 40; },
       "below 4 GiB"},
      {"page outside every mapping",
       [](Capture &C) { C.Pages[0].Addr = 0x90000000; }, "captured page"},
      {"short page", [](Capture &C) { C.Pages[0].Bytes.resize(100); },
       "captured page"},
  };
  Replayer R(App.File, Env.Natives, Env.Config);
  for (const Mutation &Mut : Mutations) {
    SCOPED_TRACE(Mut.What);
    Capture Bad = Cap;
    Mut.Apply(Bad);
    support::Result<InterpretedReplayResult> IR = R.interpretedReplay(Bad);
    ASSERT_FALSE(IR.ok());
    EXPECT_EQ(IR.error().Code, support::ErrorCode::CaptureFailed);
    EXPECT_NE(IR.error().Message.find(Mut.Mentions), std::string::npos)
        << IR.error().Message;
  }
  EXPECT_TRUE(R.interpretedReplay(Cap).ok());
}

TEST(Replay, TypeProfileFromInterpretedReplay) {
  DexBuilder B;
  testprogs::definePolyShapes(B);
  DexFile File = B.build();
  MethodId Poly = File.findMethod("polyLoop");

  os::Kernel Kernel;
  os::Process &Proc = Kernel.spawn();
  vm::NativeRegistry Natives = vm::NativeRegistry::standardLibrary();
  vm::RuntimeConfig Config;
  vm::Runtime::mapStandardLayout(Proc.space(), File, Config);
  vm::Runtime RT(Proc.space(), File, Natives, Config);

  CaptureManager CM(Kernel, Proc, RT);
  CM.armCapture(Poly);
  ASSERT_TRUE(RT.call(Poly, {Value::fromI64(30)}).ok());
  Capture Cap = CM.takeCapture().value();

  Replayer R(File, Natives, Config);
  InterpretedReplayResult IR = R.interpretedReplay(Cap).value();
  EXPECT_GE(IR.Profile.siteCount(), 1u);
  // Even/odd split: no class dominates at 90%.
  ClassId Dominant;
  const auto &Site = *IR.Profile.sites().begin();
  EXPECT_FALSE(IR.Profile.dominantType(Site.first.Method, Site.first.Site,
                                       0.9, Dominant));
}

// --- Hot region detection over a real profile ----------------------------------------

TEST(HotRegionDetection, FindsTheComputeKernel) {
  StatefulApp App;
  vm::RuntimeConfig Config;
  Config.AttributeCycles = true;
  AppEnv Env(App.File, Config);
  ASSERT_TRUE(Env.RT->call(App.Init, {Value::fromI64(500)}).ok());
  for (int I = 0; I != 10; ++I)
    ASSERT_TRUE(Env.RT->call(App.Step, {Value::fromI64(I)}).ok());

  auto RA = profiler::ReplayabilityAnalysis::analyze(App.File);
  auto Profile = profiler::MethodProfile::fromRuntime(*Env.RT);
  auto Region = profiler::detectHotRegion(App.File, Profile, RA);
  ASSERT_TRUE(Region.has_value());
  EXPECT_EQ(Region->Root, App.Step);
}

TEST(Replayability, IoAndNondetBlockRegions) {
  DexBuilder B;
  NativeId Print = B.addNative("print", 1, false, /*DoesIO=*/true);
  NativeId Rand =
      B.addNative("randomInt", 1, true, false, /*NonDet=*/true);
  NativeId Sin = B.addNative("sin", 1, true, false, false, "sin");

  MethodId Printer = B.declareNativeMethod(InvalidId, "printN", Print);
  MethodId Roller = B.declareNativeMethod(InvalidId, "rollN", Rand);
  (void)Roller;

  MethodId UsesIo = B.declareFunction(InvalidId, "usesIo", 1, false);
  {
    FunctionBuilder F = B.beginBody(UsesIo);
    F.invokeStatic(NoReg, Printer, {F.param(0)});
    F.retVoid();
    B.endBody(F);
  }
  MethodId CallsIo = B.declareFunction(InvalidId, "callsIo", 1, false);
  {
    FunctionBuilder F = B.beginBody(CallsIo);
    F.invokeStatic(NoReg, UsesIo, {F.param(0)});
    F.retVoid();
    B.endBody(F);
  }
  MethodId UsesRand = B.declareFunction(InvalidId, "usesRand", 1, true);
  {
    FunctionBuilder F = B.beginBody(UsesRand);
    RegIdx R = F.newReg();
    F.invokeNative(R, Rand, {F.param(0)});
    F.ret(R);
    B.endBody(F);
  }
  MethodId PureMath = B.declareFunction(InvalidId, "pureMath", 1, true);
  {
    FunctionBuilder F = B.beginBody(PureMath);
    RegIdx R = F.newReg();
    F.invokeNative(R, Sin, {F.param(0)});
    F.ret(R);
    B.endBody(F);
  }
  MethodId Thrower = B.declareFunction(InvalidId, "thrower", 0, false,
                                       MF_HasTryCatch);
  {
    FunctionBuilder F = B.beginBody(Thrower);
    F.retVoid();
    B.endBody(F);
  }
  DexFile File = B.build();

  auto RA = profiler::ReplayabilityAnalysis::analyze(File);
  EXPECT_FALSE(RA.isReplayable(UsesIo));
  EXPECT_FALSE(RA.isReplayable(CallsIo)); // transitive
  EXPECT_FALSE(RA.isReplayable(UsesRand));
  EXPECT_FALSE(RA.isReplayable(Thrower));
  EXPECT_TRUE(RA.isReplayable(PureMath)); // intrinsic-replaceable JNI
  EXPECT_FALSE(RA.isCompilable(Printer)); // native
}

TEST(Replayability, VirtualDispatchIsConservative) {
  DexBuilder B;
  NativeId Print = B.addNative("print", 1, false, true);
  ClassId Base = B.addClass("Base");
  ClassId Bad = B.addClass("Bad", Base);
  MethodId BaseF = B.declareVirtual(Base, "f", 1, false);
  MethodId BadF = B.declareVirtual(Bad, "f", 1, false);
  {
    FunctionBuilder F = B.beginBody(BaseF);
    F.retVoid();
    B.endBody(F);
  }
  {
    FunctionBuilder F = B.beginBody(BadF);
    RegIdx T = F.immI(1);
    F.invokeNative(NoReg, Print, {T});
    F.retVoid();
    B.endBody(F);
  }
  MethodId Caller = B.declareFunction(InvalidId, "vcaller", 0, false);
  {
    FunctionBuilder F = B.beginBody(Caller);
    RegIdx Obj = F.newReg();
    F.newInstance(Obj, Base); // dynamically always Base...
    F.invokeVirtual(NoReg, BaseF, {Obj});
    F.retVoid();
    B.endBody(F);
  }
  DexFile File = B.build();
  auto RA = profiler::ReplayabilityAnalysis::analyze(File);
  // ...but statically, Bad.f could be the target: conservative block.
  EXPECT_FALSE(RA.isReplayable(Caller));
}

TEST(Breakdown, SharesSumToOne) {
  StatefulApp App;
  vm::RuntimeConfig Config;
  Config.AttributeCycles = true;
  AppEnv Env(App.File, Config);
  ASSERT_TRUE(Env.RT->call(App.Init, {Value::fromI64(200)}).ok());
  for (int I = 0; I != 5; ++I)
    ASSERT_TRUE(Env.RT->call(App.Step, {Value::fromI64(I)}).ok());

  auto RA = profiler::ReplayabilityAnalysis::analyze(App.File);
  auto Profile = profiler::MethodProfile::fromRuntime(*Env.RT);
  auto Region = profiler::detectHotRegion(App.File, Profile, RA);
  ASSERT_TRUE(Region.has_value());
  auto BD =
      profiler::computeBreakdown(App.File, Profile, RA, &*Region);
  double Total =
      BD.Compiled + BD.Cold + BD.Jni + BD.Unreplayable + BD.Uncompilable;
  EXPECT_NEAR(Total, 1.0, 1e-9);
  EXPECT_GT(BD.Compiled, 0.5); // step dominates
}

// --- Fork-server replay sessions (DESIGN.md §16) -----------------------------

TEST(Session, SessionReplayBitIdenticalToFresh) {
  StatefulApp App;
  AppEnv Env(App.File);
  Capture Cap = captureStep(App, Env, 300, 9);

  vm::CodeCache Android;
  hgraph::compileAllAndroid(App.File, {App.Step}, Android);

  Replayer Fresh(App.File, Env.Natives, Env.Config);
  Replayer Session(App.File, Env.Natives, Env.Config);
  Session.setSessionMode(true);

  // Every replay in the session must be bit-identical to its fresh twin:
  // the delta reset restores the exact pre-replay memory, and each replay
  // gets a virgin Runtime (cache sim, predictor, cycle totals).
  for (int I = 0; I != 6; ++I) {
    ReplayResult A = Fresh.replay(Cap, ReplayCode::Compiled, &Android);
    ReplayResult B = Session.replay(Cap, ReplayCode::Compiled, &Android);
    ASSERT_TRUE(A.Result.ok());
    ASSERT_TRUE(B.Result.ok());
    EXPECT_EQ(A.Result.Ret.Raw, B.Result.Ret.Raw);
    EXPECT_EQ(A.Result.Cycles, B.Result.Cycles);
    EXPECT_EQ(A.Result.Insns, B.Result.Insns);
  }
  EXPECT_EQ(Session.sessionStats().SessionsCreated, 1u);
  EXPECT_EQ(Session.sessionStats().SessionReplays, 6u);
  EXPECT_EQ(Session.sessionStats().DeltaResets, 6u);
  EXPECT_GT(Session.sessionStats().PagesReverted, 0u);
  EXPECT_EQ(Session.sessionStats().FullRebuilds, 0u);
  EXPECT_EQ(Fresh.sessionStats().FreshReplays, 6u);
}

TEST(Session, VerificationMapIdenticalToFresh) {
  StatefulApp App;
  AppEnv Env(App.File);
  Capture Cap = captureStep(App, Env, 300, 4);

  Replayer Fresh(App.File, Env.Natives, Env.Config);
  Replayer Session(App.File, Env.Natives, Env.Config);
  Session.setSessionMode(true);

  auto A = Fresh.interpretedReplay(Cap);
  auto B = Session.interpretedReplay(Cap);
  ASSERT_TRUE(A.ok());
  ASSERT_TRUE(B.ok());
  EXPECT_EQ(A.value().Map.Cells, B.value().Map.Cells);
  EXPECT_EQ(A.value().Map.HasReturn, B.value().Map.HasReturn);
  EXPECT_EQ(A.value().Map.ReturnBits, B.value().Map.ReturnBits);
  // And a second session pass sees the identical map again: the reset
  // left no residue from the first interpreted replay's writes.
  auto C = Session.interpretedReplay(Cap);
  ASSERT_TRUE(C.ok());
  EXPECT_EQ(B.value().Map.Cells, C.value().Map.Cells);
}

TEST(Session, LoaderStatsAreCumulativePerSession) {
  StatefulApp App;
  AppEnv Env(App.File);
  Capture Cap = captureStep(App, Env, 300, 9);

  Replayer Session(App.File, Env.Natives, Env.Config);
  Session.setSessionMode(true);

  ReplayResult First = Session.replay(Cap, ReplayCode::Interpreter, nullptr);
  ReplayResult Later = Session.replay(Cap, ReplayCode::Interpreter, nullptr);
  // The session-reuse path must not zero the loader stats (the old bug):
  // every replay reports the cumulative per-session loader work.
  EXPECT_GT(First.Loader.PagesRestored, 0u);
  EXPECT_EQ(Later.Loader.PagesRestored, First.Loader.PagesRestored);
  EXPECT_EQ(Later.Loader.LoaderBase, First.Loader.LoaderBase);
}

TEST(Session, CaptureChangeForcesFullRebuild) {
  StatefulApp App;
  AppEnv Env(App.File);
  Capture Cap = captureStep(App, Env, 300, 9);

  Replayer Session(App.File, Env.Natives, Env.Config);
  Session.setSessionMode(true);

  auto Before = Session.interpretedReplay(Cap);
  ASSERT_TRUE(Before.ok());

  // Mutate the capture in place: different argument, same storage. The
  // fingerprint check must drop the stale session and rebuild — the
  // region's external writes (arr[i] += x) now land different values.
  Cap.Args[0] = Value::fromI64(10);
  auto After = Session.interpretedReplay(Cap);
  ASSERT_TRUE(After.ok());
  EXPECT_NE(After.value().Map.Cells, Before.value().Map.Cells);
  EXPECT_EQ(Session.sessionStats().FullRebuilds, 1u);
  EXPECT_EQ(Session.sessionStats().SessionsCreated, 2u);

  // The rebuilt session replays the mutated capture deterministically.
  auto Again = Session.interpretedReplay(Cap);
  ASSERT_TRUE(Again.ok());
  EXPECT_EQ(Again.value().Map.Cells, After.value().Map.Cells);
  EXPECT_EQ(Again.value().Replay.Result.Cycles,
            After.value().Replay.Result.Cycles);
}

TEST(Session, TurningSessionModeOffDropsSessions) {
  StatefulApp App;
  AppEnv Env(App.File);
  Capture Cap = captureStep(App, Env, 300, 9);

  Replayer R(App.File, Env.Natives, Env.Config);
  R.setSessionMode(true);
  ReplayResult A = R.replay(Cap, ReplayCode::Interpreter, nullptr);
  R.setSessionMode(false);
  ReplayResult B = R.replay(Cap, ReplayCode::Interpreter, nullptr);
  EXPECT_EQ(A.Result.Ret.Raw, B.Result.Ret.Raw);
  EXPECT_EQ(A.Result.Cycles, B.Result.Cycles);
  EXPECT_EQ(R.sessionStats().SessionReplays, 1u);
  EXPECT_EQ(R.sessionStats().FreshReplays, 1u);
}

TEST(Session, BitIdenticalAcrossWorkloads) {
  // The acceptance sweep: across kernel and interactive workloads, a
  // session-reset compiled replay is bit-identical (result, charged
  // cycles, instruction count) to a fresh-rebuild replay of the same
  // capture, replay after replay.
  const char *Names[] = {"FFT", "SOR", "Sieve", "Dhrystone",
                         "Reversi Android"};
  for (const char *Name : Names) {
    SCOPED_TRACE(Name);
    workloads::Application App = workloads::buildByName(Name);
    core::PipelineConfig Config;
    core::IterativeCompiler Pipeline(Config);
    auto P = Pipeline.profileApp(App);
    ASSERT_TRUE(P.Region.has_value());
    auto Captured = Pipeline.captureRegion(*P.Instance, *P.Region);
    ASSERT_TRUE(Captured.has_value());

    vm::NativeRegistry Natives = vm::NativeRegistry::standardLibrary();
    vm::CodeCache Android;
    hgraph::compileAllAndroid(*App.File, P.Region->Methods, Android);

    Replayer Fresh(*App.File, Natives, App.RtConfig, 3);
    Replayer Session(*App.File, Natives, App.RtConfig, 3);
    Session.setSessionMode(true);
    for (int I = 0; I != 3; ++I) {
      ReplayResult A =
          Fresh.replay(Captured->Cap, ReplayCode::Compiled, &Android);
      ReplayResult B =
          Session.replay(Captured->Cap, ReplayCode::Compiled, &Android);
      EXPECT_EQ(A.Result.Ret.Raw, B.Result.Ret.Raw);
      EXPECT_EQ(A.Result.Cycles, B.Result.Cycles);
      EXPECT_EQ(A.Result.Insns, B.Result.Insns);
      EXPECT_EQ(static_cast<int>(A.Result.Trap),
                static_cast<int>(B.Result.Trap));
    }
    EXPECT_EQ(Session.sessionStats().SessionsCreated, 1u);
    EXPECT_EQ(Session.sessionStats().SessionReplays, 3u);
  }
}

// --- Shared runtime image ------------------------------------------------------

// App processes and replay sessions of one boot map the very same physical
// image pages: nothing is copied until someone writes.
TEST(SharedRuntimeImage, ProcessesAndReplayerSessionsSharePages) {
  workloads::Application Sieve = workloads::buildByName("Sieve");
  core::AppInstance A(Sieve, /*Seed=*/1), B(Sieve, /*Seed=*/2);

  StatefulApp App;
  AppEnv Env(App.File);
  Capture Cap = captureStep(App, Env, 50, 6);
  Replayer R(App.File, Env.Natives, Env.Config);
  R.setSessionMode(true);
  ASSERT_TRUE(R.interpretedReplay(Cap).ok());
  const os::AddressSpace *Session = R.sessionSpace(Cap);
  ASSERT_NE(Session, nullptr);

  ASSERT_EQ(Sieve.RtConfig.BootId, Cap.BootId);
  const std::vector<os::PhysPageRef> &Image =
      vm::Runtime::runtimeImage(Cap.BootId);
  for (uint64_t K : {0u, 1u, 511u, 1500u, 3071u}) {
    SCOPED_TRACE(K);
    uint64_t Addr = vm::Layout::RuntimeImageBase + K * os::PageSize;
    EXPECT_EQ(A.process().space().physicalPage(Addr), Image[K]);
    EXPECT_EQ(B.process().space().physicalPage(Addr), Image[K]);
    EXPECT_EQ(Session->physicalPage(Addr), Image[K]);
    EXPECT_EQ(Env.Proc.space().physicalPage(Addr), Image[K]);
  }
}
