//===- tests/RobustnessTests.cpp - Allocator, verifier, and fuzz tests --------===//
//
// Deeper invariants: the linear-scan register allocator never merges
// conflicting live ranges; the SSA verifier rejects each class of broken
// IR; randomly generated pass pipelines (including the unsound aggressive
// modes) always classify cleanly — compile-error, crash, timeout, wrong
// output, or verified-correct — and never corrupt the process hosting the
// search.
//
//===----------------------------------------------------------------------===//

#include "core/IterativeCompiler.h"

#include "hgraph/Build.h"
#include "lir/Codegen.h"
#include "lir/FromHGraph.h"
#include "lir/Passes.h"
#include "core/OnlineEvaluator.h"
#include "lir/Analysis.h"
#include "lir/Backend.h"
#include "search/Genome.h"
#include "tests/TestPrograms.h"
#include "vm/MachineUtil.h"
#include "workloads/BuilderUtil.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace ropt;
using vm::MInsn;
using vm::MNoReg;
using vm::MOpcode;
using vm::MRegIdx;

// --- Linear-scan register allocation ------------------------------------------

namespace {

MInsn mi(MOpcode Op, MRegIdx A = MNoReg, MRegIdx B = MNoReg,
         MRegIdx C = MNoReg) {
  MInsn I;
  I.Op = Op;
  I.A = A;
  I.B = B;
  I.C = C;
  return I;
}

} // namespace

TEST(LinearScan, ReusesDeadRegisters) {
  // r2 = 1; r3 = r2+r2; r4 = 5; r5 = r4+r4; ret r5 — r2/r3 die before
  // r4/r5 live: two physical registers suffice beyond the params.
  vm::MachineFunction Fn;
  Fn.ParamCount = 0;
  Fn.NumRegs = 6;
  Fn.Code.push_back(mi(MOpcode::MMovImmI, 2));
  Fn.Code.push_back(mi(MOpcode::MAddI, 3, 2, 2));
  Fn.Code.push_back(mi(MOpcode::MMovImmI, 4));
  Fn.Code.push_back(mi(MOpcode::MAddI, 5, 4, 4));
  Fn.Code.push_back(mi(MOpcode::MRet, MNoReg, 5));
  uint16_t Regs = vm::allocateRegistersLinearScan(Fn);
  EXPECT_LE(Regs, 2);
}

TEST(LinearScan, LoopCarriedValuesKeepTheirRegisters) {
  // A two-register loop: i and acc are live across the back edge; a
  // loop-local temporary must not steal either register.
  vm::MachineFunction Fn;
  Fn.ParamCount = 1; // n in r0
  Fn.NumRegs = 5;
  // r1 = 0 (acc); r2 = 0 (i)
  Fn.Code.push_back(mi(MOpcode::MMovImmI, 1));
  Fn.Code.push_back(mi(MOpcode::MMovImmI, 2));
  // loop: r3 = i*i (temp); acc += r3; i += 1; if i < n goto loop
  MInsn T = mi(MOpcode::MMulI, 3, 2, 2);
  Fn.Code.push_back(T);
  Fn.Code.push_back(mi(MOpcode::MAddI, 1, 1, 3));
  MInsn One = mi(MOpcode::MMovImmI, 4);
  One.ImmI = 1;
  Fn.Code.push_back(One);
  Fn.Code.push_back(mi(MOpcode::MAddI, 2, 2, 4));
  MInsn Br = mi(MOpcode::MIfLt, MNoReg, 2, 0);
  Br.Target = 2;
  Fn.Code.push_back(Br);
  Fn.Code.push_back(mi(MOpcode::MRet, MNoReg, 1));

  vm::allocateRegistersLinearScan(Fn);
  // Execute-equivalent check: run through the executor via a runtime is
  // heavy here; instead assert no two of {acc, i, temp} share a register
  // while simultaneously live: acc (def at 0) and i (def at 1) and n
  // (param) must be pairwise distinct.
  MRegIdx Acc = Fn.Code[0].A, I = Fn.Code[1].A, N = Fn.Code[6].C;
  EXPECT_NE(Acc, I);
  EXPECT_NE(Acc, N);
  EXPECT_NE(I, N);
}

TEST(LinearScan, ParametersKeepTheirSlots) {
  vm::MachineFunction Fn;
  Fn.ParamCount = 3;
  Fn.NumRegs = 5;
  Fn.Code.push_back(mi(MOpcode::MAddI, 3, 0, 1));
  Fn.Code.push_back(mi(MOpcode::MAddI, 4, 3, 2));
  Fn.Code.push_back(mi(MOpcode::MRet, MNoReg, 4));
  vm::allocateRegistersLinearScan(Fn);
  // Uses of params still reference registers 0..2.
  EXPECT_EQ(Fn.Code[0].B, 0);
  EXPECT_EQ(Fn.Code[0].C, 1);
  EXPECT_EQ(Fn.Code[1].C, 2);
}

TEST(LinearScan, SemanticsPreservedOnRealKernels) {
  // Differential: allocate vs no-allocation on a matrix kernel.
  dex::DexBuilder B;
  testprogs::defineMatrixSum(B);
  dex::DexFile File = B.build();
  dex::MethodId Id = File.findMethod("matSum");

  lir::LFunction Fn =
      lir::fromHGraph(hgraph::buildHGraph(File, Id));
  auto None = lir::emitMachine(Fn, hgraph::RegAllocKind::None);
  auto Scan = lir::emitMachine(Fn, hgraph::RegAllocKind::LinearScan);
  EXPECT_LT(Scan->NumRegs, None->NumRegs);

  for (const std::shared_ptr<vm::MachineFunction> &FnPtr :
       std::vector{None, Scan}) {
    testprogs::Harness H(File);
    H.RT->codeCache().install(FnPtr);
    vm::CallResult R = H.run("matSum", {vm::Value::fromI64(10)});
    ASSERT_TRUE(R.ok());
    EXPECT_EQ(R.Ret.asI64(), 900); // sum_{i,j<10} (i+j) = n^2(n-1)
  }
}

// --- SSA verifier negatives ---------------------------------------------------

namespace {

lir::LFunction tinyValid() {
  lir::LFunction Fn;
  Fn.ParamCount = 1;
  Fn.NumValues = 1;
  Fn.Blocks.resize(1);
  lir::LInsn I;
  I.Op = MOpcode::MMovImmI;
  I.Dst = Fn.newValue();
  Fn.Blocks[0].Insns.push_back(I);
  Fn.Blocks[0].Term.K = lir::LTerminator::Kind::Ret;
  Fn.Blocks[0].Term.A = 1;
  return Fn;
}

} // namespace

TEST(LirVerifier, AcceptsValid) {
  lir::LFunction Fn = tinyValid();
  std::string E;
  EXPECT_TRUE(Fn.verify(E)) << E;
}

TEST(LirVerifier, RejectsDoubleDefinition) {
  lir::LFunction Fn = tinyValid();
  Fn.Blocks[0].Insns.push_back(Fn.Blocks[0].Insns[0]); // v1 defined twice
  std::string E;
  EXPECT_FALSE(Fn.verify(E));
  EXPECT_NE(E.find("twice"), std::string::npos);
}

TEST(LirVerifier, RejectsUseBeforeDef) {
  lir::LFunction Fn = tinyValid();
  lir::LInsn Use;
  Use.Op = MOpcode::MNegI;
  Use.Dst = Fn.newValue();
  Use.A = 3; // defined below, never above
  lir::LInsn Def;
  Def.Op = MOpcode::MMovImmI;
  Def.Dst = Fn.newValue();
  Fn.Blocks[0].Insns.insert(Fn.Blocks[0].Insns.begin(), Use);
  Fn.Blocks[0].Insns.push_back(Def);
  std::string E;
  EXPECT_FALSE(Fn.verify(E));
}

TEST(LirVerifier, RejectsPhiArityMismatch) {
  lir::LFunction Fn = tinyValid();
  lir::LPhi P;
  P.Dst = Fn.newValue();
  P.In = {0, 0}; // two inputs, zero preds
  Fn.Blocks[0].Phis.push_back(P);
  std::string E;
  EXPECT_FALSE(Fn.verify(E));
  EXPECT_NE(E.find("phi"), std::string::npos);
}

TEST(LirVerifier, RejectsOutOfRangeSuccessor) {
  lir::LFunction Fn = tinyValid();
  Fn.Blocks[0].Term.K = lir::LTerminator::Kind::Goto;
  Fn.Blocks[0].Term.Taken = 99;
  std::string E;
  EXPECT_FALSE(Fn.verify(E));
}

TEST(LirVerifier, RejectsCrossBlockDominanceViolation) {
  lir::LFunction Fn;
  Fn.ParamCount = 1;
  Fn.NumValues = 1;
  Fn.Blocks.resize(3);
  // bb0: if p0 -> bb1 else bb2
  Fn.Blocks[0].Term.K = lir::LTerminator::Kind::Cond;
  Fn.Blocks[0].Term.CondOp = MOpcode::MIfNez;
  Fn.Blocks[0].Term.A = 0;
  Fn.Blocks[0].Term.Taken = 1;
  Fn.Blocks[0].Term.Fall = 2;
  // bb1 defines v1, returns it.
  lir::LInsn Def;
  Def.Op = MOpcode::MMovImmI;
  Def.Dst = Fn.newValue();
  Fn.Blocks[1].Insns.push_back(Def);
  Fn.Blocks[1].Term.K = lir::LTerminator::Kind::Ret;
  Fn.Blocks[1].Term.A = Def.Dst;
  // bb2 uses v1 — not dominated.
  Fn.Blocks[2].Term.K = lir::LTerminator::Kind::Ret;
  Fn.Blocks[2].Term.A = Def.Dst;
  Fn.computePreds();
  std::string E;
  EXPECT_FALSE(Fn.verify(E));
  EXPECT_NE(E.find("dominated"), std::string::npos);
}

// --- MachineUtil classification -------------------------------------------------

TEST(MachineUtil, StoreValueIsAUseNotADef) {
  MInsn Store = mi(MOpcode::MAStore, 1, 2, 3);
  EXPECT_FALSE(vm::definesA(Store));
  std::vector<MRegIdx> Uses;
  vm::forEachUse(Store, [&](MRegIdx R) { Uses.push_back(R); });
  EXPECT_EQ(Uses.size(), 3u); // value, array, index
}

TEST(MachineUtil, CallDefsAndUses) {
  MInsn Call = mi(MOpcode::MCallStatic, 5);
  Call.ArgCount = 2;
  Call.Args[0] = 7;
  Call.Args[1] = 8;
  EXPECT_TRUE(vm::definesA(Call));
  std::vector<MRegIdx> Uses;
  vm::forEachUse(Call, [&](MRegIdx R) { Uses.push_back(R); });
  EXPECT_EQ(Uses, (std::vector<MRegIdx>{7, 8}));
}

TEST(MachineUtil, EffectClassification) {
  EXPECT_TRUE(vm::isPureOp(MOpcode::MAddI));
  EXPECT_FALSE(vm::isPureOp(MOpcode::MDivI)); // traps
  EXPECT_TRUE(vm::isLoadOp(MOpcode::MALoad));
  EXPECT_TRUE(vm::isStoreOp(MOpcode::MStoreStatic));
  EXPECT_TRUE(vm::isCheckOp(MOpcode::MCheckBounds));
  EXPECT_TRUE(vm::hasSideEffects(mi(MOpcode::MSafepoint)));
  EXPECT_FALSE(vm::hasSideEffects(mi(MOpcode::MALoad, 1, 2, 3)));
}

// --- Loop-pass edge cases ---------------------------------------------------------

TEST(LoopEdgeCases, UnrollZeroAndOneTripCounts) {
  dex::DexBuilder B;
  testprogs::defineSumTo(B);
  dex::DexFile File = B.build();
  for (int64_t N : {0, 1}) {
    dex::MethodId Id = File.findMethod("sumTo");
    lir::LFunction Fn =
        lir::fromHGraph(hgraph::buildHGraph(File, Id));
    lir::simplifyCfg(Fn);
    lir::FunctionAnalyses RotateAnalyses, UnrollAnalyses;
    lir::loopRotate(Fn, RotateAnalyses);
    lir::loopUnroll(Fn, 8, /*AssumeDivisible=*/false, UnrollAnalyses);
    std::string E;
    ASSERT_TRUE(Fn.verify(E)) << E;
    testprogs::Harness H(File);
    H.RT->codeCache().install(lir::emitMachine(Fn));
    vm::CallResult R = H.run("sumTo", {vm::Value::fromI64(N)});
    ASSERT_TRUE(R.ok());
    EXPECT_EQ(R.Ret.asI64(), N == 0 ? 0 : 0); // sum of 0..N-1
  }
}

TEST(LoopEdgeCases, PeelMoreThanTripCount) {
  dex::DexBuilder B;
  testprogs::defineSumTo(B);
  dex::DexFile File = B.build();
  lir::LFunction Fn = lir::fromHGraph(
      hgraph::buildHGraph(File, File.findMethod("sumTo")));
  lir::simplifyCfg(Fn);
  lir::FunctionAnalyses Analyses;
  lir::loopRotate(Fn, Analyses);
  lir::loopPeel(Fn, 8); // trip count will be 3
  std::string E;
  ASSERT_TRUE(Fn.verify(E)) << E;
  testprogs::Harness H(File);
  H.RT->codeCache().install(lir::emitMachine(Fn));
  vm::CallResult R = H.run("sumTo", {vm::Value::fromI64(3)});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Ret.asI64(), 3); // 0+1+2
}

TEST(LoopEdgeCases, LicmDoesNotHoistLoadsPastStores) {
  // sum += arr[0]; arr[0] = i  — the load is NOT invariant.
  dex::DexBuilder B;
  dex::MethodId M = B.declareFunction(dex::InvalidId, "ls", 1, true);
  dex::FunctionBuilder F = B.beginBody(M);
  dex::RegIdx Arr = F.newReg(), Ten = F.immI(10), Zero = F.immI(0),
              One = F.immI(1);
  F.newArray(Arr, Ten, dex::Type::I64);
  dex::RegIdx I = F.newReg(), Sum = F.newReg();
  F.constI(I, 0);
  F.constI(Sum, 0);
  auto Head = F.newLabel(), Done = F.newLabel();
  F.bind(Head);
  F.ifGe(I, F.param(0), Done);
  dex::RegIdx V = F.newReg();
  F.aload(V, Arr, Zero, dex::Type::I64);
  F.addI(Sum, Sum, V);
  F.astore(Arr, Zero, I, dex::Type::I64);
  F.addI(I, I, One);
  F.jump(Head);
  F.bind(Done);
  F.ret(Sum);
  B.endBody(F);
  dex::DexFile File = B.build();

  lir::LFunction Fn =
      lir::fromHGraph(hgraph::buildHGraph(File, M));
  lir::FunctionAnalyses Analyses;
  lir::licm(Fn, /*SpeculateDiv=*/false, Analyses);
  std::string E;
  ASSERT_TRUE(Fn.verify(E)) << E;

  testprogs::Harness Ref(File);
  Ref.RT->setMode(vm::ExecMode::InterpretOnly);
  int64_t Expected = Ref.run("ls", {vm::Value::fromI64(5)}).Ret.asI64();
  testprogs::Harness H(File);
  H.RT->codeCache().install(lir::emitMachine(Fn));
  EXPECT_EQ(H.run("ls", {vm::Value::fromI64(5)}).Ret.asI64(), Expected);
}

// --- Pipeline fuzzing: random genomes always classify cleanly ---------------------

namespace {

/// Shared FFT capture for the fuzz battery (built once).
struct FuzzFixture {
  workloads::Application App = workloads::buildByName("FFT");
  core::PipelineConfig Config;
  profiler::HotRegion Region;
  std::vector<core::CapturedRegion> Captures;
  std::unique_ptr<core::RegionEvaluator> Eval;

  FuzzFixture() {
    core::IterativeCompiler Pipeline(Config);
    auto P = Pipeline.profileApp(App);
    Region = *P.Region;
    Captures = Pipeline.captureRegionMulti(*P.Instance, Region, 1);
    Eval = std::make_unique<core::RegionEvaluator>(App, Region, Captures,
                                                   Config);
  }

  static FuzzFixture &get() {
    static FuzzFixture F;
    return F;
  }
};

class GenomeFuzz : public ::testing::TestWithParam<int> {};

} // namespace

INSTANTIATE_TEST_SUITE_P(Seeds, GenomeFuzz, ::testing::Range(0, 40));

TEST_P(GenomeFuzz, RandomPipelineClassifiesCleanly) {
  FuzzFixture &F = FuzzFixture::get();
  Rng R(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  search::GenomeConfig GC;
  GC.AggressiveProb = 0.7; // stress the unsound modes hard
  search::Genome G = search::randomGenome(R, GC);
  for (int I = 0; I != 3; ++I)
    search::mutate(G, R, GC);

  search::Evaluation E = F.Eval->evaluatePipeline(G.Passes, G.RegAlloc);
  // Whatever happened, it happened *inside the sandboxed evaluation*: we
  // got a classification, and the evaluator remains usable.
  switch (E.Kind) {
  case search::EvalKind::Ok:
    EXPECT_GT(E.MedianCycles, 0.0);
    EXPECT_GT(E.CodeSize, 0u);
    break;
  case search::EvalKind::CompileError:
  case search::EvalKind::RuntimeCrash:
  case search::EvalKind::RuntimeTimeout:
  case search::EvalKind::WrongOutput:
    break;
  case search::EvalKind::Unevaluated:
    FAIL() << "evaluatePipeline() returned an unevaluated result";
    break;
  }
  // A correct baseline still evaluates correctly afterwards.
  search::Evaluation Android = F.Eval->evaluateAndroid();
  EXPECT_TRUE(Android.ok());
}

TEST_P(GenomeFuzz, ValidGenomesAreDeterministic) {
  FuzzFixture &F = FuzzFixture::get();
  Rng R(static_cast<uint64_t>(GetParam()) * 104729 + 7);
  search::Genome G = search::randomGenome(R, F.Config.Search.GA.Genomes);

  std::optional<vm::CodeCache> C1 = F.Eval->compileRegion(G);
  std::optional<vm::CodeCache> C2 = F.Eval->compileRegion(G);
  ASSERT_EQ(C1.has_value(), C2.has_value());
  if (!C1)
    return;
  ASSERT_EQ(C1->size(), C2->size());
  for (const auto &KV : C1->functions()) {
    const vm::MachineFunction *Other = C2->lookup(KV.first);
    ASSERT_NE(Other, nullptr);
    EXPECT_EQ(KV.second->Source->Code.size(), Other->Code.size());
    EXPECT_EQ(KV.second->Source->NumRegs, Other->NumRegs);
  }
}

// --- Capture with GC inside the region --------------------------------------------

TEST(GcInRegion, AllocatingKernelReplaysExactly) {
  // A kernel that allocates enough to trigger collections mid-region:
  // the GC pauses and page walks are part of the captured determinism.
  dex::DexBuilder B;
  dex::MethodId Init = B.declareFunction(dex::InvalidId, "init", 1, false);
  {
    dex::FunctionBuilder F = B.beginBody(Init);
    F.retVoid();
    B.endBody(F);
  }
  dex::MethodId Kernel =
      B.declareFunction(dex::InvalidId, "allocLoop", 1, true);
  {
    dex::FunctionBuilder F = B.beginBody(Kernel);
    dex::RegIdx I = F.newReg(), Sz = F.immI(512), Arr = F.newReg(),
                Sum = F.newReg(), Zero = F.immI(0);
    F.constI(Sum, 0);
    testprogs::Harness *Unused = nullptr;
    (void)Unused;
    workloads::emitCountedLoop(F, I, F.param(0), [&] {
      F.newArray(Arr, Sz, dex::Type::I64);
      F.astore(Arr, Zero, I, dex::Type::I64);
      dex::RegIdx V = F.newReg();
      F.aload(V, Arr, Zero, dex::Type::I64);
      F.addI(Sum, Sum, V);
    });
    F.ret(Sum);
    B.endBody(F);
  }
  dex::DexFile File = B.build();

  os::Kernel Kern;
  os::Process &Proc = Kern.spawn();
  vm::NativeRegistry Natives = vm::NativeRegistry::standardLibrary();
  vm::RuntimeConfig Config;
  Config.GcThresholdBytes = 512 * 1024; // several GCs inside the region
  vm::Runtime::mapStandardLayout(Proc.space(), File, Config);
  vm::Runtime RT(Proc.space(), File, Natives, Config);
  RT.call(Init, {vm::Value::fromI64(0)});

  capture::CaptureManager CM(Kern, Proc, RT);
  CM.armCapture(Kernel);
  vm::CallResult Live = RT.call(Kernel, {vm::Value::fromI64(400)});
  ASSERT_TRUE(Live.ok());
  ASSERT_TRUE(CM.captureReady());
  capture::Capture Cap = CM.takeCapture().value();
  EXPECT_GE(RT.heap().gcRuns(), 1u);

  replay::Replayer Rep(File, Natives, Config);
  replay::ReplayResult A =
      Rep.replay(Cap, replay::ReplayCode::Interpreter, nullptr);
  replay::ReplayResult Bb =
      Rep.replay(Cap, replay::ReplayCode::Interpreter, nullptr);
  ASSERT_TRUE(A.Result.ok());
  EXPECT_EQ(A.Result.Ret.asI64(), Live.Ret.asI64());
  EXPECT_EQ(A.Result.Cycles, Bb.Result.Cycles); // GC pauses replay exactly
}
