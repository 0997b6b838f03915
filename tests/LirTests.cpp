//===- tests/LirTests.cpp - lir/ unit and differential tests -----------------===//

#include "core/IterativeCompiler.h"
#include "hgraph/AndroidCompiler.h"
#include "hgraph/Build.h"
#include "lir/Analysis.h"
#include "lir/Backend.h"
#include "lir/Codegen.h"
#include "lir/CompileMemo.h"
#include "lir/FromHGraph.h"
#include "lir/Passes.h"
#include "replay/Replayer.h"
#include "search/Genome.h"
#include "support/Format.h"
#include "tests/TestPrograms.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <thread>

using namespace ropt;
using namespace ropt::dex;
using namespace ropt::lir;
using namespace ropt::testprogs;
using vm::MOpcode;

namespace {

LFunction buildLir(const DexFile &File, const std::string &Name) {
  MethodId Id = File.findMethod(Name);
  EXPECT_NE(Id, InvalidId);
  return fromHGraph(hgraph::buildHGraph(File, Id));
}

size_t countLOps(const LFunction &Fn, MOpcode Op) {
  size_t Count = 0;
  for (const LBlock &B : Fn.Blocks)
    for (const LInsn &I : B.Insns)
      Count += (I.Op == Op);
  return Count;
}

size_t countPhis(const LFunction &Fn) {
  size_t Count = 0;
  for (const LBlock &B : Fn.Blocks)
    Count += B.Phis.size();
  return Count;
}

/// Runs `Name` interpreted and through the given pipeline; expects equal
/// results, valid IR, and no traps.
void expectPipelineParity(const DexFile &File, const std::string &Name,
                          std::vector<vm::Value> Args,
                          std::vector<PassInstance> Pipeline,
                          uint64_t *CompiledCycles = nullptr) {
  MethodId Id = File.findMethod(Name);
  ASSERT_NE(Id, InvalidId);

  Harness Interp(File);
  Interp.RT->setMode(vm::ExecMode::InterpretOnly);
  vm::CallResult RI = Interp.RT->call(Id, Args);
  ASSERT_EQ(RI.Trap, vm::TrapKind::None);

  CompileOptions Options;
  Options.Pipeline = std::move(Pipeline);
  Harness Compiled(File);
  std::vector<MethodId> All;
  for (const auto &M : File.methods())
    if (!M.IsNative)
      All.push_back(M.Id);
  CompileStatus Status =
      compileAllLlvm(File, All, Options, Compiled.RT->codeCache());
  ASSERT_EQ(Status, CompileStatus::Ok);
  vm::CallResult RC = Compiled.RT->call(Id, Args);
  ASSERT_EQ(RC.Trap, vm::TrapKind::None) << Name;
  EXPECT_EQ(RI.Ret.Raw, RC.Ret.Raw) << Name;
  if (CompiledCycles)
    *CompiledCycles = RC.Cycles;
}

PassInstance mk(PassId Id, int IntParam = 0, bool Aggressive = false) {
  PassInstance P;
  P.Id = Id;
  P.IntParam = IntParam;
  P.Aggressive = Aggressive;
  return P;
}

} // namespace

// --- Analysis ------------------------------------------------------------------

TEST(Analysis, DomTreeOfLoop) {
  DexBuilder B;
  defineSumTo(B);
  DexFile File = B.build();
  LFunction Fn = buildLir(File, "sumTo");
  DomTree DT = DomTree::compute(Fn);

  // Entry dominates everything reachable.
  for (uint32_t Id : Fn.reversePostOrder())
    EXPECT_TRUE(DT.dominates(0, Id));
  EXPECT_EQ(DT.idom(0), 0u);
}

TEST(Analysis, LoopDetection) {
  DexBuilder B;
  defineSumTo(B);
  DexFile File = B.build();
  LFunction Fn = buildLir(File, "sumTo");
  DomTree DT = DomTree::compute(Fn);
  LoopInfo LI = LoopInfo::compute(Fn, DT);

  ASSERT_EQ(LI.loops().size(), 1u);
  const Loop &L = LI.loops()[0];
  EXPECT_GE(L.Blocks.size(), 2u);
  EXPECT_EQ(L.Latches.size(), 1u);
  EXPECT_FALSE(L.Exits.empty());
}

TEST(Analysis, NestedLoops) {
  DexBuilder B;
  defineMatrixSum(B);
  DexFile File = B.build();
  LFunction Fn = buildLir(File, "matSum");
  DomTree DT = DomTree::compute(Fn);
  LoopInfo LI = LoopInfo::compute(Fn, DT);
  // i-loop, j-loop, k-loop.
  EXPECT_EQ(LI.loops().size(), 3u);
}

// --- SSA construction --------------------------------------------------------------

TEST(FromHGraph, ProducesValidSsa) {
  DexBuilder B;
  defineSumTo(B);
  defineDotProduct(B);
  defineMatrixSum(B);
  definePolyShapes(B);
  DexFile File = B.build();

  for (const char *Name : {"sumTo", "dot", "matSum", "polyLoop"}) {
    LFunction Fn = buildLir(File, Name);
    std::string Error;
    EXPECT_TRUE(Fn.verify(Error)) << Name << ": " << Error;
    EXPECT_GT(countPhis(Fn), 0u) << Name; // loops need phis
  }
}

TEST(FromHGraph, LoopVariablesBecomePhis) {
  DexBuilder B;
  defineSumTo(B);
  DexFile File = B.build();
  LFunction Fn = buildLir(File, "sumTo");
  // sum and i merge at the loop header: at least 2 phis somewhere.
  EXPECT_GE(countPhis(Fn), 2u);
}

TEST(FromHGraph, ConservativeBoundariesDuplicateSafepoints) {
  DexBuilder B;
  defineSumTo(B);
  DexFile File = B.build();
  MethodId Id = File.findMethod("sumTo");
  hgraph::HGraph G = hgraph::buildHGraph(File, Id);

  TranslateOptions Loose;
  Loose.ConservativeBoundaries = false;
  LFunction Tight = fromHGraph(G, Loose);
  LFunction Fat = fromHGraph(G);
  EXPECT_EQ(countLOps(Fat, MOpcode::MSafepoint),
            2 * countLOps(Tight, MOpcode::MSafepoint));
}

TEST(FromHGraph, RoundTripSemantics) {
  DexBuilder B;
  defineSumTo(B);
  DexFile File = B.build();
  // No passes at all (-O0): translate + codegen must still be correct.
  expectPipelineParity(File, "sumTo", {vm::Value::fromI64(137)}, {});
}

// --- Scalar pass unit tests --------------------------------------------------------

TEST(LirPasses, ConstPropFoldsBranches) {
  DexBuilder B;
  MethodId M = B.declareFunction(InvalidId, "cp", 0, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx A = F.immI(10), Bv = F.immI(3), C = F.newReg();
  auto Big = F.newLabel();
  F.ifGt(A, Bv, Big);
  F.constI(C, 111);
  F.ret(C);
  F.bind(Big);
  F.constI(C, 222);
  F.ret(C);
  B.endBody(F);
  DexFile File = B.build();
  LFunction Fn = buildLir(File, "cp");

  EXPECT_TRUE(constProp(Fn));
  // The comparison is decided at compile time: one side is unreachable.
  size_t CondCount = 0;
  for (const LBlock &Blk : Fn.Blocks)
    CondCount += Blk.Term.K == LTerminator::Kind::Cond;
  EXPECT_EQ(CondCount, 0u);

  std::string Error;
  EXPECT_TRUE(Fn.verify(Error)) << Error;
  Harness H(File);
  H.RT->codeCache().install(lir::emitMachine(Fn));
  EXPECT_EQ(H.run("cp").Ret.asI64(), 222);
}

TEST(LirPasses, InstCombineStrengthReduction) {
  DexBuilder B;
  MethodId M = B.declareFunction(InvalidId, "sr", 1, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx Eight = F.immI(8), R = F.newReg();
  F.mulI(R, F.param(0), Eight);
  F.ret(R);
  B.endBody(F);
  DexFile File = B.build();
  LFunction Fn = buildLir(File, "sr");

  EXPECT_TRUE(instCombine(Fn));
  EXPECT_EQ(countLOps(Fn, MOpcode::MMulI), 0u);
  EXPECT_EQ(countLOps(Fn, MOpcode::MShlI), 1u);

  std::string Error;
  ASSERT_TRUE(Fn.verify(Error)) << Error;
  Harness H(File);
  H.RT->codeCache().install(lir::emitMachine(Fn));
  EXPECT_EQ(H.run("sr", {vm::Value::fromI64(5)}).Ret.asI64(), 40);
}

TEST(LirPasses, GvnAcrossBlocks) {
  DexBuilder B;
  MethodId M = B.declareFunction(InvalidId, "g", 2, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx T1 = F.newReg(), T2 = F.newReg(), R = F.newReg();
  F.addI(T1, F.param(0), F.param(1));
  auto L = F.newLabel();
  F.ifGtz(T1, L);
  F.ret(T1);
  F.bind(L);
  F.addI(T2, F.param(0), F.param(1)); // redundant with T1 (dominating)
  F.addI(R, T2, T1);
  F.ret(R);
  B.endBody(F);
  DexFile File = B.build();
  LFunction Fn = buildLir(File, "g");

  FunctionAnalyses Analyses;
  EXPECT_TRUE(gvn(Fn, Analyses));
  EXPECT_EQ(countLOps(Fn, MOpcode::MAddI), 2u); // T2 collapsed into T1

  std::string Error;
  ASSERT_TRUE(Fn.verify(Error)) << Error;
  Harness H(File);
  H.RT->codeCache().install(lir::emitMachine(Fn));
  EXPECT_EQ(
      H.run("g", {vm::Value::fromI64(2), vm::Value::fromI64(3)}).Ret.asI64(),
      10);
}

TEST(LirPasses, DceRemovesUndefSeeds) {
  DexBuilder B;
  defineSumTo(B);
  DexFile File = B.build();
  LFunction Fn = buildLir(File, "sumTo");
  size_t Before = Fn.instructionCount();
  dce(Fn, /*Aggressive=*/false);
  // The entry undef seeds for unused paths die, among others.
  EXPECT_LT(Fn.instructionCount(), Before);
  std::string Error;
  EXPECT_TRUE(Fn.verify(Error)) << Error;
}

TEST(LirPasses, SimplifyCfgMergesChains) {
  DexBuilder B;
  defineSumTo(B);
  DexFile File = B.build();
  LFunction Fn = buildLir(File, "sumTo");
  simplifyCfg(Fn);
  std::string Error;
  EXPECT_TRUE(Fn.verify(Error)) << Error;
  expectPipelineParity(File, "sumTo", {vm::Value::fromI64(55)},
                       {mk(PassId::SimplifyCfg)});
}

TEST(LirPasses, JniIntrinsicsRewritesMathCalls) {
  DexBuilder B;
  defineMathMix(B);
  DexFile File = B.build();
  LFunction Fn = buildLir(File, "mathMix");
  PassContext Ctx;
  Ctx.File = &File;
  FunctionAnalyses Analyses;
  EXPECT_TRUE(applyPass(Fn, mk(PassId::JniIntrinsics), Ctx, Analyses));
  EXPECT_EQ(countLOps(Fn, MOpcode::MCallNative), 0u);
  EXPECT_EQ(countLOps(Fn, MOpcode::MIntrinsic), 3u);
}

TEST(LirPasses, JniIntrinsicsIsFasterAndEquivalent) {
  DexBuilder B;
  defineMathMix(B);
  DexFile File = B.build();
  uint64_t Plain = 0, Intrinsified = 0;
  expectPipelineParity(File, "mathMix", {vm::Value::fromF64(0.6)}, {},
                       &Plain);
  expectPipelineParity(File, "mathMix", {vm::Value::fromF64(0.6)},
                       {mk(PassId::JniIntrinsics)}, &Intrinsified);
  EXPECT_LT(Intrinsified, Plain);
}

TEST(LirPasses, GcElideRemovesDuplicatePolls) {
  DexBuilder B;
  defineSumTo(B);
  DexFile File = B.build();
  LFunction Fn = buildLir(File, "sumTo");
  size_t Before = countLOps(Fn, MOpcode::MSafepoint);
  FunctionAnalyses Analyses;
  EXPECT_TRUE(gcElide(Fn, /*StripLoops=*/false, Analyses));
  EXPECT_LT(countLOps(Fn, MOpcode::MSafepoint), Before);
  std::string Error;
  EXPECT_TRUE(Fn.verify(Error)) << Error;
  expectPipelineParity(File, "sumTo", {vm::Value::fromI64(99)},
                       {mk(PassId::GcElide)});
}

TEST(LirPasses, BoundsCheckElimSafeModeKeepsSemantics) {
  DexBuilder B;
  defineDotProduct(B);
  DexFile File = B.build();
  expectPipelineParity(File, "dot", {vm::Value::fromI64(60)},
                       {mk(PassId::BoundsCheckElim)});
}

TEST(LirPasses, SinkMovesCodeOffTheHotPath) {
  DexBuilder B;
  MethodId M = B.declareFunction(InvalidId, "sk", 2, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx T = F.newReg();
  F.mulI(T, F.param(0), F.param(0)); // only used on the taken side
  auto L = F.newLabel();
  F.ifGtz(F.param(1), L);
  F.ret(F.param(1));
  F.bind(L);
  F.ret(T);
  B.endBody(F);
  DexFile File = B.build();
  LFunction Fn = buildLir(File, "sk");
  simplifyCfg(Fn);
  dce(Fn, false);
  EXPECT_TRUE(sinkCode(Fn));
  std::string Error;
  EXPECT_TRUE(Fn.verify(Error)) << Error;
  expectPipelineParity(File, "sk",
                       {vm::Value::fromI64(7), vm::Value::fromI64(1)},
                       {mk(PassId::SimplifyCfg), mk(PassId::Dce),
                        mk(PassId::Sink)});
}

// --- Loop passes -------------------------------------------------------------------

TEST(LoopPasses, LicmHoistsInvariants) {
  DexBuilder B;
  // loop computing sum += (a * b) each iteration: a*b is invariant.
  MethodId M = B.declareFunction(InvalidId, "li", 3, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx Sum = F.newReg(), I = F.newReg(), One = F.immI(1);
  F.constI(Sum, 0);
  F.constI(I, 0);
  auto Head = F.newLabel(), Done = F.newLabel();
  F.bind(Head);
  F.ifGe(I, F.param(0), Done);
  RegIdx T = F.newReg();
  F.mulI(T, F.param(1), F.param(2));
  F.addI(Sum, Sum, T);
  F.addI(I, I, One);
  F.jump(Head);
  F.bind(Done);
  F.ret(Sum);
  B.endBody(F);
  DexFile File = B.build();
  LFunction Fn = buildLir(File, "li");

  DomTree DT = DomTree::compute(Fn);
  LoopInfo LI = LoopInfo::compute(Fn, DT);
  ASSERT_EQ(LI.loops().size(), 1u);
  const Loop &L = LI.loops()[0];

  FunctionAnalyses Analyses;
  EXPECT_TRUE(licm(Fn, /*SpeculateDiv=*/false, Analyses));
  // The multiply no longer lives in the loop.
  for (uint32_t Id : L.Blocks)
    for (const LInsn &I2 : Fn.Blocks[Id].Insns)
      EXPECT_NE(I2.Op, MOpcode::MMulI);

  std::string Error;
  ASSERT_TRUE(Fn.verify(Error)) << Error;
  expectPipelineParity(File, "li",
                       {vm::Value::fromI64(10), vm::Value::fromI64(6),
                        vm::Value::fromI64(7)},
                       {mk(PassId::Licm)});
}

TEST(LoopPasses, RotateProducesBottomTest) {
  DexBuilder B;
  defineSumTo(B);
  DexFile File = B.build();
  LFunction Fn = buildLir(File, "sumTo");
  simplifyCfg(Fn);
  FunctionAnalyses Analyses;
  EXPECT_TRUE(loopRotate(Fn, Analyses));
  std::string Error;
  ASSERT_TRUE(Fn.verify(Error)) << Error;

  // After rotation some block conditionally branches to itself.
  bool HasSelfLoop = false;
  for (uint32_t Id = 0; Id != Fn.Blocks.size(); ++Id) {
    const LTerminator &T = Fn.Blocks[Id].Term;
    if (T.K == LTerminator::Kind::Cond &&
        (T.Taken == Id || T.Fall == Id))
      HasSelfLoop = true;
  }
  EXPECT_TRUE(HasSelfLoop);
}

TEST(LoopPasses, RotateKeepsSemanticsIncludingZeroTrip) {
  DexBuilder B;
  defineSumTo(B);
  DexFile File = B.build();
  for (int64_t N : {0, 1, 2, 7, 100}) {
    expectPipelineParity(File, "sumTo", {vm::Value::fromI64(N)},
                         {mk(PassId::SimplifyCfg),
                          mk(PassId::LoopRotate)});
  }
}

TEST(LoopPasses, UnrollKeepsSemantics) {
  DexBuilder B;
  defineSumTo(B);
  DexFile File = B.build();
  for (int Factor : {2, 3, 4, 8}) {
    for (int64_t N : {0, 1, 2, 3, 5, 16, 17, 100}) {
      expectPipelineParity(File, "sumTo", {vm::Value::fromI64(N)},
                           {mk(PassId::SimplifyCfg), mk(PassId::LoopRotate),
                            mk(PassId::LoopUnroll, Factor)});
    }
  }
}

TEST(LoopPasses, UnrollPlusGcElideIsFaster) {
  DexBuilder B;
  defineSumTo(B);
  DexFile File = B.build();
  uint64_t Plain = 0, Optimized = 0;
  std::vector<vm::Value> Args = {vm::Value::fromI64(3000)};
  expectPipelineParity(File, "sumTo", Args, o1Pipeline(), &Plain);
  std::vector<PassInstance> Tuned = o1Pipeline();
  Tuned.push_back(mk(PassId::LoopRotate));
  Tuned.push_back(mk(PassId::LoopUnroll, 4));
  Tuned.push_back(mk(PassId::GcElide));
  Tuned.push_back(mk(PassId::Dce));
  expectPipelineParity(File, "sumTo", Args, Tuned, &Optimized);
  EXPECT_LT(Optimized, Plain);
}

TEST(LoopPasses, PeelKeepsSemantics) {
  DexBuilder B;
  defineSumTo(B);
  DexFile File = B.build();
  for (int Count : {1, 2, 3}) {
    for (int64_t N : {0, 1, 2, 3, 10}) {
      expectPipelineParity(File, "sumTo", {vm::Value::fromI64(N)},
                           {mk(PassId::SimplifyCfg), mk(PassId::LoopRotate),
                            mk(PassId::LoopPeel, Count)});
    }
  }
}

TEST(LoopPasses, UnrollWorksOnRealKernels) {
  DexBuilder B;
  defineDotProduct(B);
  defineMatrixSum(B);
  DexFile File = B.build();
  std::vector<PassInstance> Pipe = {
      mk(PassId::SimplifyCfg), mk(PassId::LoopRotate),
      mk(PassId::LoopUnroll, 4), mk(PassId::GcElide), mk(PassId::Dce)};
  expectPipelineParity(File, "dot", {vm::Value::fromI64(37)}, Pipe);
  expectPipelineParity(File, "matSum", {vm::Value::fromI64(9)}, Pipe);
}

// --- Inline and devirtualize ----------------------------------------------------------

TEST(InlinePass, InlinesSmallCallee) {
  DexBuilder B;
  MethodId Callee = B.declareFunction(InvalidId, "addOne", 1, true);
  {
    FunctionBuilder F = B.beginBody(Callee);
    RegIdx One = F.immI(1), R = F.newReg();
    F.addI(R, F.param(0), One);
    F.ret(R);
    B.endBody(F);
  }
  MethodId Caller = B.declareFunction(InvalidId, "callerFn", 1, true);
  {
    FunctionBuilder F = B.beginBody(Caller);
    RegIdx R = F.newReg();
    F.invokeStatic(R, Callee, {F.param(0)});
    RegIdx R2 = F.newReg();
    F.invokeStatic(R2, Callee, {R});
    F.ret(R2);
    B.endBody(F);
  }
  DexFile File = B.build();
  LFunction Fn = buildLir(File, "callerFn");

  CalleeSsa Callees(File);
  EXPECT_TRUE(inlineCalls(Fn, Callees, /*Threshold=*/50));
  EXPECT_EQ(countLOps(Fn, MOpcode::MCallStatic), 0u);
  std::string Error;
  ASSERT_TRUE(Fn.verify(Error)) << Error;

  Harness H(File);
  H.RT->codeCache().install(lir::emitMachine(Fn));
  EXPECT_EQ(H.run("callerFn", {vm::Value::fromI64(5)}).Ret.asI64(), 7);
}

TEST(InlinePass, InlineBranchyCallee) {
  DexBuilder B;
  MethodId Callee = B.declareFunction(InvalidId, "absFn", 1, true);
  {
    FunctionBuilder F = B.beginBody(Callee);
    auto Pos = F.newLabel();
    F.ifGez(F.param(0), Pos);
    RegIdx N = F.newReg();
    F.negI(N, F.param(0));
    F.ret(N);
    F.bind(Pos);
    F.ret(F.param(0));
    B.endBody(F);
  }
  MethodId Caller = B.declareFunction(InvalidId, "sumAbs", 2, true);
  {
    FunctionBuilder F = B.beginBody(Caller);
    RegIdx A = F.newReg(), Bv = F.newReg(), R = F.newReg();
    F.invokeStatic(A, Callee, {F.param(0)});
    F.invokeStatic(Bv, Callee, {F.param(1)});
    F.addI(R, A, Bv);
    F.ret(R);
    B.endBody(F);
  }
  DexFile File = B.build();
  LFunction Fn = buildLir(File, "sumAbs");

  CalleeSsa Callees(File);
  EXPECT_TRUE(inlineCalls(Fn, Callees, 50));
  std::string Error;
  ASSERT_TRUE(Fn.verify(Error)) << Error;

  Harness H(File);
  H.RT->codeCache().install(lir::emitMachine(Fn));
  EXPECT_EQ(H.run("sumAbs",
                  {vm::Value::fromI64(-4), vm::Value::fromI64(9)})
                .Ret.asI64(),
            13);
}

TEST(DevirtPass, GuardsAndDirectCalls) {
  DexBuilder B;
  definePolyShapes(B);
  DexFile File = B.build();

  // Collect a genuine interpreter type profile first.
  TypeProfile Profile;
  struct Collector : vm::ExecObserver {
    TypeProfile &P;
    explicit Collector(TypeProfile &P) : P(P) {}
    void onVirtualDispatch(MethodId M, uint32_t Pc, ClassId C) override {
      P.record(M, Pc, C);
    }
  } Collector{Profile};

  Harness H(File);
  H.RT->setMode(vm::ExecMode::InterpretOnly);
  H.RT->setObserver(&Collector);
  // Even iterations make squares, odd circles: bimodal profile.
  ASSERT_TRUE(H.run("polyLoop", {vm::Value::fromI64(20)}).ok());
  H.RT->setObserver(nullptr);
  EXPECT_GE(Profile.siteCount(), 1u);

  LFunction Fn = buildLir(File, "polyLoop");
  // 50-50 profile: a 90% threshold refuses to speculate...
  EXPECT_FALSE(devirtualize(Fn, File, Profile, 90));
  // ...a 50% threshold accepts the dominant (or tied-first) class.
  EXPECT_TRUE(devirtualize(Fn, File, Profile, 50));
  std::string Error;
  ASSERT_TRUE(Fn.verify(Error)) << Error;

  Harness H2(File);
  H2.RT->codeCache().install(lir::emitMachine(Fn));
  vm::CallResult R = H2.run("polyLoop", {vm::Value::fromI64(20)});
  ASSERT_TRUE(R.ok());

  Harness H3(File);
  H3.RT->setMode(vm::ExecMode::InterpretOnly);
  EXPECT_EQ(R.Ret.asI64(),
            H3.run("polyLoop", {vm::Value::fromI64(20)}).Ret.asI64());
}

// --- Unsound modes really break things --------------------------------------------------

TEST(UnsoundModes, FastMathChangesFpResults) {
  DexBuilder B;
  // Catastrophic-cancellation-prone sum: (big + tiny) - big != tiny.
  MethodId M = B.declareFunction(InvalidId, "fp", 0, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx Big = F.immF(1e16), Tiny = F.immF(1.0), NegBig = F.immF(-1e16);
  RegIdx T = F.newReg(), R = F.newReg();
  // (tiny + big) + (-big): rounds to 0. Reassociated tiny + (big - big)
  // evaluates to exactly 1.0 — visibly different output.
  F.addF(T, Tiny, Big);
  F.addF(R, T, NegBig);
  F.ret(R);
  B.endBody(F);
  DexFile File = B.build();

  LFunction Fn = buildLir(File, "fp");
  // Safe mode refuses to touch FP.
  LFunction SafeCopy = Fn;
  EXPECT_FALSE(reassociate(SafeCopy, /*FastMath=*/false));

  EXPECT_TRUE(reassociate(Fn, /*FastMath=*/true));
  std::string Error;
  ASSERT_TRUE(Fn.verify(Error)) << Error;
  constProp(Fn); // fold the re-associated chain

  Harness H(File);
  H.RT->codeCache().install(lir::emitMachine(Fn));
  double FastMathResult = H.run("fp").Ret.asF64();
  Harness H2(File);
  H2.RT->setMode(vm::ExecMode::InterpretOnly);
  double Reference = H2.run("fp").Ret.asF64();
  // (1e16 + 1) - 1e16 == 0 under doubles; 1e16 + (1 - 1e16) == ... also?
  // Re-association here flips which rounding happens: expect a difference.
  EXPECT_NE(FastMathResult, Reference);
}

TEST(UnsoundModes, AggressiveBceCorruptsMultiplicativeIndexing) {
  DexBuilder B;
  // j starts at n-1 and doubles each iteration with wraparound *intended*
  // to stay in range only via the bounds check failing... here we build a
  // loop whose index genuinely exceeds the array when checks vanish:
  // for (j = 1; j < 64; j = j * 3) arr[j] = 7;   with arr.length = 40.
  // Valid run traps OutOfBounds at j = 81? No: 1,3,9,27,81 -> stops by
  // condition j < 64 at j=81? j=81 fails j<64, loop ends; last store j=27.
  // Use: for (j = 1; j < 40; j = j * 3) arr[j + 24] = 7; -> j+24 hits 51
  // while length is 40: the checked program traps; we compare the
  // *unchecked* one which silently corrupts neighbouring memory instead.
  MethodId M = B.declareFunction(InvalidId, "bce", 1, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx Len = F.immI(40), Arr = F.newReg(), Arr2 = F.newReg();
  F.newArray(Arr, Len, Type::I64);
  F.newArray(Arr2, Len, Type::I64); // the corruption victim
  RegIdx J = F.newReg(), Three = F.immI(3), Seven = F.immI(7),
         Off = F.immI(24), Idx = F.newReg(), Limit = F.immI(40);
  F.constI(J, 1);
  auto Head = F.newLabel(), Done = F.newLabel();
  F.bind(Head);
  F.ifGe(J, Limit, Done);
  F.addI(Idx, J, Off);
  F.astore(Arr, Idx, Seven, Type::I64);
  F.mulI(J, J, Three);
  F.jump(Head);
  F.bind(Done);
  // Return a value from the victim array: corruption becomes visible.
  // The escaped store (j=27 -> idx 51) lands 424 bytes past Arr's base,
  // which is element 9 of Arr2 under the bump allocator's layout.
  RegIdx Z = F.immI(9), V = F.newReg();
  F.aload(V, Arr2, Z, Type::I64);
  F.ret(V);
  B.endBody(F);
  DexFile File = B.build();
  MethodId Id = File.findMethod("bce");

  // Reference: the checked program traps OutOfBounds (idx 51 >= 40).
  Harness HRef(File);
  HRef.RT->setMode(vm::ExecMode::InterpretOnly);
  EXPECT_EQ(HRef.run("bce", {vm::Value::fromI64(0)}).Trap,
            vm::TrapKind::OutOfBounds);

  // Aggressive BCE removes the check: the store lands in the second
  // array (silent corruption) or beyond.
  CompileOptions Options;
  Options.Pipeline = {mk(PassId::BoundsCheckElim, 0, true)};
  CompileResult Result = compileMethodLlvm(File, Id, Options);
  ASSERT_TRUE(Result.ok());
  Harness H(File);
  H.RT->codeCache().install(Result.Fn);
  vm::CallResult R = H.RT->call(Id, {vm::Value::fromI64(0)});
  // No trap where there should have been one — and the neighbouring
  // array got dirtied (its slot no longer reads 0 — wrong output).
  EXPECT_EQ(R.Trap, vm::TrapKind::None);
  EXPECT_NE(R.Ret.asI64(), 0);
}

TEST(UnsoundModes, SpeculativeDivTrapsOnGuardedDivisor) {
  DexBuilder B;
  // if (d != 0) { loop: sum += n / d } else return -1. With a zero-trip
  // guard the division is safe; speculating it above a loop whose trip
  // count is zero when d == 0 introduces a fresh trap... build directly:
  // for (i = 0; i < k; ++i) sum += n / d   called with k == 0, d == 0.
  MethodId M = B.declareFunction(InvalidId, "sd", 3, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx Sum = F.newReg(), I = F.newReg(), One = F.immI(1);
  F.constI(Sum, 0);
  F.constI(I, 0);
  auto Head = F.newLabel(), Done = F.newLabel();
  F.bind(Head);
  F.ifGe(I, F.param(0), Done);
  RegIdx Q = F.newReg();
  F.divI(Q, F.param(1), F.param(2));
  F.addI(Sum, Sum, Q);
  F.addI(I, I, One);
  F.jump(Head);
  F.bind(Done);
  F.ret(Sum);
  B.endBody(F);
  DexFile File = B.build();
  MethodId Id = File.findMethod("sd");

  std::vector<vm::Value> ZeroTrip = {vm::Value::fromI64(0),
                                     vm::Value::fromI64(10),
                                     vm::Value::fromI64(0)};

  // Reference: zero-trip loop, no division, returns 0.
  Harness HRef(File);
  HRef.RT->setMode(vm::ExecMode::InterpretOnly);
  vm::CallResult RRef = HRef.RT->call(Id, ZeroTrip);
  ASSERT_TRUE(RRef.ok());
  EXPECT_EQ(RRef.Ret.asI64(), 0);

  // licm! hoists the division above the loop: traps on d == 0.
  CompileOptions Options;
  Options.Pipeline = {mk(PassId::Licm, 0, true)};
  CompileResult Result = compileMethodLlvm(File, Id, Options);
  ASSERT_TRUE(Result.ok());
  Harness H(File);
  H.RT->codeCache().install(Result.Fn);
  EXPECT_EQ(H.RT->call(Id, ZeroTrip).Trap, vm::TrapKind::DivByZero);
}

TEST(UnsoundModes, SafeLicmDoesNotSpeculate) {
  // Same program, safe licm: still correct on the zero-trip input.
  DexBuilder B;
  MethodId M = B.declareFunction(InvalidId, "sd", 3, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx Sum = F.newReg(), I = F.newReg(), One = F.immI(1);
  F.constI(Sum, 0);
  F.constI(I, 0);
  auto Head = F.newLabel(), Done = F.newLabel();
  F.bind(Head);
  F.ifGe(I, F.param(0), Done);
  RegIdx Q = F.newReg();
  F.divI(Q, F.param(1), F.param(2));
  F.addI(Sum, Sum, Q);
  F.addI(I, I, One);
  F.jump(Head);
  F.bind(Done);
  F.ret(Sum);
  B.endBody(F);
  DexFile File = B.build();
  expectPipelineParity(File, "sd",
                       {vm::Value::fromI64(0), vm::Value::fromI64(10),
                        vm::Value::fromI64(1)},
                       {mk(PassId::Licm)});
}

// --- Presets --------------------------------------------------------------------------

TEST(Presets, AllLevelsPreserveSemantics) {
  DexBuilder B;
  defineSumTo(B);
  defineDotProduct(B);
  defineMatrixSum(B);
  DexFile File = B.build();
  for (auto &Pipe :
       {o0Pipeline(), o1Pipeline(), o2Pipeline(), o3Pipeline()}) {
    expectPipelineParity(File, "sumTo", {vm::Value::fromI64(64)}, Pipe);
    expectPipelineParity(File, "dot", {vm::Value::fromI64(33)}, Pipe);
    expectPipelineParity(File, "matSum", {vm::Value::fromI64(8)}, Pipe);
  }
}

TEST(Presets, HigherLevelsAreFasterHere) {
  DexBuilder B;
  defineMatrixSum(B);
  DexFile File = B.build();
  uint64_t C0 = 0, C2 = 0;
  expectPipelineParity(File, "matSum", {vm::Value::fromI64(16)},
                       o0Pipeline(), &C0);
  expectPipelineParity(File, "matSum", {vm::Value::fromI64(16)},
                       o2Pipeline(), &C2);
  EXPECT_LT(C2, C0);
}

TEST(Presets, SizeBudgetStopsExplosion) {
  DexBuilder B;
  defineMatrixSum(B);
  DexFile File = B.build();
  MethodId Id = File.findMethod("matSum");
  CompileOptions Options;
  Options.Pipeline = {mk(PassId::SimplifyCfg), mk(PassId::LoopRotate)};
  for (int I = 0; I != 6; ++I) {
    Options.Pipeline.push_back(mk(PassId::LoopUnroll, 64));
    Options.Pipeline.push_back(mk(PassId::LoopRotate));
  }
  // Sanity: the same pipeline with a generous budget really does explode
  // the code (so the tight budget below is a genuine stop, not a trivial
  // base-size trip).
  Options.SizeBudget = 1u << 20;
  CompileResult Grown = compileMethodLlvm(File, Id, Options);
  ASSERT_TRUE(Grown.ok());
  CompileOptions Plain;
  CompileResult Base = compileMethodLlvm(File, Id, Plain);
  ASSERT_TRUE(Base.ok());
  EXPECT_GT(Grown.Fn->Code.size(), 3 * Base.Fn->Code.size());

  Options.SizeBudget = Base.Fn->Code.size() * 2;
  CompileResult Result = compileMethodLlvm(File, Id, Options);
  EXPECT_EQ(Result.Status, CompileStatus::SizeBudget);
}

// --- Induction-range bounds-check elimination (paper §7 future work) -----------

TEST(RangeBce, RemovesChecksInCountedLoops) {
  DexBuilder B;
  defineDotProduct(B);
  DexFile File = B.build();
  LFunction Fn = buildLir(File, "dot");
  simplifyCfg(Fn);
  constProp(Fn);
  FunctionAnalyses GvnAnalyses;
  gvn(Fn, GvnAnalyses);
  dce(Fn, false);
  size_t Before = countLOps(Fn, MOpcode::MCheckBounds);
  ASSERT_GT(Before, 0u);
  FunctionAnalyses Analyses;
  EXPECT_TRUE(boundsCheckElim(Fn, /*Aggressive=*/false, Analyses));
  EXPECT_EQ(countLOps(Fn, MOpcode::MCheckBounds), 0u);
  std::string Error;
  ASSERT_TRUE(Fn.verify(Error)) << Error;

  // Differential, including the empty-loop boundary.
  for (int64_t N : {0, 1, 2, 17, 60}) {
    expectPipelineParity(File, "dot", {vm::Value::fromI64(N)},
                         {mk(PassId::SimplifyCfg), mk(PassId::ConstProp),
                          mk(PassId::Gvn), mk(PassId::Dce),
                          mk(PassId::BoundsCheckElim)});
  }
}

TEST(RangeBce, KeepsChecksWhenBoundExceedsLength) {
  // for (i = 0; i < n + 3; ++i) arr[i]  with arr.length == n: the range
  // analysis must NOT remove the check — the program genuinely traps.
  DexBuilder B;
  MethodId M = B.declareFunction(InvalidId, "over", 1, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx Arr = F.newReg(), I = F.newReg(), One = F.immI(1),
         Three = F.immI(3), Bound = F.newReg(), Sum = F.newReg();
  F.newArray(Arr, F.param(0), Type::I64);
  F.addI(Bound, F.param(0), Three);
  F.constI(I, 0);
  F.constI(Sum, 0);
  auto Head = F.newLabel(), Done = F.newLabel();
  F.bind(Head);
  F.ifGe(I, Bound, Done);
  RegIdx V = F.newReg();
  F.aload(V, Arr, I, Type::I64);
  F.addI(Sum, Sum, V);
  F.addI(I, I, One);
  F.jump(Head);
  F.bind(Done);
  F.ret(Sum);
  B.endBody(F);
  DexFile File = B.build();

  LFunction Fn = buildLir(File, "over");
  simplifyCfg(Fn);
  FunctionAnalyses Analyses;
  boundsCheckElim(Fn, /*Aggressive=*/false, Analyses);
  EXPECT_GT(countLOps(Fn, MOpcode::MCheckBounds), 0u);

  // And the compiled program still traps where the interpreter does.
  CompileOptions Options;
  Options.Pipeline = {mk(PassId::SimplifyCfg),
                      mk(PassId::BoundsCheckElim)};
  CompileResult Result =
      compileMethodLlvm(File, File.findMethod("over"), Options);
  ASSERT_TRUE(Result.ok());
  Harness H(File);
  H.RT->codeCache().install(Result.Fn);
  EXPECT_EQ(H.run("over", {vm::Value::fromI64(8)}).Trap,
            vm::TrapKind::OutOfBounds);
}

TEST(RangeBce, DownwardLoopsAreLeftAlone) {
  // for (i = n - 1; i >= 0; --i): negative step — not handled, must keep.
  DexBuilder B;
  MethodId M = B.declareFunction(InvalidId, "down", 1, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx Arr = F.newReg(), I = F.newReg(), One = F.immI(1),
         Sum = F.newReg();
  F.newArray(Arr, F.param(0), Type::I64);
  F.subI(I, F.param(0), One);
  F.constI(Sum, 0);
  auto Head = F.newLabel(), Done = F.newLabel();
  F.bind(Head);
  F.ifLtz(I, Done);
  RegIdx V = F.newReg();
  F.aload(V, Arr, I, Type::I64);
  F.addI(Sum, Sum, V);
  F.subI(I, I, One);
  F.jump(Head);
  F.bind(Done);
  F.ret(Sum);
  B.endBody(F);
  DexFile File = B.build();

  LFunction Fn = buildLir(File, "down");
  simplifyCfg(Fn);
  size_t Before = countLOps(Fn, MOpcode::MCheckBounds);
  FunctionAnalyses Analyses;
  boundsCheckElim(Fn, /*Aggressive=*/false, Analyses);
  EXPECT_EQ(countLOps(Fn, MOpcode::MCheckBounds), Before);
  expectPipelineParity(File, "down", {vm::Value::fromI64(9)},
                       {mk(PassId::SimplifyCfg),
                        mk(PassId::BoundsCheckElim)});
}

// --- Compile memo ---------------------------------------------------------------
//
// CompileMemo (DESIGN.md §18) must be invisible: every status and every
// emitted machine function equals what the reference path,
// lir::compileAllLlvm, produces for the same inputs.

namespace {

/// One Table-1 app with its hot region and captured type profile.
struct RegionFixture {
  workloads::Application App;
  profiler::HotRegion Region;
  std::vector<core::CapturedRegion> Captures; ///< One capture.
};

/// Every Table-1 app's hot region, profiled and captured once per process.
const std::vector<RegionFixture> &tableOneRegions() {
  static const std::vector<RegionFixture> Regions = [] {
    std::vector<RegionFixture> Out;
    core::PipelineConfig Config;
    for (workloads::Application &App : workloads::buildSuite()) {
      core::IterativeCompiler Pipeline(Config);
      core::IterativeCompiler::ProfiledApp P = Pipeline.profileApp(App);
      EXPECT_TRUE(P.Region.has_value()) << App.Name;
      if (!P.Region)
        continue;
      std::vector<core::CapturedRegion> C =
          Pipeline.captureRegionMulti(*P.Instance, *P.Region, 1);
      EXPECT_EQ(C.size(), 1u) << App.Name;
      if (C.empty())
        continue;
      Out.push_back(RegionFixture{std::move(App), *P.Region, std::move(C)});
    }
    return Out;
  }();
  return Regions;
}

/// A small size budget, so that inlining and unrolling genomes hit it.
constexpr size_t MemoTestBudget = 400;

/// o3 plus \p Count seeded random genomes with aggressive genes on, so
/// verifier errors and size-budget failures occur.
std::vector<search::Genome> memoTestGenomes(uint64_t Salt, int Count) {
  std::vector<search::Genome> Out;
  search::Genome O3;
  O3.Passes = o3Pipeline();
  Out.push_back(O3);
  search::GenomeConfig GC;
  GC.AggressiveProb = 0.7;
  for (int I = 0; I != Count; ++I) {
    Rng R(Salt * 1000003 + static_cast<uint64_t>(I));
    search::Genome G = search::randomGenome(R, GC);
    for (int M = 0; M != 3; ++M)
      search::mutate(G, R, GC);
    Out.push_back(std::move(G));
  }
  return Out;
}

/// The reference compile: lir::compileAllLlvm with the memo's inputs.
struct Compiled {
  CompileStatus Status = CompileStatus::Ok;
  vm::CodeCache Code;
};

Compiled referenceCompile(const RegionFixture &F, const search::Genome &G) {
  CompileOptions Options;
  Options.Pipeline = G.Passes;
  Options.RegAlloc = G.RegAlloc;
  Options.SizeBudget = MemoTestBudget;
  Compiled Out;
  Out.Status = compileAllLlvm(*F.App.File, F.Region.Methods, Options,
                              Out.Code, &F.Captures[0].Profile);
  return Out;
}

Compiled memoCompile(CompileMemo &Memo, const RegionFixture &F,
                     const search::Genome &G) {
  Compiled Out;
  Out.Status =
      Memo.compileAll(F.Region.Methods, G.Passes, G.RegAlloc, Out.Code);
  return Out;
}

bool sameMachineInsn(const vm::MInsn &A, const vm::MInsn &B) {
  return A.Op == B.Op && A.A == B.A && A.B == B.B && A.C == B.C &&
         A.Target == B.Target && A.Idx == B.Idx && A.Site == B.Site &&
         A.ImmI == B.ImmI &&
         std::memcmp(&A.ImmF, &B.ImmF, sizeof(A.ImmF)) == 0 &&
         A.Hint == B.Hint && A.ArgCount == B.ArgCount &&
         std::equal(A.Args, A.Args + vm::MMaxArgs, B.Args);
}

bool sameMachineFunction(const vm::MachineFunction &A,
                         const vm::MachineFunction &B) {
  return A.Method == B.Method && A.Name == B.Name &&
         A.NumRegs == B.NumRegs && A.ParamCount == B.ParamCount &&
         A.ReturnsValue == B.ReturnsValue &&
         A.Code.size() == B.Code.size() &&
         std::equal(A.Code.begin(), A.Code.end(), B.Code.begin(),
                    sameMachineInsn);
}

/// Same status and, method by method, identical machine code.
bool sameCompile(const Compiled &A, const Compiled &B) {
  if (A.Status != B.Status || A.Code.size() != B.Code.size())
    return false;
  for (const auto &KV : A.Code.functions()) {
    const vm::MachineFunction *Other = B.Code.lookup(KV.first);
    if (!Other || !sameMachineFunction(*KV.second->Source, *Other))
      return false;
  }
  return true;
}

std::unique_ptr<CompileMemo> memoFor(const RegionFixture &F) {
  return std::make_unique<CompileMemo>(*F.App.File, F.Captures[0].Profile,
                                       MemoTestBudget);
}

} // namespace

TEST(CompileMemo, MatchesReferenceOnEveryApp) {
  const std::vector<RegionFixture> &Regions = tableOneRegions();
  ASSERT_EQ(Regions.size(), 21u);
  std::map<CompileStatus, int> Seen;
  for (const RegionFixture &F : Regions) {
    std::vector<search::Genome> Genomes = memoTestGenomes(1, 30);
    std::vector<Compiled> Reference;
    for (const search::Genome &G : Genomes)
      Reference.push_back(referenceCompile(F, G));

    std::unique_ptr<CompileMemo> Memo = memoFor(F);
    for (size_t N = 0; N != Genomes.size(); ++N) {
      EXPECT_TRUE(sameCompile(memoCompile(*Memo, F, Genomes[N]),
                              Reference[N]))
          << F.App.Name << " first pass: " << Genomes[N].name();
      ++Seen[Reference[N].Status];
    }
    // Second pass: the transition table is never evicted, so every pass
    // application is a table hit.
    CompileMemoStats First = Memo->stats();
    for (size_t N = 0; N != Genomes.size(); ++N)
      EXPECT_TRUE(sameCompile(memoCompile(*Memo, F, Genomes[N]),
                              Reference[N]))
          << F.App.Name << " second pass: " << Genomes[N].name();
    CompileMemoStats Second = Memo->stats();
    EXPECT_EQ(Second.TransitionMisses, First.TransitionMisses) << F.App.Name;
    EXPECT_GT(Second.TransitionHits, First.TransitionHits) << F.App.Name;
    EXPECT_GT(Second.CodegenHits, First.CodegenHits) << F.App.Name;
  }
  // The inputs exercise every outcome the memo records.
  EXPECT_GT(Seen[CompileStatus::Ok], 0);
  EXPECT_GT(Seen[CompileStatus::VerifierError], 0);
  EXPECT_GT(Seen[CompileStatus::SizeBudget], 0);
}

TEST(CompileMemo, NoOpPassOnAnOversizedRootIsASizeBudgetFailure) {
  // runPipeline tests the size budget after every pass, so a root already
  // over it fails even when the pass changes nothing; the memo's
  // self-transition must not skip that test.
  std::vector<search::Genome> Genomes;
  for (const char *Name : {"loop-peel=1", "jni-intrinsics", "sink"}) {
    search::Genome G;
    ASSERT_TRUE(search::parseGenome(Name, G));
    Genomes.push_back(G);
  }
  for (const RegionFixture &F : tableOneRegions()) {
    CompileMemo Memo(*F.App.File, F.Captures[0].Profile, /*SizeBudget=*/1);
    for (const search::Genome &G : Genomes) {
      CompileOptions Options;
      Options.Pipeline = G.Passes;
      Options.SizeBudget = 1;
      Compiled Reference;
      Reference.Status = compileAllLlvm(*F.App.File, F.Region.Methods,
                                        Options, Reference.Code,
                                        &F.Captures[0].Profile);
      EXPECT_EQ(Reference.Status, CompileStatus::SizeBudget) << F.App.Name;
      EXPECT_TRUE(sameCompile(memoCompile(Memo, F, G), Reference))
          << F.App.Name << ": " << G.name();
    }
  }
}

TEST(CompileMemo, EvictsAndRecomputesPastTheBudget) {
  const std::vector<RegionFixture> &Regions = tableOneRegions();
  auto FFT = std::find_if(Regions.begin(), Regions.end(),
                          [](const RegionFixture &F) {
                            return F.App.Name == "FFT";
                          });
  ASSERT_NE(FFT, Regions.end());
  std::vector<search::Genome> Genomes = memoTestGenomes(2, 400);
  std::unique_ptr<CompileMemo> Memo = memoFor(*FFT);
  // Two passes: the second re-walks states the first pass evicted.
  for (int Pass = 0; Pass != 2; ++Pass)
    for (const search::Genome &G : Genomes)
      EXPECT_TRUE(
          sameCompile(memoCompile(*Memo, *FFT, G), referenceCompile(*FFT, G)))
          << "pass " << Pass << ": " << G.name();
  CompileMemoStats S = Memo->stats();
  EXPECT_GT(S.Evictions, 0u);
  EXPECT_GT(S.Recomputes, 0u);
  EXPECT_GT(S.ResidentBytes, 0u);
  EXPECT_LE(CompileMemo::processResidentBytes(), uint64_t(3) << 20);
}

TEST(CompileMemo, ConcurrentWorkersShareOneMemo) {
  constexpr int Threads = 4;
  for (const RegionFixture &F : tableOneRegions()) {
    std::vector<search::Genome> Genomes = memoTestGenomes(3, 30);
    std::vector<Compiled> Reference;
    for (const search::Genome &G : Genomes)
      Reference.push_back(referenceCompile(F, G));

    std::unique_ptr<CompileMemo> Memo = memoFor(F);
    std::atomic<int> Mismatches{0};
    std::vector<std::thread> Workers;
    for (int T = 0; T != Threads; ++T)
      Workers.emplace_back([&, T] {
        // Each worker starts at its own offset, so the workers race to
        // create the same states from different sides.
        for (size_t K = 0; K != Genomes.size(); ++K) {
          size_t N = (K + static_cast<size_t>(T) * Genomes.size() / Threads) %
                     Genomes.size();
          if (!sameCompile(memoCompile(*Memo, F, Genomes[N]), Reference[N]))
            ++Mismatches;
        }
      });
    for (std::thread &W : Workers)
      W.join();
    EXPECT_EQ(Mismatches.load(), 0) << F.App.Name;
  }
}

// --- The `changed` contract -------------------------------------------------------
//
// The compile memo records a pass that reports no change as a
// self-transition, without encoding the IR again. So applyPass returning
// false must mean the IR is byte-identical, for every pass and mode the
// search can draw, on every Table-1 app's hot region.

TEST(PassContract, UnchangedMeansByteIdentical) {
  std::map<std::string, int> Lies; ///< Pass name -> false "unchanged".
  size_t Unchanged = 0;
  const std::vector<search::Genome> Genomes = memoTestGenomes(1, 30);
  for (const RegionFixture &F : tableOneRegions()) {
    const DexFile &File = *F.App.File;
    CalleeSsa Callees(File);
    PassContext Ctx{&File, &F.Captures[0].Profile, &Callees};
    for (MethodId Id : F.Region.Methods) {
      const Method &M = File.method(Id);
      if (M.IsNative || M.isUncompilable())
        continue;
      const LFunction Root = fromHGraph(hgraph::buildHGraph(File, Id));
      for (const search::Genome &G : Genomes) {
        LFunction Fn = Root;
        FunctionAnalyses Analyses;
        for (const PassInstance &P : G.Passes) {
          std::string Before = encodeIR(Fn);
          if (!applyPass(Fn, P, Ctx, Analyses)) {
            ++Unchanged;
            if (encodeIR(Fn) != Before)
              ++Lies[passInstanceName(P)];
          }
          if (Fn.instructionCount() > MemoTestBudget)
            break; // Where runPipeline and the memo stop too.
        }
      }
    }
  }
  std::string Report;
  for (const auto &[Name, Count] : Lies)
    Report += format(" %s x%d", Name.c_str(), Count);
  EXPECT_TRUE(Lies.empty()) << "changed IR reported as unchanged:" << Report;
  EXPECT_GT(Unchanged, 1000u);
}

// --- Golden binary hashes ------------------------------------------------------
//
// RegionEvaluator::compileGenome(G).BinaryHash for o3, ten seeded genomes
// and six stress genomes per Table-1 app. The first eleven were pinned
// when the compile memo landed, the stress genomes before the passes
// learned to report no-ops and to rewrite uses in one sweep. Any pass,
// codegen or register-allocation edit that changes emitted code changes a
// hash here; such an edit must update this table on purpose. A failure
// prints the app's measured row in table syntax.

namespace {

/// Pipelines that stress the value-rewriting and loop-restructuring paths:
/// unrolling and peeling at large factors, aggressive modes, inlining and
/// repeated GVN.
const char *const StressGenomes[] = {
    "simplifycfg,loop-rotate,loop-unroll=64,gvn,dce,simplifycfg",
    "loop-unroll=16!,gc-elide!,constprop,dce!,simplifycfg",
    "loop-rotate,loop-peel=8,loop-unroll=8,constprop,instcombine,gvn,dce",
    "inline=400,simplifycfg,constprop,instcombine,gvn,licm!,gvn,dce,"
    "simplifycfg|ra=freq",
    "gvn,instcombine,gvn,constprop,reassociate!,gvn,sink,jump-threading!,"
    "boundscheck-elim!,dce",
    "devirtualize=50,inline=200,loop-rotate,loop-unroll=32,loop-peel=4,gvn,"
    "dce!,simplifycfg|ra=first-use",
};

/// o3, ten seeded random genomes with the default gene mix, then the
/// stress genomes.
std::vector<search::Genome> goldenGenomes() {
  std::vector<search::Genome> Genomes(1);
  Genomes[0].Passes = o3Pipeline();
  for (int I = 0; I != 10; ++I) {
    Rng R(static_cast<uint64_t>(I) * 7919 + 101);
    Genomes.push_back(search::randomGenome(R, search::GenomeConfig()));
  }
  for (const char *Name : StressGenomes) {
    search::Genome G;
    EXPECT_TRUE(search::parseGenome(Name, G)) << Name;
    Genomes.push_back(std::move(G));
  }
  return Genomes;
}

std::string hashRowText(const std::vector<uint64_t> &Hashes) {
  std::string Out = "     {";
  for (size_t N = 0; N != Hashes.size(); ++N)
    Out += format("%s0x%016llxull", N == 0 ? "" : N % 3 ? ", " : ",\n      ",
                  static_cast<unsigned long long>(Hashes[N]));
  return Out + "}},\n";
}

} // namespace

TEST(GoldenBinaryHash, MatchesPinnedValues) {
  struct GoldenRow {
    const char *App;
    /// o3, then genomes 0..9, then the stress genomes; 0 = failed.
    std::vector<uint64_t> Hashes;
  };
  const std::vector<GoldenRow> Golden = {
    {"FFT",
     {0xd4d846918cdc6216ull, 0x2a908166190c2879ull, 0x7cd88732f0286b3cull,
      0x9efc9b7cc859f285ull, 0xd14c9684fec81c00ull, 0x8a43d6560cc2835eull,
      0x4996a0624e438ffdull, 0x63d9cd60174828f6ull, 0x2a0a278f7d667cb1ull,
      0x0000000000000000ull, 0x71fbd7c5411cc153ull, 0x0000000000000000ull,
      0x3827698b83205a7bull, 0xda6e4a3f1467fa3cull, 0x4283216ac741526bull,
      0x9bfa2cf819f092e5ull, 0x0000000000000000ull}},
    {"SOR",
     {0xe035b4fa433a919cull, 0x801eef2194fbaf29ull, 0x6a59015035247250ull,
      0xa11c9cb828664cb6ull, 0x6e176a7d77cde8a8ull, 0x5d372f5e3bc6052dull,
      0x8576046e0a92c4d4ull, 0xa7d80b231d3b6746ull, 0xc980326ad0d2bfdaull,
      0x0000000000000000ull, 0xc6a9ec2e1aa1863dull, 0x0000000000000000ull,
      0x13b862cb347f2cecull, 0x9f2b23180aeae9cfull, 0x54e88e437d8047baull,
      0xd6c376ade1e5477bull, 0xc3e74b29c6718ffbull}},
    {"MonteCarlo",
     {0x3a64da4e4d0a0063ull, 0x089b26ca00546527ull, 0x9500024e8e53d909ull,
      0x7a729ed339f29586ull, 0x089b26ca00546527ull, 0xbf2f1cde262d2197ull,
      0x154c2dd5ce259afcull, 0x9500024e8e53d909ull, 0xa7d90da5be08aa88ull,
      0x089b26ca00546527ull, 0x7ffa4438c50fffe3ull, 0x3d9e1c66be0c55d6ull,
      0xbf2f1cde262d2197ull, 0x3d9e1c66be0c55d6ull, 0x86d586ca33626eceull,
      0xf1fbdf488f2b197full, 0xbefcad90ba49b79full}},
    {"Sparse matmult",
     {0xbba95c6b8e8661dcull, 0xc6df6211be142a7full, 0x233f2d86da9641f2ull,
      0x9c6ca92863b9e6f5ull, 0x4a224af4221435c6ull, 0xfd070493f8c1fc8bull,
      0x0eb6b1679236c0dbull, 0x233f2d86da9641f2ull, 0xeb7f7fcfa2435024ull,
      0x0000000000000000ull, 0xd98b62211812733eull, 0x4a2f09826a5f4841ull,
      0x8c1aa08756e6c0c0ull, 0x6a09a7972b550c3dull, 0xee0ac276bdd61436ull,
      0x99340ef001bf04c4ull, 0x8e12f5fc530610e5ull}},
    {"LU",
     {0xb1590e40bac522c6ull, 0x093ea7163f4de83bull, 0xe20d59c8c2cb5421ull,
      0x5c5181a261f247d1ull, 0x8c39d2082886706eull, 0x0000000000000000ull,
      0x53018ee0d4bb66e7ull, 0xe20d59c8c2cb5421ull, 0xf895132409041dc9ull,
      0x093ea7163f4de83bull, 0x0f723b412f5bf372ull, 0x0000000000000000ull,
      0x9a4695d735cffc96ull, 0x70674587fb0f06eeull, 0x877fcf2dd171cd18ull,
      0x0d9176d9d8394ba0ull, 0xa32e5d973eb8d5c9ull}},
    {"Sieve",
     {0xf2ff0174cae8631dull, 0x9c7d416228d2068eull, 0x5e49744330a02973ull,
      0xed2ec69ccf160cbdull, 0xf44812e1213b85eaull, 0x269a6849dda2f9a9ull,
      0xfd880285f0e75415ull, 0xbab2a870dd268007ull, 0xe244ca9129ce4befull,
      0xe75622c70a2439adull, 0x20b69548425e7d43ull, 0x198d16087621fb52ull,
      0x40cecce329289289ull, 0x78da61e389cd61ccull, 0xd2a8c281ac962b1bull,
      0xafe0106ff881cdcaull, 0xc4983c71b723723dull}},
    {"BubbleSort",
     {0xe786f0a0596a9b6bull, 0x769cbc7199d18709ull, 0x8d957ecc3a94fb5dull,
      0xe9458598ac43f06full, 0x89676f45631b4ea7ull, 0x37ed2bfeb5c9c866ull,
      0x3200492a39d351f6ull, 0x8a91bef0953e8cbdull, 0x1fabb9b90af49636ull,
      0x0000000000000000ull, 0x2e7a8f2cd12e4d23ull, 0x09378c7462415732ull,
      0xa9c8ebecf696ed48ull, 0xdd5b7e7caf39f429ull, 0x840df6910b493a4eull,
      0xd8869f0d9c5cb66full, 0xd2b310830df9f6baull}},
    {"SelectionSort",
     {0x74a31b1b96ef72a7ull, 0x343ded9f5c8f3ef4ull, 0xbdebf36274f9ee8aull,
      0x92b2ee059fd96511ull, 0xfb170820902395aaull, 0xe54cad7db5adb384ull,
      0xc180896f3daf506dull, 0x1d557564ae0b5ec8ull, 0xe62f8d7a4339c311ull,
      0xcac11b6aa5469c51ull, 0xc1227255bc608eedull, 0xc484a27412f450acull,
      0x896406f7a6cbaaccull, 0xdb1be3d280e818c9ull, 0xdbbda449dd0dedd3ull,
      0xd7521bbad8d1567bull, 0x21a0cf2d05bde638ull}},
    {"Linpack",
     {0xeb5f79b0580e5adfull, 0x3dae4622867284e2ull, 0xa92af86a6e0ff66dull,
      0x3c77a9096747001full, 0x16e5f5cea3306d69ull, 0x0000000000000000ull,
      0xc093435a12821ff8ull, 0x0f3cd818c113afd1ull, 0xd11c56d174cb3adeull,
      0x9ab21ae011b8a3a6ull, 0x5242c9b0a45d5a82ull, 0x0000000000000000ull,
      0x812771169eba4138ull, 0xa27869607e3948b4ull, 0x3c9715c820b20576ull,
      0x256529f4b23c2f1dull, 0xe095357aead6f8e1ull}},
    {"Fibonacci.iter",
     {0xd514616dd7caf28cull, 0x16467cca6eb4dfd0ull, 0x0b620dba33c9722eull,
      0x5fcd2d8a62efb6a4ull, 0x16467cca6eb4dfd0ull, 0x78a228311e39644bull,
      0xb619cbe29e625118ull, 0x715874aec69581edull, 0x9336bc59faec7c13ull,
      0x5fcd2d8a62efb6a4ull, 0x4484aa43f9d5a1d7ull, 0xe518d621f225e0c8ull,
      0x7d395bf524915ba9ull, 0xf5b0f42265f9e342ull, 0x37a156c4ce44bef8ull,
      0x4a66214f2ae3a8ebull, 0x9c974934a27d1d04ull}},
    {"Fibonacci.recv",
     {0xabd32c5200551790ull, 0xcf55ec024099cf7eull, 0xfdee02bd85631a37ull,
      0x569863f67573aba9ull, 0x8f54a94baceee230ull, 0x6f1eb64d2a09ffbbull,
      0xfdee02bd85631a37ull, 0xfd0498dca0c07a7bull, 0x0000000000000000ull,
      0x91df4999e43cdabaull, 0x96372531a2b7e2e8ull, 0xfd0498dca0c07a7bull,
      0x0100b5c6f4af533cull, 0xfdee02bd85631a37ull, 0x0f273f7b6921608cull,
      0x2b84f33fbc84181cull, 0x38db1b889d5b2faaull}},
    {"Dhrystone",
     {0xdbf646482c3e2143ull, 0xa26b05522b20cdabull, 0xbe6161ef58d1eeccull,
      0x733d972265b238c6ull, 0x1f3af1d91a98d2dfull, 0xfdad29bba95ee4ddull,
      0x40220deb6770c08dull, 0x5e6fdf1154fe9a0aull, 0xd545d1e958e71fb8ull,
      0xc463c317feb925c9ull, 0x0fc36f974579662dull, 0x9c7c2d4db013dbfdull,
      0xf8d3afdb48e9310eull, 0x123188512c00e435ull, 0xaa55c7e5c16a71bfull,
      0x261cce7f7c31cf34ull, 0xae5e4780fa7ef0afull}},
    {"MaterialLife",
     {0x1fc734dc1144ed71ull, 0xf7701f880f780471ull, 0x478017e1d2a0b2e6ull,
      0x4dee173778e040c0ull, 0x46f77de7754ab355ull, 0xb88220e418dc6f38ull,
      0xf438a8f30e4fc4adull, 0xf94ef8f1fa0227dfull, 0x0110d6b8b8d541b2ull,
      0x0000000000000000ull, 0x27b4e9c73f63686bull, 0x3f2e1a0be40e87c9ull,
      0x45b09e94a9e492d4ull, 0xd88079abdb70bc66ull, 0x7e0f78be3805e7b5ull,
      0xda555b180af8afbaull, 0xc7f696c8e4a4cb1aull}},
    {"4inaRow",
     {0xdaab5b2c648e1f01ull, 0xfb15c125ed27f566ull, 0x928dc4659b0f2df8ull,
      0x353a6eee0826cfabull, 0x6e4eb1df3ab623edull, 0xb0ba0bd332ce7a69ull,
      0x1d6e349985ff3c49ull, 0x358d5a2cc56c38cfull, 0xa036c52dc249b593ull,
      0x0000000000000000ull, 0x67f0d6c25330d4edull, 0x1e0c5d43faff9107ull,
      0x77854a38234ab716ull, 0x6fe47a4648478cfaull, 0xdab4c8363d654ad0ull,
      0xcb8fd110d445f1c7ull, 0x90b64bad0f14ac2eull}},
    {"DroidFish",
     {0x033922d0da63e2ffull, 0x83ca94bc7c670ec1ull, 0x0bec94052617e41cull,
      0x2d99f47d5ffc1539ull, 0x4881f97746d6f6b6ull, 0xe97d1646b7bb6990ull,
      0x80b7b9e688c7006aull, 0xce909c89df0262deull, 0xf4249d7b47c0571full,
      0x0000000000000000ull, 0xd847414a93102709ull, 0x50751bbba5f6800cull,
      0x175afe48d99baee6ull, 0xc68b7adbfff4336cull, 0x2146e3c12781ddbfull,
      0xacf5ecf8c7174053ull, 0x8c07be3182d7262aull}},
    {"ColorOverflow",
     {0x39ff1c81f2b71354ull, 0x4ac30216692a5f71ull, 0xe0393e963673b837ull,
      0xe2d96fab3e2e89d4ull, 0xf6cc7c416bfccc80ull, 0xec8ba333be3e9110ull,
      0x8e9b1aa0d349cf9cull, 0xa66ffd1535bd39b6ull, 0x433a91c251001b59ull,
      0x0000000000000000ull, 0xe764d109b7d8e25bull, 0xdaae5c86f524ca33ull,
      0xadb3352f19d647d7ull, 0xa1b7cf6aa5d8a019ull, 0x75a7d80ec8d915b2ull,
      0xc3c232b3fe7036ceull, 0xea121ddc2e26632aull}},
    {"Brainstonz",
     {0x5e252cb86e760e5cull, 0x447a46a67eba0033ull, 0xf6d0569efadfbab5ull,
      0xcbff06530e9d241eull, 0x8ee947c73e7ad7e2ull, 0x205e84085d80a93bull,
      0x7427c1e6dba26944ull, 0xd03d1054087cb930ull, 0x8b0e93544ffbcdf6ull,
      0xfe43ba246dff366eull, 0x05eea186b4823222ull, 0x428451d2fb2cfb30ull,
      0xe8a50aa560042bd5ull, 0xd89fc9486cd6fbd3ull, 0x4ab52c9596a3671bull,
      0x70eae4a2bec7836full, 0x2e7ccb40386091bbull}},
    {"Blokish",
     {0x4ab2168561109187ull, 0xae369100bfefb996ull, 0x45e66b767eae3bb3ull,
      0x5abb8497f1a96d14ull, 0xae369100bfefb996ull, 0xd27a0c8f4950abcfull,
      0x8a1d9d938a0926beull, 0xa570bcecbe7c41e4ull, 0x36f761ffb034d648ull,
      0x0000000000000000ull, 0x7c9bac01a03f9016ull, 0x54cacc04385b4423ull,
      0x85bcd97e0c60dd32ull, 0x6e59d51fcd5e5958ull, 0x8c0c69eaecfb224eull,
      0x5003ec6353a67c94ull, 0xe1ee1036383aa17cull}},
    {"Svarka Calculator",
     {0x77115da2e80beef7ull, 0x5a78aac780142575ull, 0xae0704ab04eaa627ull,
      0x929490e7e3729225ull, 0x844d560d5cfa9599ull, 0x0ea95924f276c06full,
      0x24447e53443deb72ull, 0xae0704ab04eaa627ull, 0x09083c80bd56cc58ull,
      0x16d0671b0121f689ull, 0xdec9810dfe517d0cull, 0x7907d4cdd72f464full,
      0xe18443bac8b12776ull, 0xa52b059c22fa26d6ull, 0x978233a8c617d4abull,
      0x50dc611618745f47ull, 0x9621610ea743e9d4ull}},
    {"Reversi Android",
     {0xc1eb1451a6cf0047ull, 0x63400f829642fc44ull, 0x93e026464cb94807ull,
      0x106aeb81db3dbef0ull, 0x12dc1d4fd5c716dbull, 0x1963682d1fc6f670ull,
      0xc8c2937a076ebdddull, 0x73a4fee7e16bf963ull, 0x0000000000000000ull,
      0x0000000000000000ull, 0xd52414f6a98bdf4bull, 0x4850794cae4d9453ull,
      0xb7c9737ddb9c2db9ull, 0xe3bf94f47d7dd3cbull, 0x5aae935d6c67e9d3ull,
      0xc6917f70fa771cfdull, 0x44842ff1fca6dc0full}},
    {"Poker Odds (Vitosha)",
     {0x5602087154a15b30ull, 0x8b46cc44cdafcc87ull, 0x95bcf4a5113cbf68ull,
      0xfd136f51eb568430ull, 0x14e9e741f4bfd063ull, 0xcc5cf021cc24bd0bull,
      0x0ecb794169a7f8d6ull, 0x95bcf4a5113cbf68ull, 0x5ee4870bf0fada78ull,
      0x0000000000000000ull, 0xfaf880e87743ac7eull, 0x0000000000000000ull,
      0xdc34fac2d3a3258aull, 0x5f3a025e41369e5cull, 0x4145ca64ee9aebdeull,
      0xf11402c2dfcb4daeull, 0x8407dc60c305ecdaull}},
  };

  core::PipelineConfig Config;
  const std::vector<RegionFixture> &Regions = tableOneRegions();
  ASSERT_EQ(Regions.size(), Golden.size());
  const std::vector<search::Genome> Genomes = goldenGenomes();
  for (size_t A = 0; A != Regions.size(); ++A) {
    const RegionFixture &F = Regions[A];
    const GoldenRow &Row = Golden[A];
    ASSERT_EQ(F.App.Name, Row.App);
    core::RegionEvaluator Eval(F.App, F.Region, F.Captures, Config);
    std::vector<uint64_t> Hashes;
    for (const search::Genome &G : Genomes)
      Hashes.push_back(Eval.compileGenome(G).BinaryHash);
    EXPECT_TRUE(Hashes == Row.Hashes) << Row.App << " measured:\n"
                                      << hashRowText(Hashes);
  }
}

// --- Golden replays ----------------------------------------------------------------
//
// One verified replay of every binary GoldenBinaryHash pins, plus the
// region's stock Android binary, for each Table-1 app; and one
// AttributeCycles profiling run per app. Pinned before the VM kept its
// counters frame-local (the stress-genome rows with their hashes): the
// replay hot path may get faster, but no verdict, trap, return value,
// cycle or instruction count may move, and neither may the per-method
// profile the counters also feed. An edit that changes these on purpose
// must update the table; a failure prints the app's measured rows in
// table syntax.

namespace {

/// One binary's verified replay. Verdict is the support::ErrorCode of a
/// rejected binary, -1 for a verified one, -2 when compilation failed
/// (then the other fields are 0).
struct ReplayRow {
  int Verdict;
  int Trap;
  uint64_t Ret;
  uint64_t Cycles;
  uint64_t Insns;
};

std::string rowsText(const std::vector<ReplayRow> &Rows) {
  std::string Out;
  for (const ReplayRow &R : Rows)
    Out += format("      {%d, %d, 0x%016llxull, %lluull, %lluull},\n",
                  R.Verdict, R.Trap, static_cast<unsigned long long>(R.Ret),
                  static_cast<unsigned long long>(R.Cycles),
                  static_cast<unsigned long long>(R.Insns));
  return Out;
}

ReplayRow replayRow(replay::Replayer &Rep, const RegionFixture &F,
                    const vm::CodeCache &Code) {
  const core::CapturedRegion &C = F.Captures[0];
  support::Result<replay::ReplayResult> Verified =
      Rep.verifiedReplay(C.Cap, Code, C.Map);
  // The verdict hides a rejected replay's CallResult; an unverified replay
  // of the same binary shows it (replays are deterministic).
  vm::CallResult R =
      Rep.replay(C.Cap, replay::ReplayCode::Compiled, &Code).Result;
  return ReplayRow{Verified ? -1 : static_cast<int>(Verified.error().Code),
                   static_cast<int>(R.Trap), R.Ret.Raw, R.Cycles, R.Insns};
}

/// FNV-1a over a profiling run's per-method cycles and feature counts.
uint64_t profileHash(const vm::Runtime &RT) {
  uint64_t H = 1469598103934665603ULL;
  auto Mix = [&H](uint64_t V) {
    H ^= V;
    H *= 1099511628211ULL;
  };
  for (uint64_t C : RT.methodCycles())
    Mix(C);
  for (const vm::MethodFeatureCounters &F : RT.methodFeatures())
    for (uint64_t V : {F.Insns, F.Branches, F.Mispredicts, F.MemReads,
                       F.MemWrites, F.CacheMisses, F.Allocs, F.AllocSlots,
                       F.NativeCycles})
      Mix(V);
  return H;
}

} // namespace

TEST(GoldenReplay, MatchesPinnedValues) {
  struct GoldenApp {
    const char *App;
    uint64_t ProfileHash; ///< Two AttributeCycles sessions, seed 1.
    /// Android, o3, then genomes 0..9, then the stress genomes.
    std::vector<ReplayRow> Rows;
  };
  const std::vector<GoldenApp> Golden = {
    {"FFT", 0xcab68a975d79c009ull,
     {
      {-1, 0, 0x000000000001faf9ull, 724674ull, 224138ull},
      {-1, 0, 0x000000000001faf9ull, 571951ull, 237678ull},
      {-1, 0, 0x000000000001faf9ull, 1292993ull, 397167ull},
      {-1, 0, 0x000000000001faf9ull, 656864ull, 301034ull},
      {-1, 0, 0x000000000001faf9ull, 1579235ull, 404338ull},
      {-1, 0, 0x000000000001faf9ull, 1180033ull, 345263ull},
      {3, 2, 0x0000000000000000ull, 636573ull, 299845ull},
      {-1, 0, 0x000000000001faf9ull, 732899ull, 301546ull},
      {-1, 0, 0x000000000001faf9ull, 674087ull, 310169ull},
      {-1, 0, 0x000000000001faf9ull, 1384003ull, 337682ull},
      {-2, 0, 0x0000000000000000ull, 0ull, 0ull},
      {-1, 0, 0x000000000001faf9ull, 1057545ull, 312437ull},
      {-2, 0, 0x0000000000000000ull, 0ull, 0ull},
      {3, 2, 0x0000000000000000ull, 448420ull, 198877ull},
      {-1, 0, 0x000000000001faf9ull, 657953ull, 277735ull},
      {-1, 0, 0x000000000001faf9ull, 1396981ull, 293706ull},
      {-1, 0, 0x000000000001faf9ull, 497937ull, 234895ull},
      {-2, 0, 0x0000000000000000ull, 0ull, 0ull},
     }},
    {"SOR", 0x991e1dabeb2269dfull,
     {
      {-1, 0, 0x0000000000081029ull, 691375ull, 230231ull},
      {-1, 0, 0x0000000000081029ull, 572551ull, 247233ull},
      {-1, 0, 0x0000000000081029ull, 1174372ull, 369638ull},
      {-1, 0, 0x0000000000081029ull, 649340ull, 298630ull},
      {-1, 0, 0x0000000000081029ull, 1156170ull, 369822ull},
      {-1, 0, 0x0000000000081029ull, 1098196ull, 318854ull},
      {3, 2, 0x0000000000000000ull, 178840ull, 74103ull},
      {5, 0, 0x0000000000081029ull, 683196ull, 315558ull},
      {-1, 0, 0x0000000000081029ull, 649380ull, 298590ull},
      {5, 0, 0x0000000000081029ull, 1008776ull, 327280ull},
      {-2, 0, 0x0000000000000000ull, 0ull, 0ull},
      {-1, 0, 0x0000000000081029ull, 993943ull, 293229ull},
      {-2, 0, 0x0000000000000000ull, 0ull, 0ull},
      {3, 2, 0x0000000000000000ull, 155199ull, 66920ull},
      {-1, 0, 0x0000000000081029ull, 633940ull, 283230ull},
      {-1, 0, 0x0000000000081029ull, 1073933ull, 298397ull},
      {5, 0, 0x0000000000081029ull, 539114ull, 239188ull},
      {-1, 0, 0x0000000000081029ull, 1408153ull, 281751ull},
     }},
    {"MonteCarlo", 0xea3670f2da6f90a3ull,
     {
      {-1, 0, 0x00000000002fba4full, 420234ull, 211474ull},
      {-1, 0, 0x00000000002fba4full, 361876ull, 195730ull},
      {-1, 0, 0x00000000002fba4full, 1044458ull, 302284ull},
      {-1, 0, 0x00000000002fba4full, 418676ull, 252530ull},
      {-1, 0, 0x00000000002fba4full, 1158046ull, 359076ull},
      {-1, 0, 0x00000000002fba4full, 1044458ull, 302284ull},
      {-1, 0, 0x00000000002fba4full, 376071ull, 238327ull},
      {-1, 0, 0x00000000002fba4full, 418676ull, 252530ull},
      {-1, 0, 0x00000000002fba4full, 418676ull, 252530ull},
      {-1, 0, 0x00000000002fba4full, 638817ull, 302247ull},
      {-1, 0, 0x00000000002fba4full, 1044458ull, 302284ull},
      {-1, 0, 0x00000000002fba4full, 1115443ull, 344875ull},
      {-1, 0, 0x00000000002fba4full, 390272ull, 224126ull},
      {-1, 0, 0x00000000002fba4full, 376071ull, 238327ull},
      {-1, 0, 0x00000000002fba4full, 390272ull, 224126ull},
      {-1, 0, 0x00000000002fba4full, 753310ull, 195732ull},
      {-1, 0, 0x00000000002fba4full, 390274ull, 224128ull},
      {-1, 0, 0x00000000002fba4full, 838504ull, 224126ull},
     }},
    {"Sparse matmult", 0x94fbca34b4bf7d35ull,
     {
      {-1, 0, 0x000000000006e1fcull, 1120308ull, 382871ull},
      {-1, 0, 0x000000000006e1fcull, 1216308ull, 430861ull},
      {-1, 0, 0x000000000006e1fcull, 2377759ull, 599648ull},
      {-1, 0, 0x000000000006e1fcull, 1254143ull, 468696ull},
      {-1, 0, 0x000000000006e1fcull, 2314801ull, 603858ull},
      {-1, 0, 0x000000000006e1fcull, 2352559ull, 574448ull},
      {3, 2, 0x0000000000000000ull, 492734ull, 197512ull},
      {-1, 0, 0x000000000006e1fcull, 1254143ull, 468696ull},
      {-1, 0, 0x000000000006e1fcull, 1254143ull, 468696ull},
      {-1, 0, 0x000000000006e1fcull, 2010156ull, 515017ull},
      {-2, 0, 0x0000000000000000ull, 0ull, 0ull},
      {-1, 0, 0x000000000006e1fcull, 1890212ull, 471843ull},
      {-1, 0, 0x000000000006e1fcull, 1266726ull, 408092ull},
      {3, 2, 0x0000000000000000ull, 345673ull, 127374ull},
      {-1, 0, 0x000000000006e1fcull, 1206346ull, 408286ull},
      {-1, 0, 0x000000000006e1fcull, 1588957ull, 460278ull},
      {-1, 0, 0x000000000006e1fcull, 988581ull, 384078ull},
      {-1, 0, 0x000000000006e1fcull, 1805181ull, 408119ull},
     }},
    {"LU", 0x6d52f1a07cee791eull,
     {
      {-1, 0, 0x00000000000ada88ull, 287030ull, 104976ull},
      {-1, 0, 0x00000000000ada88ull, 214341ull, 98577ull},
      {-1, 0, 0x00000000000ada88ull, 635590ull, 159386ull},
      {-1, 0, 0x00000000000ada88ull, 292013ull, 136521ull},
      {-1, 0, 0x00000000000ada88ull, 596742ull, 173084ull},
      {-1, 0, 0x00000000000ada88ull, 583785ull, 136259ull},
      {-2, 0, 0x0000000000000000ull, 0ull, 0ull},
      {-1, 0, 0x00000000000ada88ull, 292013ull, 136521ull},
      {-1, 0, 0x00000000000ada88ull, 292013ull, 136521ull},
      {-1, 0, 0x00000000000ada88ull, 509909ull, 123682ull},
      {-1, 0, 0x00000000000ada88ull, 635590ull, 159386ull},
      {-1, 0, 0x00000000000ada88ull, 434614ull, 124619ull},
      {-2, 0, 0x0000000000000000ull, 0ull, 0ull},
      {3, 2, 0x0000000000000000ull, 15145ull, 9658ull},
      {-1, 0, 0x00000000000ada88ull, 243882ull, 110763ull},
      {-1, 0, 0x00000000000ada88ull, 394871ull, 122413ull},
      {-1, 0, 0x00000000000ada88ull, 169206ull, 89857ull},
      {-1, 0, 0x00000000000ada88ull, 544324ull, 109301ull},
     }},
    {"Sieve", 0xa3d04cb65ef122d8ull,
     {
      {-1, 0, 0x000000000000030full, 351704ull, 187322ull},
      {-1, 0, 0x000000000000030full, 439243ull, 225561ull},
      {-1, 0, 0x000000000000030full, 496333ull, 281053ull},
      {-1, 0, 0x000000000000030full, 466267ull, 252585ull},
      {-1, 0, 0x000000000000030full, 497113ull, 281833ull},
      {-1, 0, 0x000000000000030full, 470901ull, 255621ull},
      {3, 2, 0x0000000000000000ull, 168624ull, 132535ull},
      {-1, 0, 0x000000000000030full, 466267ull, 252585ull},
      {-1, 0, 0x000000000000030full, 467068ull, 251788ull},
      {-1, 0, 0x000000000000030full, 368054ull, 230162ull},
      {-1, 0, 0x000000000000030full, 496331ull, 281051ull},
      {-1, 0, 0x000000000000030full, 215371ull, 180871ull},
      {-1, 0, 0x000000000000030full, 454432ull, 239152ull},
      {-1, 0, 0x000000000000030full, 297449ull, 183963ull},
      {-1, 0, 0x000000000000030full, 454147ull, 240465ull},
      {-1, 0, 0x000000000000030full, 464842ull, 250998ull},
      {-1, 0, 0x000000000000030full, 336443ull, 200149ull},
      {-1, 0, 0x000000000000030full, 875222ull, 239340ull},
     }},
    {"BubbleSort", 0xd73d984998c24940ull,
     {
      {-1, 0, 0x0000000000005d48ull, 1157170ull, 499093ull},
      {-1, 0, 0x0000000000005d48ull, 914629ull, 481730ull},
      {-1, 0, 0x0000000000005d48ull, 1396195ull, 763722ull},
      {-1, 0, 0x0000000000005d48ull, 1281515ull, 685460ull},
      {-1, 0, 0x0000000000005d48ull, 1456182ull, 787723ull},
      {-1, 0, 0x0000000000005d48ull, 1077526ull, 608209ull},
      {-1, 0, 0x0000000000005d48ull, 562933ull, 397710ull},
      {-1, 0, 0x0000000000005d48ull, 1281515ull, 685460ull},
      {-1, 0, 0x0000000000005d48ull, 1281715ull, 685260ull},
      {-1, 0, 0x0000000000005d48ull, 822004ull, 536181ull},
      {-2, 0, 0x0000000000000000ull, 0ull, 0ull},
      {-1, 0, 0x0000000000005d48ull, 760642ull, 524017ull},
      {-1, 0, 0x0000000000005d48ull, 1215961ull, 619506ull},
      {3, 2, 0x0000000000000000ull, 1077432ull, 601788ull},
      {-1, 0, 0x0000000000005d48ull, 1220217ull, 624162ull},
      {-1, 0, 0x0000000000005d48ull, 1511282ull, 637253ull},
      {-1, 0, 0x0000000000005d48ull, 743366ull, 457943ull},
      {-1, 0, 0x0000000000005d48ull, 2627693ull, 620170ull},
     }},
    {"SelectionSort", 0xa0c7ed03ceb0eaaaull,
     {
      {-1, 0, 0x00000000389cd3aaull, 391798ull, 201455ull},
      {-1, 0, 0x00000000389cd3aaull, 558152ull, 320070ull},
      {-1, 0, 0x00000000389cd3aaull, 615084ull, 375028ull},
      {-1, 0, 0x00000000389cd3aaull, 587295ull, 347239ull},
      {-1, 0, 0x00000000389cd3aaull, 613832ull, 373776ull},
      {-1, 0, 0x00000000389cd3aaull, 587264ull, 349182ull},
      {-1, 0, 0x00000000389cd3aaull, 315537ull, 249107ull},
      {-1, 0, 0x00000000389cd3aaull, 587295ull, 347239ull},
      {-1, 0, 0x00000000389cd3aaull, 589422ull, 349366ull},
      {-1, 0, 0x00000000389cd3aaull, 488906ull, 324408ull},
      {-1, 0, 0x00000000389cd3aaull, 612956ull, 372900ull},
      {-1, 0, 0x00000000389cd3aaull, 340723ull, 274343ull},
      {-1, 0, 0x00000000389cd3aaull, 587464ull, 347408ull},
      {3, 2, 0x0000000000000000ull, 3893ull, 2717ull},
      {-1, 0, 0x00000000389cd3aaull, 585504ull, 345448ull},
      {-1, 0, 0x00000000389cd3aaull, 688720ull, 346140ull},
      {-1, 0, 0x00000000389cd3aaull, 461140ull, 296642ull},
      {-1, 0, 0x00000000389cd3aaull, 1479131ull, 347429ull},
     }},
    {"Linpack", 0x3cc75e5616cfd07aull,
     {
      {-1, 0, 0x000000000009af6full, 173326ull, 78299ull},
      {-1, 0, 0x000000000009af6full, 182221ull, 88100ull},
      {-1, 0, 0x000000000009af6full, 263542ull, 131951ull},
      {-1, 0, 0x000000000009af6full, 212095ull, 102722ull},
      {-1, 0, 0x000000000009af6full, 546820ull, 134431ull},
      {-1, 0, 0x000000000009af6full, 556958ull, 117551ull},
      {-2, 0, 0x0000000000000000ull, 0ull, 0ull},
      {-1, 0, 0x000000000009af6full, 212095ull, 102722ull},
      {-1, 0, 0x000000000009af6full, 212647ull, 103274ull},
      {-1, 0, 0x000000000009af6full, 394330ull, 107911ull},
      {-1, 0, 0x000000000009af6full, 262090ull, 131651ull},
      {-1, 0, 0x000000000009af6full, 163529ull, 100514ull},
      {-2, 0, 0x0000000000000000ull, 0ull, 0ull},
      {3, 2, 0x0000000000000000ull, 13432ull, 8471ull},
      {-1, 0, 0x000000000009af6full, 199060ull, 89960ull},
      {-1, 0, 0x000000000009af6full, 353892ull, 98531ull},
      {-1, 0, 0x000000000009af6full, 146028ull, 79271ull},
      {-1, 0, 0x000000000009af6full, 530424ull, 89415ull},
     }},
    {"Fibonacci.iter", 0xe27d7020e1a5d486ull,
     {
      {-1, 0, 0xbdd7b17092f6e190ull, 153932ull, 119711ull},
      {-1, 0, 0xbdd7b17092f6e190ull, 222334ull, 153911ull},
      {-1, 0, 0xbdd7b17092f6e190ull, 273647ull, 205224ull},
      {-1, 0, 0xbdd7b17092f6e190ull, 222338ull, 153915ull},
      {-1, 0, 0xbdd7b17092f6e190ull, 239447ull, 171024ull},
      {-1, 0, 0xbdd7b17092f6e190ull, 273647ull, 205224ull},
      {5, 0, 0x212ace0d24229142ull, 70938ull, 70917ull},
      {-1, 0, 0xbdd7b17092f6e190ull, 222338ull, 153915ull},
      {-1, 0, 0xbdd7b17092f6e190ull, 256538ull, 188115ull},
      {-1, 0, 0xbdd7b17092f6e190ull, 273637ull, 205214ull},
      {-1, 0, 0xbdd7b17092f6e190ull, 239447ull, 171024ull},
      {-1, 0, 0xbdd7b17092f6e190ull, 136844ull, 136823ull},
      {-1, 0, 0xbdd7b17092f6e190ull, 241538ull, 120783ull},
      {5, 0, 0x51ffc910e8b7135bull, 39586ull, 39565ull},
      {-1, 0, 0xbdd7b17092f6e190ull, 162486ull, 94063ull},
      {-1, 0, 0xbdd7b17092f6e190ull, 222336ull, 153913ull},
      {-1, 0, 0xbdd7b17092f6e190ull, 222336ull, 153913ull},
      {-1, 0, 0xbdd7b17092f6e190ull, 494824ull, 121851ull},
     }},
    {"Fibonacci.recv", 0xf7a31bb75348ca93ull,
     {
      {-1, 0, 0x0000000000000179ull, 25592ull, 9147ull},
      {-1, 0, 0x0000000000000179ull, 28084ull, 9599ull},
      {-1, 0, 0x0000000000000179ull, 36570ull, 17685ull},
      {-1, 0, 0x0000000000000179ull, 29252ull, 10367ull},
      {-1, 0, 0x0000000000000179ull, 34621ull, 15936ull},
      {-1, 0, 0x0000000000000179ull, 36370ull, 17685ull},
      {-1, 0, 0x0000000000000179ull, 26201ull, 9756ull},
      {-1, 0, 0x0000000000000179ull, 29252ull, 10367ull},
      {-1, 0, 0x0000000000000179ull, 30471ull, 11586ull},
      {-2, 0, 0x0000000000000000ull, 0ull, 0ull},
      {-1, 0, 0x0000000000000179ull, 35351ull, 16466ull},
      {-1, 0, 0x0000000000000179ull, 31081ull, 14636ull},
      {-1, 0, 0x0000000000000179ull, 30471ull, 11586ull},
      {-1, 0, 0x0000000000000179ull, 25592ull, 9147ull},
      {-1, 0, 0x0000000000000179ull, 29252ull, 10367ull},
      {-1, 0, 0x0000000000000179ull, 29786ull, 10289ull},
      {-1, 0, 0x0000000000000179ull, 28642ull, 9757ull},
      {-1, 0, 0x0000000000000179ull, 31381ull, 11508ull},
     }},
    {"Dhrystone", 0x7c3e23b637c3f8bull,
     {
      {-1, 0, 0x000000000080580eull, 225609ull, 114815ull},
      {-1, 0, 0x000000000080580eull, 254313ull, 123017ull},
      {-1, 0, 0x000000000080580eull, 401937ull, 217341ull},
      {-1, 0, 0x000000000080580eull, 352714ull, 168118ull},
      {-1, 0, 0x000000000080580eull, 332237ull, 188641ull},
      {-1, 0, 0x000000000080580eull, 315837ull, 184541ull},
      {5, 0, 0x0000000000823a75ull, 260772ull, 120258ull},
      {-1, 0, 0x000000000080580eull, 356814ull, 172218ull},
      {-1, 0, 0x000000000080580eull, 360914ull, 176318ull},
      {-1, 0, 0x000000000080580eull, 315818ull, 184522ull},
      {-1, 0, 0x000000000080580eull, 393737ull, 209141ull},
      {-1, 0, 0x000000000080580eull, 303534ull, 164040ull},
      {-1, 0, 0x000000000080580eull, 549722ull, 164210ull},
      {5, 0, 0x0000000000811898ull, 284866ull, 132628ull},
      {-1, 0, 0x000000000080580eull, 337850ull, 153254ull},
      {-1, 0, 0x000000000080580eull, 303516ull, 143518ull},
      {-1, 0, 0x000000000080580eull, 311712ull, 139416ull},
      {-1, 0, 0x000000000080580eull, 397813ull, 164015ull},
     }},
    {"MaterialLife", 0x3888b7f23d9a938cull,
     {
      {-1, 0, 0x00000000000000eaull, 1016593ull, 371868ull},
      {-1, 0, 0x00000000000000eaull, 748522ull, 345767ull},
      {-1, 0, 0x00000000000000eaull, 1438948ull, 490643ull},
      {-1, 0, 0x00000000000000eaull, 843967ull, 452774ull},
      {-1, 0, 0x00000000000000eaull, 1546013ull, 554992ull},
      {-1, 0, 0x00000000000000eaull, 1396612ull, 448307ull},
      {3, 2, 0x0000000000000000ull, 607120ull, 340802ull},
      {-1, 0, 0x00000000000000eaull, 843967ull, 452774ull},
      {-1, 0, 0x00000000000000eaull, 849295ull, 458030ull},
      {-1, 0, 0x00000000000000eaull, 1082382ull, 461157ull},
      {-2, 0, 0x0000000000000000ull, 0ull, 0ull},
      {-1, 0, 0x00000000000000eaull, 1396260ull, 456861ull},
      {-1, 0, 0x00000000000000eaull, 815534ull, 418509ull},
      {3, 2, 0x0000000000000000ull, 746114ull, 407664ull},
      {-1, 0, 0x00000000000000eaull, 806319ull, 415126ull},
      {-1, 0, 0x00000000000000eaull, 1391395ull, 388372ull},
      {-1, 0, 0x00000000000000eaull, 683048ull, 364263ull},
      {-1, 0, 0x00000000000000eaull, 1588272ull, 418781ull},
     }},
    {"4inaRow", 0xf9fdf5aff6f5b8b1ull,
     {
      {-1, 0, 0x0000000000000ff6ull, 31697ull, 8654ull},
      {-1, 0, 0x0000000000000ff6ull, 29201ull, 8774ull},
      {-1, 0, 0x0000000000000ff6ull, 53974ull, 12552ull},
      {-1, 0, 0x0000000000000ff6ull, 31413ull, 10311ull},
      {-1, 0, 0x0000000000000ff6ull, 60262ull, 13328ull},
      {-1, 0, 0x0000000000000ff6ull, 53969ull, 12550ull},
      {-1, 0, 0x0000000000000ff6ull, 28962ull, 9461ull},
      {-1, 0, 0x0000000000000ff6ull, 31772ull, 10654ull},
      {-1, 0, 0x0000000000000ff6ull, 31421ull, 10319ull},
      {-1, 0, 0x0000000000000ff6ull, 48054ull, 12863ull},
      {-2, 0, 0x0000000000000000ull, 0ull, 0ull},
      {-1, 0, 0x0000000000000ff6ull, 57860ull, 12527ull},
      {-1, 0, 0x0000000000000ff6ull, 31251ull, 10149ull},
      {-1, 0, 0x0000000000000ff6ull, 28444ull, 8940ull},
      {-1, 0, 0x0000000000000ff6ull, 30784ull, 9682ull},
      {-1, 0, 0x0000000000000ff6ull, 41859ull, 8833ull},
      {-1, 0, 0x0000000000000ff6ull, 30951ull, 9852ull},
      {-1, 0, 0x0000000000000ff6ull, 45493ull, 10149ull},
     }},
    {"DroidFish", 0xb74a7ededa730811ull,
     {
      {-1, 0, 0x0000000000003010ull, 78697ull, 27658ull},
      {-1, 0, 0x0000000000003010ull, 87132ull, 31987ull},
      {-1, 0, 0x0000000000003010ull, 160449ull, 43364ull},
      {-1, 0, 0x0000000000003010ull, 92778ull, 37633ull},
      {-1, 0, 0x0000000000003010ull, 153798ull, 41831ull},
      {-1, 0, 0x0000000000003010ull, 158401ull, 41316ull},
      {-1, 0, 0x0000000000003010ull, 74826ull, 29939ull},
      {-1, 0, 0x0000000000003010ull, 92778ull, 37633ull},
      {-1, 0, 0x0000000000003010ull, 93034ull, 37377ull},
      {-1, 0, 0x0000000000003010ull, 116626ull, 40777ull},
      {-2, 0, 0x0000000000000000ull, 0ull, 0ull},
      {-1, 0, 0x0000000000003010ull, 141211ull, 34910ull},
      {-1, 0, 0x0000000000003010ull, 92250ull, 36593ull},
      {-1, 0, 0x0000000000003010ull, 75838ull, 29415ull},
      {-1, 0, 0x0000000000003010ull, 89170ull, 34025ull},
      {-1, 0, 0x0000000000003010ull, 116467ull, 34296ull},
      {-1, 0, 0x0000000000003010ull, 85855ull, 32246ull},
      {-1, 0, 0x0000000000003010ull, 123900ull, 36593ull},
     }},
    {"ColorOverflow", 0x27359fb2964263efull,
     {
      {-1, 0, 0x0000000000000002ull, 99637ull, 57746ull},
      {-1, 0, 0x0000000000000002ull, 132291ull, 74127ull},
      {-1, 0, 0x0000000000000002ull, 185168ull, 74858ull},
      {-1, 0, 0x0000000000000002ull, 132463ull, 74245ull},
      {-1, 0, 0x0000000000000002ull, 250682ull, 74888ull},
      {-1, 0, 0x0000000000000002ull, 185109ull, 74814ull},
      {-1, 0, 0x0000000000000002ull, 26981ull, 26319ull},
      {-1, 0, 0x0000000000000002ull, 132424ull, 74245ull},
      {-1, 0, 0x0000000000000002ull, 132471ull, 74253ull},
      {-1, 0, 0x0000000000000002ull, 135605ull, 66564ull},
      {-2, 0, 0x0000000000000000ull, 0ull, 0ull},
      {-1, 0, 0x0000000000000002ull, 152104ull, 50211ull},
      {-1, 0, 0x0000000000000002ull, 116241ull, 58062ull},
      {-1, 0, 0x0000000000000002ull, 60056ull, 34727ull},
      {-1, 0, 0x0000000000000002ull, 117998ull, 59819ull},
      {-1, 0, 0x0000000000000002ull, 165472ull, 74196ull},
      {-1, 0, 0x0000000000000002ull, 99497ull, 65946ull},
      {-1, 0, 0x0000000000000002ull, 170081ull, 58318ull},
     }},
    {"Brainstonz", 0x7207460719945782ull,
     {
      {-1, 0, 0x000000000000001full, 501913ull, 188777ull},
      {-1, 0, 0x000000000000001full, 557933ull, 219241ull},
      {-1, 0, 0x000000000000001full, 641769ull, 287845ull},
      {-1, 0, 0x000000000000001full, 580824ull, 237854ull},
      {-1, 0, 0x000000000000001full, 1228348ull, 286840ull},
      {-1, 0, 0x000000000000001full, 1253270ull, 285074ull},
      {-1, 0, 0x000000000000001full, 710995ull, 255738ull},
      {-1, 0, 0x000000000000001full, 594216ull, 251246ull},
      {-1, 0, 0x000000000000001full, 581234ull, 238264ull},
      {-1, 0, 0x000000000000001full, 949396ull, 271209ull},
      {-1, 0, 0x000000000000001full, 645744ull, 287434ull},
      {-1, 0, 0x000000000000001full, 481892ull, 228861ull},
      {-1, 0, 0x000000000000001full, 783728ull, 198302ull},
      {3, 2, 0x0000000000000000ull, 1348ull, 393ull},
      {-1, 0, 0x000000000000001full, 536099ull, 188527ull},
      {-1, 0, 0x000000000000001full, 918827ull, 221703ull},
      {-1, 0, 0x000000000000001full, 507147ull, 208124ull},
      {-1, 0, 0x000000000000001full, 1078044ull, 197558ull},
     }},
    {"Blokish", 0x478e78405684ff5full,
     {
      {-1, 0, 0x00000000000004ddull, 207769ull, 106268ull},
      {-1, 0, 0x00000000000004ddull, 254980ull, 137797ull},
      {-1, 0, 0x00000000000004ddull, 499714ull, 189571ull},
      {-1, 0, 0x00000000000004ddull, 262018ull, 144835ull},
      {-1, 0, 0x00000000000004ddull, 494286ull, 195015ull},
      {-1, 0, 0x00000000000004ddull, 499714ull, 189571ull},
      {-1, 0, 0x00000000000004ddull, 165918ull, 115693ull},
      {-1, 0, 0x00000000000004ddull, 262018ull, 144835ull},
      {-1, 0, 0x00000000000004ddull, 262026ull, 144827ull},
      {-1, 0, 0x00000000000004ddull, 388284ull, 177683ull},
      {-2, 0, 0x0000000000000000ull, 0ull, 0ull},
      {-1, 0, 0x00000000000004ddull, 418529ull, 167466ull},
      {-1, 0, 0x00000000000004ddull, 254996ull, 137797ull},
      {-1, 0, 0x00000000000004ddull, 208626ull, 122821ull},
      {-1, 0, 0x00000000000004ddull, 251833ull, 134650ull},
      {-1, 0, 0x00000000000004ddull, 256607ull, 139374ull},
      {-1, 0, 0x00000000000004ddull, 209124ull, 127521ull},
      {-1, 0, 0x00000000000004ddull, 255084ull, 137797ull},
     }},
    {"Svarka Calculator", 0x3366c1f1be29f845ull,
     {
      {-1, 0, 0x0000000000006326ull, 189242ull, 46013ull},
      {-1, 0, 0x0000000000006326ull, 166182ull, 47876ull},
      {-1, 0, 0x0000000000006326ull, 248460ull, 72587ull},
      {-1, 0, 0x0000000000006326ull, 186318ull, 62213ull},
      {-1, 0, 0x0000000000006326ull, 361935ull, 73430ull},
      {-1, 0, 0x0000000000006326ull, 344846ull, 75051ull},
      {5, 0, 0x0000000000006632ull, 159080ull, 51832ull},
      {-1, 0, 0x0000000000006326ull, 203245ull, 63753ull},
      {-1, 0, 0x0000000000006326ull, 186318ull, 62213ull},
      {-1, 0, 0x0000000000006326ull, 202956ull, 66005ull},
      {-1, 0, 0x0000000000006326ull, 351188ull, 72059ull},
      {-1, 0, 0x0000000000006326ull, 326072ull, 61967ull},
      {-1, 0, 0x0000000000006326ull, 185644ull, 61552ull},
      {3, 2, 0x0000000000000000ull, 1287ull, 510ull},
      {-1, 0, 0x0000000000006326ull, 177933ull, 53841ull},
      {-1, 0, 0x0000000000006326ull, 164620ull, 45669ull},
      {-1, 0, 0x0000000000006326ull, 156449ull, 46402ull},
      {-1, 0, 0x0000000000006326ull, 384986ull, 61552ull},
     }},
    {"Reversi Android", 0x1c403fba1970b3cfull,
     {
      {-1, 0, 0x000000000000004dull, 43538ull, 14512ull},
      {-1, 0, 0x000000000000004dull, 37697ull, 16271ull},
      {-1, 0, 0x000000000000004dull, 181428ull, 46696ull},
      {-1, 0, 0x000000000000004dull, 39738ull, 18312ull},
      {-1, 0, 0x000000000000004dull, 183329ull, 47049ull},
      {-1, 0, 0x000000000000004dull, 179266ull, 46176ull},
      {-1, 0, 0x000000000000004dull, 29357ull, 15443ull},
      {-1, 0, 0x000000000000004dull, 39438ull, 18682ull},
      {-1, 0, 0x000000000000004dull, 40351ull, 19595ull},
      {-2, 0, 0x0000000000000000ull, 0ull, 0ull},
      {-2, 0, 0x0000000000000000ull, 0ull, 0ull},
      {-1, 0, 0x000000000000004dull, 171996ull, 43148ull},
      {-1, 0, 0x000000000000004dull, 39448ull, 18022ull},
      {-1, 0, 0x000000000000004dull, 34280ull, 16436ull},
      {-1, 0, 0x000000000000004dull, 38732ull, 17306ull},
      {-1, 0, 0x000000000000004dull, 51524ull, 16952ull},
      {-1, 0, 0x000000000000004dull, 32855ull, 15359ull},
      {-1, 0, 0x000000000000004dull, 63154ull, 18062ull},
     }},
    {"Poker Odds (Vitosha)", 0x7e994f15fbebbc4eull,
     {
      {-1, 0, 0x0000000000005a7eull, 271713ull, 99204ull},
      {-1, 0, 0x0000000000005a7eull, 244737ull, 116346ull},
      {-1, 0, 0x0000000000005a7eull, 457940ull, 151648ull},
      {-1, 0, 0x0000000000005a7eull, 262488ull, 137058ull},
      {-1, 0, 0x0000000000005a7eull, 418918ull, 163202ull},
      {-1, 0, 0x0000000000005a7eull, 451215ull, 148958ull},
      {5, 0, 0x00000000001b6ef6ull, 656595ull, 287287ull},
      {-1, 0, 0x0000000000005a7eull, 264104ull, 137058ull},
      {-1, 0, 0x0000000000005a7eull, 262488ull, 137058ull},
      {-1, 0, 0x0000000000005a7eull, 349947ull, 141920ull},
      {-2, 0, 0x0000000000000000ull, 0ull, 0ull},
      {-1, 0, 0x0000000000005a7eull, 332538ull, 136301ull},
      {-2, 0, 0x0000000000000000ull, 0ull, 0ull},
      {3, 2, 0x0000000000000000ull, 192ull, 81ull},
      {-1, 0, 0x0000000000005a7eull, 244212ull, 116878ull},
      {-1, 0, 0x0000000000005a7eull, 341576ull, 120114ull},
      {-1, 0, 0x0000000000005a7eull, 223183ull, 122798ull},
      {-1, 0, 0x0000000000005a7eull, 504574ull, 120106ull},
     }},
  };

  core::PipelineConfig Config;
  const std::vector<RegionFixture> &Regions = tableOneRegions();
  ASSERT_EQ(Regions.size(), Golden.size());
  const std::vector<search::Genome> Genomes = goldenGenomes();
  for (size_t A = 0; A != Regions.size(); ++A) {
    const RegionFixture &F = Regions[A];
    const GoldenApp &Row = Golden[A];
    ASSERT_EQ(F.App.Name, Row.App);

    core::AppInstance Profiled(F.App, /*Seed=*/1, /*AttributeCycles=*/true);
    for (int I = 0; I != 2; ++I)
      ASSERT_TRUE(Profiled.runSession(F.App.DefaultParam + I).ok());
    uint64_t Profile = profileHash(Profiled.runtime());

    core::RegionEvaluator Eval(F.App, F.Region, F.Captures, Config);
    vm::NativeRegistry Natives = vm::NativeRegistry::standardLibrary();
    replay::Replayer Rep(*F.App.File, Natives, F.App.RtConfig);
    std::vector<ReplayRow> Rows;
    vm::CodeCache Android;
    hgraph::compileAllAndroid(*F.App.File, F.Region.Methods, Android);
    Rows.push_back(replayRow(Rep, F, Android));
    for (const search::Genome &G : Genomes) {
      std::optional<vm::CodeCache> Code = Eval.compileRegion(G);
      Rows.push_back(Code ? replayRow(Rep, F, *Code)
                          : ReplayRow{-2, 0, 0, 0, 0});
    }

    EXPECT_EQ(Profile, Row.ProfileHash)
        << Row.App << " profile: 0x" << std::hex << Profile;
    EXPECT_EQ(rowsText(Rows), rowsText(Row.Rows)) << Row.App;
  }
}
