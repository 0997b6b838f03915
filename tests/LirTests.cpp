//===- tests/LirTests.cpp - lir/ unit and differential tests -----------------===//

#include "core/IterativeCompiler.h"
#include "hgraph/Build.h"
#include "lir/Analysis.h"
#include "lir/Backend.h"
#include "lir/Codegen.h"
#include "lir/CompileMemo.h"
#include "lir/FromHGraph.h"
#include "lir/Passes.h"
#include "search/Genome.h"
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

  EXPECT_TRUE(gvn(Fn));
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
  EXPECT_TRUE(applyPass(Fn, mk(PassId::JniIntrinsics), Ctx));
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
  EXPECT_TRUE(gcElide(Fn, /*StripLoops=*/false));
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

  EXPECT_TRUE(licm(Fn, /*SpeculateDiv=*/false));
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
  EXPECT_TRUE(loopRotate(Fn));
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

  EXPECT_TRUE(inlineCalls(Fn, File, /*Threshold=*/50));
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

  EXPECT_TRUE(inlineCalls(Fn, File, 50));
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
  gvn(Fn);
  dce(Fn, false);
  size_t Before = countLOps(Fn, MOpcode::MCheckBounds);
  ASSERT_GT(Before, 0u);
  EXPECT_TRUE(boundsCheckElim(Fn, /*Aggressive=*/false));
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
  boundsCheckElim(Fn, /*Aggressive=*/false);
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
  boundsCheckElim(Fn, /*Aggressive=*/false);
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
  core::CapturedRegion Captured;
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
      std::optional<core::CapturedRegion> C =
          Pipeline.captureRegion(*P.Instance, *P.Region);
      EXPECT_TRUE(C.has_value()) << App.Name;
      if (!C)
        continue;
      Out.push_back(RegionFixture{std::move(App), *P.Region, std::move(*C)});
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
                              Out.Code, &F.Captured.Profile);
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
    if (!Other || !sameMachineFunction(*KV.second, *Other))
      return false;
  }
  return true;
}

std::unique_ptr<CompileMemo> memoFor(const RegionFixture &F) {
  return std::make_unique<CompileMemo>(*F.App.File, F.Captured.Profile,
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

// --- Golden binary hashes ------------------------------------------------------
//
// RegionEvaluator::compileGenome(G).BinaryHash for o3 plus ten seeded
// genomes per Table-1 app, pinned when the compile memo landed. Any pass,
// codegen or register-allocation edit that changes emitted code changes a
// hash here; such an edit must update this table on purpose.

TEST(GoldenBinaryHash, MatchesPinnedValues) {
  struct GoldenRow {
    const char *App;
    std::vector<uint64_t> Hashes; ///< o3, then genomes 0..9; 0 = failed.
  };
  const std::vector<GoldenRow> Golden = {
    {"FFT",
     {0xd4d846918cdc6216ull, 0x2a908166190c2879ull, 0x7cd88732f0286b3cull,
      0x9efc9b7cc859f285ull, 0xd14c9684fec81c00ull, 0x8a43d6560cc2835eull,
      0x4996a0624e438ffdull, 0x63d9cd60174828f6ull, 0x2a0a278f7d667cb1ull,
      0x0000000000000000ull, 0x71fbd7c5411cc153ull}},
    {"SOR",
     {0xe035b4fa433a919cull, 0x801eef2194fbaf29ull, 0x6a59015035247250ull,
      0xa11c9cb828664cb6ull, 0x6e176a7d77cde8a8ull, 0x5d372f5e3bc6052dull,
      0x8576046e0a92c4d4ull, 0xa7d80b231d3b6746ull, 0xc980326ad0d2bfdaull,
      0x0000000000000000ull, 0xc6a9ec2e1aa1863dull}},
    {"MonteCarlo",
     {0x3a64da4e4d0a0063ull, 0x089b26ca00546527ull, 0x9500024e8e53d909ull,
      0x7a729ed339f29586ull, 0x089b26ca00546527ull, 0xbf2f1cde262d2197ull,
      0x154c2dd5ce259afcull, 0x9500024e8e53d909ull, 0xa7d90da5be08aa88ull,
      0x089b26ca00546527ull, 0x7ffa4438c50fffe3ull}},
    {"Sparse matmult",
     {0xbba95c6b8e8661dcull, 0xc6df6211be142a7full, 0x233f2d86da9641f2ull,
      0x9c6ca92863b9e6f5ull, 0x4a224af4221435c6ull, 0xfd070493f8c1fc8bull,
      0x0eb6b1679236c0dbull, 0x233f2d86da9641f2ull, 0xeb7f7fcfa2435024ull,
      0x0000000000000000ull, 0xd98b62211812733eull}},
    {"LU",
     {0xb1590e40bac522c6ull, 0x093ea7163f4de83bull, 0xe20d59c8c2cb5421ull,
      0x5c5181a261f247d1ull, 0x8c39d2082886706eull, 0x0000000000000000ull,
      0x53018ee0d4bb66e7ull, 0xe20d59c8c2cb5421ull, 0xf895132409041dc9ull,
      0x093ea7163f4de83bull, 0x0f723b412f5bf372ull}},
    {"Sieve",
     {0xf2ff0174cae8631dull, 0x9c7d416228d2068eull, 0x5e49744330a02973ull,
      0xed2ec69ccf160cbdull, 0xf44812e1213b85eaull, 0x269a6849dda2f9a9ull,
      0xfd880285f0e75415ull, 0xbab2a870dd268007ull, 0xe244ca9129ce4befull,
      0xe75622c70a2439adull, 0x20b69548425e7d43ull}},
    {"BubbleSort",
     {0xe786f0a0596a9b6bull, 0x769cbc7199d18709ull, 0x8d957ecc3a94fb5dull,
      0xe9458598ac43f06full, 0x89676f45631b4ea7ull, 0x37ed2bfeb5c9c866ull,
      0x3200492a39d351f6ull, 0x8a91bef0953e8cbdull, 0x1fabb9b90af49636ull,
      0x0000000000000000ull, 0x2e7a8f2cd12e4d23ull}},
    {"SelectionSort",
     {0x74a31b1b96ef72a7ull, 0x343ded9f5c8f3ef4ull, 0xbdebf36274f9ee8aull,
      0x92b2ee059fd96511ull, 0xfb170820902395aaull, 0xe54cad7db5adb384ull,
      0xc180896f3daf506dull, 0x1d557564ae0b5ec8ull, 0xe62f8d7a4339c311ull,
      0xcac11b6aa5469c51ull, 0xc1227255bc608eedull}},
    {"Linpack",
     {0xeb5f79b0580e5adfull, 0x3dae4622867284e2ull, 0xa92af86a6e0ff66dull,
      0x3c77a9096747001full, 0x16e5f5cea3306d69ull, 0x0000000000000000ull,
      0xc093435a12821ff8ull, 0x0f3cd818c113afd1ull, 0xd11c56d174cb3adeull,
      0x9ab21ae011b8a3a6ull, 0x5242c9b0a45d5a82ull}},
    {"Fibonacci.iter",
     {0xd514616dd7caf28cull, 0x16467cca6eb4dfd0ull, 0x0b620dba33c9722eull,
      0x5fcd2d8a62efb6a4ull, 0x16467cca6eb4dfd0ull, 0x78a228311e39644bull,
      0xb619cbe29e625118ull, 0x715874aec69581edull, 0x9336bc59faec7c13ull,
      0x5fcd2d8a62efb6a4ull, 0x4484aa43f9d5a1d7ull}},
    {"Fibonacci.recv",
     {0xabd32c5200551790ull, 0xcf55ec024099cf7eull, 0xfdee02bd85631a37ull,
      0x569863f67573aba9ull, 0x8f54a94baceee230ull, 0x6f1eb64d2a09ffbbull,
      0xfdee02bd85631a37ull, 0xfd0498dca0c07a7bull, 0x0000000000000000ull,
      0x91df4999e43cdabaull, 0x96372531a2b7e2e8ull}},
    {"Dhrystone",
     {0xdbf646482c3e2143ull, 0xa26b05522b20cdabull, 0xbe6161ef58d1eeccull,
      0x733d972265b238c6ull, 0x1f3af1d91a98d2dfull, 0xfdad29bba95ee4ddull,
      0x40220deb6770c08dull, 0x5e6fdf1154fe9a0aull, 0xd545d1e958e71fb8ull,
      0xc463c317feb925c9ull, 0x0fc36f974579662dull}},
    {"MaterialLife",
     {0x1fc734dc1144ed71ull, 0xf7701f880f780471ull, 0x478017e1d2a0b2e6ull,
      0x4dee173778e040c0ull, 0x46f77de7754ab355ull, 0xb88220e418dc6f38ull,
      0xf438a8f30e4fc4adull, 0xf94ef8f1fa0227dfull, 0x0110d6b8b8d541b2ull,
      0x0000000000000000ull, 0x27b4e9c73f63686bull}},
    {"4inaRow",
     {0xdaab5b2c648e1f01ull, 0xfb15c125ed27f566ull, 0x928dc4659b0f2df8ull,
      0x353a6eee0826cfabull, 0x6e4eb1df3ab623edull, 0xb0ba0bd332ce7a69ull,
      0x1d6e349985ff3c49ull, 0x358d5a2cc56c38cfull, 0xa036c52dc249b593ull,
      0x0000000000000000ull, 0x67f0d6c25330d4edull}},
    {"DroidFish",
     {0x033922d0da63e2ffull, 0x83ca94bc7c670ec1ull, 0x0bec94052617e41cull,
      0x2d99f47d5ffc1539ull, 0x4881f97746d6f6b6ull, 0xe97d1646b7bb6990ull,
      0x80b7b9e688c7006aull, 0xce909c89df0262deull, 0xf4249d7b47c0571full,
      0x0000000000000000ull, 0xd847414a93102709ull}},
    {"ColorOverflow",
     {0x39ff1c81f2b71354ull, 0x4ac30216692a5f71ull, 0xe0393e963673b837ull,
      0xe2d96fab3e2e89d4ull, 0xf6cc7c416bfccc80ull, 0xec8ba333be3e9110ull,
      0x8e9b1aa0d349cf9cull, 0xa66ffd1535bd39b6ull, 0x433a91c251001b59ull,
      0x0000000000000000ull, 0xe764d109b7d8e25bull}},
    {"Brainstonz",
     {0x5e252cb86e760e5cull, 0x447a46a67eba0033ull, 0xf6d0569efadfbab5ull,
      0xcbff06530e9d241eull, 0x8ee947c73e7ad7e2ull, 0x205e84085d80a93bull,
      0x7427c1e6dba26944ull, 0xd03d1054087cb930ull, 0x8b0e93544ffbcdf6ull,
      0xfe43ba246dff366eull, 0x05eea186b4823222ull}},
    {"Blokish",
     {0x4ab2168561109187ull, 0xae369100bfefb996ull, 0x45e66b767eae3bb3ull,
      0x5abb8497f1a96d14ull, 0xae369100bfefb996ull, 0xd27a0c8f4950abcfull,
      0x8a1d9d938a0926beull, 0xa570bcecbe7c41e4ull, 0x36f761ffb034d648ull,
      0x0000000000000000ull, 0x7c9bac01a03f9016ull}},
    {"Svarka Calculator",
     {0x77115da2e80beef7ull, 0x5a78aac780142575ull, 0xae0704ab04eaa627ull,
      0x929490e7e3729225ull, 0x844d560d5cfa9599ull, 0x0ea95924f276c06full,
      0x24447e53443deb72ull, 0xae0704ab04eaa627ull, 0x09083c80bd56cc58ull,
      0x16d0671b0121f689ull, 0xdec9810dfe517d0cull}},
    {"Reversi Android",
     {0xc1eb1451a6cf0047ull, 0x63400f829642fc44ull, 0x93e026464cb94807ull,
      0x106aeb81db3dbef0ull, 0x12dc1d4fd5c716dbull, 0x1963682d1fc6f670ull,
      0xc8c2937a076ebdddull, 0x73a4fee7e16bf963ull, 0x0000000000000000ull,
      0x0000000000000000ull, 0xd52414f6a98bdf4bull}},
    {"Poker Odds (Vitosha)",
     {0x5602087154a15b30ull, 0x8b46cc44cdafcc87ull, 0x95bcf4a5113cbf68ull,
      0xfd136f51eb568430ull, 0x14e9e741f4bfd063ull, 0xcc5cf021cc24bd0bull,
      0x0ecb794169a7f8d6ull, 0x95bcf4a5113cbf68ull, 0x5ee4870bf0fada78ull,
      0x0000000000000000ull, 0xfaf880e87743ac7eull}},
  };

  core::PipelineConfig Config;
  const std::vector<RegionFixture> &Regions = tableOneRegions();
  ASSERT_EQ(Regions.size(), Golden.size());
  for (size_t A = 0; A != Regions.size(); ++A) {
    const RegionFixture &F = Regions[A];
    const GoldenRow &Row = Golden[A];
    ASSERT_EQ(F.App.Name, Row.App);
    core::RegionEvaluator Eval(F.App, F.Region, F.Captured.Cap,
                               F.Captured.Map, F.Captured.Profile, Config);
    std::vector<search::Genome> Genomes(1);
    Genomes[0].Passes = o3Pipeline();
    for (int I = 0; I != 10; ++I) {
      Rng R(static_cast<uint64_t>(I) * 7919 + 101);
      Genomes.push_back(search::randomGenome(R, search::GenomeConfig()));
    }
    ASSERT_EQ(Row.Hashes.size(), Genomes.size());
    for (size_t N = 0; N != Genomes.size(); ++N)
      EXPECT_EQ(Eval.compileGenome(Genomes[N]).BinaryHash, Row.Hashes[N])
          << Row.App << " genome " << N << ": " << Genomes[N].name();
  }
}
