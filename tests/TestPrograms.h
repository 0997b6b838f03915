//===- tests/TestPrograms.h - Shared bytecode fixtures -----------*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small bytecode programs reused by the hgraph/lir/replay test suites,
/// plus a VM harness for differential interpreter-vs-compiled testing.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_TESTS_TEST_PROGRAMS_H
#define ROPT_TESTS_TEST_PROGRAMS_H

#include "dex/Builder.h"
#include "vm/Runtime.h"
#include "workloads/Workloads.h"

#include <memory>
#include <string>
#include <vector>

namespace ropt {
namespace testprogs {

/// sumTo(n) = 0 + 1 + ... + (n-1).
inline dex::MethodId defineSumTo(dex::DexBuilder &B) {
  using namespace dex;
  MethodId M = B.declareFunction(InvalidId, "sumTo", 1, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx Sum = F.newReg(), I = F.newReg(), One = F.immI(1);
  F.constI(Sum, 0);
  F.constI(I, 0);
  auto Head = F.newLabel(), Exit = F.newLabel();
  F.bind(Head);
  F.ifGe(I, F.param(0), Exit);
  F.addI(Sum, Sum, I);
  F.addI(I, I, One);
  F.jump(Head);
  F.bind(Exit);
  F.ret(Sum);
  B.endBody(F);
  return M;
}

/// dotProduct(n): builds two n-element double arrays and dots them.
inline dex::MethodId defineDotProduct(dex::DexBuilder &B) {
  using namespace dex;
  MethodId M = B.declareFunction(InvalidId, "dot", 1, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx N = F.param(0);
  RegIdx A = F.newReg(), C = F.newReg(), I = F.newReg(), One = F.immI(1);
  F.newArray(A, N, Type::F64);
  F.newArray(C, N, Type::F64);
  F.constI(I, 0);
  auto FillHead = F.newLabel(), FillDone = F.newLabel();
  F.bind(FillHead);
  F.ifGe(I, N, FillDone);
  RegIdx X = F.newReg();
  F.i2f(X, I);
  F.astore(A, I, X, Type::F64);
  RegIdx Y = F.newReg(), Two = F.immF(2.0);
  F.mulF(Y, X, Two);
  F.astore(C, I, Y, Type::F64);
  F.addI(I, I, One);
  F.jump(FillHead);
  F.bind(FillDone);
  RegIdx Acc = F.newReg();
  F.constF(Acc, 0.0);
  F.constI(I, 0);
  auto DotHead = F.newLabel(), DotDone = F.newLabel();
  F.bind(DotHead);
  F.ifGe(I, N, DotDone);
  RegIdx Va = F.newReg(), Vc = F.newReg(), P = F.newReg();
  F.aload(Va, A, I, Type::F64);
  F.aload(Vc, C, I, Type::F64);
  F.mulF(P, Va, Vc);
  F.addF(Acc, Acc, P);
  F.addI(I, I, One);
  F.jump(DotHead);
  F.bind(DotDone);
  F.ret(Acc);
  B.endBody(F);
  return M;
}

/// Polymorphic shapes: makes a Square or Circle by parity and calls the
/// virtual area(), looping `n` times and summing.
inline dex::MethodId definePolyShapes(dex::DexBuilder &B) {
  using namespace dex;
  ClassId Shape = B.addClass("Shape");
  ClassId Square = B.addClass("Square", Shape);
  ClassId Circle = B.addClass("Circle", Shape);
  FieldId Size = B.addField(Shape, "size", Type::I64);
  MethodId Area = B.declareVirtual(Shape, "area", 1, true);
  MethodId SquareArea = B.declareVirtual(Square, "area", 1, true);
  MethodId CircleArea = B.declareVirtual(Circle, "area", 1, true);
  {
    FunctionBuilder F = B.beginBody(Area);
    RegIdx Z = F.immI(0);
    F.ret(Z);
    B.endBody(F);
  }
  {
    FunctionBuilder F = B.beginBody(SquareArea);
    RegIdx S = F.newReg();
    F.getField(S, F.param(0), Size);
    F.mulI(S, S, S);
    F.ret(S);
    B.endBody(F);
  }
  {
    FunctionBuilder F = B.beginBody(CircleArea);
    RegIdx S = F.newReg(), Three = F.immI(3);
    F.getField(S, F.param(0), Size);
    F.mulI(S, S, S);
    F.mulI(S, S, Three);
    F.ret(S);
    B.endBody(F);
  }
  MethodId M = B.declareFunction(InvalidId, "polyLoop", 1, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx N = F.param(0);
  RegIdx I = F.newReg(), Sum = F.newReg(), One = F.immI(1),
         Two = F.immI(2);
  F.constI(I, 0);
  F.constI(Sum, 0);
  auto Head = F.newLabel(), Done = F.newLabel(), MakeCircle = F.newLabel(),
       Call = F.newLabel();
  F.bind(Head);
  F.ifGe(I, N, Done);
  RegIdx Par = F.newReg(), Obj = F.newReg();
  F.remI(Par, I, Two);
  F.ifNez(Par, MakeCircle);
  F.newInstance(Obj, Square);
  F.jump(Call);
  F.bind(MakeCircle);
  F.newInstance(Obj, Circle);
  F.bind(Call);
  F.putField(Obj, Size, I);
  RegIdx Ar = F.newReg();
  F.invokeVirtual(Ar, Area, {Obj});
  F.addI(Sum, Sum, Ar);
  F.addI(I, I, One);
  F.jump(Head);
  F.bind(Done);
  F.ret(Sum);
  B.endBody(F);
  return M;
}

/// mathMix(x): exercises math natives sin/cos/pow.
inline dex::MethodId defineMathMix(dex::DexBuilder &B) {
  using namespace dex;
  NativeId Sin = B.addNative("sin", 1, true, false, false, "sin");
  NativeId Cos = B.addNative("cos", 1, true, false, false, "cos");
  NativeId Pow = B.addNative("pow", 2, true, false, false, "pow");
  MethodId M = B.declareFunction(InvalidId, "mathMix", 1, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx S = F.newReg(), C = F.newReg(), P = F.newReg(), R = F.newReg();
  F.invokeNative(S, Sin, {F.param(0)});
  F.invokeNative(C, Cos, {F.param(0)});
  F.invokeNative(P, Pow, {S, C});
  F.addF(R, S, C);
  F.addF(R, R, P);
  F.ret(R);
  B.endBody(F);
  return M;
}

/// Nested loops over an i64 matrix (flattened) — bounds checks and
/// loop-invariant address math to optimize.
inline dex::MethodId defineMatrixSum(dex::DexBuilder &B) {
  using namespace dex;
  MethodId M = B.declareFunction(InvalidId, "matSum", 1, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx N = F.param(0);
  RegIdx Size = F.newReg(), Arr = F.newReg(), I = F.newReg(),
         J = F.newReg(), One = F.immI(1);
  F.mulI(Size, N, N);
  F.newArray(Arr, Size, Type::I64);
  F.constI(I, 0);
  auto IHead = F.newLabel(), IDone = F.newLabel();
  F.bind(IHead);
  F.ifGe(I, N, IDone);
  F.constI(J, 0);
  auto JHead = F.newLabel(), JDone = F.newLabel();
  F.bind(JHead);
  F.ifGe(J, N, JDone);
  RegIdx Idx = F.newReg(), V = F.newReg();
  F.mulI(Idx, I, N);
  F.addI(Idx, Idx, J);
  F.addI(V, I, J);
  F.astore(Arr, Idx, V, Type::I64);
  F.addI(J, J, One);
  F.jump(JHead);
  F.bind(JDone);
  F.addI(I, I, One);
  F.jump(IHead);
  F.bind(IDone);
  // Sum it back.
  RegIdx Sum = F.newReg(), K = F.newReg();
  F.constI(Sum, 0);
  F.constI(K, 0);
  auto KHead = F.newLabel(), KDone = F.newLabel();
  F.bind(KHead);
  F.ifGe(K, Size, KDone);
  RegIdx E = F.newReg();
  F.aload(E, Arr, K, Type::I64);
  F.addI(Sum, Sum, E);
  F.addI(K, K, One);
  F.jump(KHead);
  F.bind(KDone);
  F.ret(Sum);
  B.endBody(F);
  return M;
}

/// What a fixture application's init() does before it returns.
enum class FixtureInit {
  Plain,         ///< Stores a constant in the static `state`.
  DividesByZero, ///< Traps: divides its argument by zero.
  DrawsRandom,   ///< Stores randomInt(1000), an environment read.
  DividesByDraw, ///< Divides its argument by randomInt(2): traps at the
                 ///< seeds that draw 0.
  AllocatesCold, ///< Stores a constant, and allocates the 16-page i64 array
                 ///< `cold` it never writes. A session then writes one
                 ///< word on each of its pages and allocates a 3-page
                 ///< array it drops.
};

/// A one-class application: init() sets the static `state` as \p Init
/// says, plus countUp(100 * param), and a session returns `state` +
/// sumTo(param) + countUp(param). countUp is a bottom-tested loop: its
/// back edge, taken on every iteration but the last, leaves the branch
/// predictor in a state a reset predictor is not in, so a compiled init()
/// leaves predictor state behind.
inline workloads::Application fixtureApp(FixtureInit Init) {
  using namespace dex;
  DexBuilder B;
  ClassId Main = B.addClass("Main");
  StaticFieldId State = B.addStaticField(Main, "state", Type::I64);
  const bool Cold = Init == FixtureInit::AllocatesCold;
  StaticFieldId ColdArray =
      Cold ? B.addStaticField(Main, "cold", Type::Ref) : StaticFieldId();
  NativeId Random =
      B.addNative("randomInt", 1, true, false, /*NonDeterministic=*/true);
  MethodId SumTo = defineSumTo(B);

  MethodId CountUp = B.declareFunction(Main, "countUp", 1, true);
  FunctionBuilder FC = B.beginBody(CountUp);
  RegIdx I = FC.newReg(), One = FC.immI(1);
  FC.constI(I, 0);
  auto Loop = FC.newLabel();
  FC.bind(Loop);
  FC.addI(I, I, One);
  FC.ifLt(I, FC.param(0), Loop);
  FC.ret(I);
  B.endBody(FC);

  MethodId InitM = B.declareFunction(Main, "init", 1, true);
  FunctionBuilder FI = B.beginBody(InitM);
  RegIdx V = FI.newReg(), K = FI.newReg();
  switch (Init) {
  case FixtureInit::Plain:
    FI.constI(V, 17);
    break;
  case FixtureInit::DividesByZero:
    FI.constI(K, 0);
    FI.divI(V, FI.param(0), K);
    break;
  case FixtureInit::DrawsRandom:
    FI.constI(K, 1000);
    FI.invokeNative(V, Random, {K});
    break;
  case FixtureInit::DividesByDraw:
    FI.constI(K, 2);
    FI.invokeNative(K, Random, {K});
    FI.divI(V, FI.param(0), K);
    break;
  case FixtureInit::AllocatesCold:
    FI.constI(K, 16 * 512);
    FI.newArray(K, K, Type::I64);
    FI.putStatic(ColdArray, K);
    FI.constI(V, 17);
    break;
  }
  RegIdx Hundred = FI.immI(100), N = FI.newReg(), W = FI.newReg();
  FI.mulI(N, FI.param(0), Hundred);
  FI.invokeStatic(W, CountUp, {N});
  FI.addI(V, V, W);
  FI.putStatic(State, V);
  FI.ret(V);
  B.endBody(FI);

  MethodId Session = B.declareFunction(Main, "session", 1, true);
  FunctionBuilder FS = B.beginBody(Session);
  RegIdx S = FS.newReg(), R = FS.newReg();
  FS.getStatic(S, State);
  FS.invokeStatic(R, SumTo, {FS.param(0)});
  FS.addI(R, R, S);
  FS.invokeStatic(S, CountUp, {FS.param(0)});
  FS.addI(R, R, S);
  if (Cold) {
    RegIdx Arr = FS.newReg(), Len = FS.newReg(), I = FS.newReg(),
           PageWords = FS.immI(512), Dropped = FS.newReg();
    FS.getStatic(Arr, ColdArray);
    FS.arrayLen(Len, Arr);
    FS.constI(I, 0);
    auto Head = FS.newLabel(), Done = FS.newLabel();
    FS.bind(Head);
    FS.ifGe(I, Len, Done);
    FS.astore(Arr, I, FS.param(0), Type::I64);
    FS.addI(I, I, PageWords);
    FS.jump(Head);
    FS.bind(Done);
    FS.constI(I, 3 * 512);
    FS.newArray(Dropped, I, Type::I64);
  }
  FS.ret(R);
  B.endBody(FS);

  workloads::Application App;
  App.Name = "Fixture";
  App.Kind = workloads::Suite::Art;
  App.File = std::make_shared<DexFile>(B.build());
  App.InitEntry = InitM;
  App.SessionEntry = Session;
  App.InitParam = 5;
  App.DefaultParam = 4000;
  App.MinParam = 3000;
  App.MaxParam = 5000;
  return App;
}

/// A harness holding the file and a booted runtime.
struct Harness {
  dex::DexFile File;
  os::AddressSpace Space;
  vm::NativeRegistry Natives;
  std::unique_ptr<vm::Runtime> RT;

  explicit Harness(dex::DexFile F,
                   vm::RuntimeConfig Config = vm::RuntimeConfig())
      : File(std::move(F)),
        Natives(vm::NativeRegistry::standardLibrary()) {
    vm::Runtime::mapStandardLayout(Space, File, Config);
    RT = std::make_unique<vm::Runtime>(Space, File, Natives, Config);
  }

  vm::CallResult run(const std::string &Name,
                     std::vector<vm::Value> Args = {}) {
    return RT->call(File.findMethod(Name), Args);
  }
};

} // namespace testprogs
} // namespace ropt

#endif // ROPT_TESTS_TEST_PROGRAMS_H
