//===- tests/VmTests.cpp - vm/ unit tests ------------------------------------===//

#include "dex/Builder.h"
#include "hgraph/AndroidCompiler.h"
#include "vm/Heap.h"
#include "vm/Runtime.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <latch>
#include <limits>
#include <memory>
#include <thread>
#include <utility>

using namespace ropt;
using namespace ropt::dex;
using namespace ropt::vm;

namespace {

/// A dex file plus a booted runtime over a fresh simulated process.
struct VmEnv {
  DexFile File;
  os::AddressSpace Space;
  NativeRegistry Natives;
  std::unique_ptr<Runtime> RT;

  explicit VmEnv(DexFile F, RuntimeConfig Config = RuntimeConfig())
      : File(std::move(F)), Natives(NativeRegistry::standardLibrary()) {
    Runtime::mapStandardLayout(Space, File, Config);
    RT = std::make_unique<Runtime>(Space, File, Natives, Config);
  }

  CallResult run(const std::string &Name,
                 std::vector<Value> Args = {}) {
    MethodId Id = File.findMethod(Name);
    EXPECT_NE(Id, InvalidId) << Name;
    return RT->call(Id, Args);
  }
};

/// sumTo(n): straightforward counting loop.
void defineSumTo(DexBuilder &B) {
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
}

} // namespace

// --- Heap --------------------------------------------------------------------

TEST(Heap, AllocateAndHeader) {
  os::AddressSpace Space;
  Space.mapRegion(Layout::HeapBase, 1 << 20, os::ProtRead | os::ProtWrite,
                  os::MappingKind::Heap, "heap");
  Heap H(Space, 1 << 20, 1 << 19);
  H.initialize();

  TrapKind Trap = TrapKind::None;
  uint64_t Obj = H.allocate(ObjKind::Object, 7, 3, Trap);
  ASSERT_NE(Obj, 0u);
  EXPECT_EQ(Trap, TrapKind::None);

  ObjectHeader Header;
  ASSERT_TRUE(H.readHeader(Obj, Header));
  EXPECT_EQ(Header.ClassOrElem, 7u);
  EXPECT_EQ(Header.Kind, uint8_t(ObjKind::Object));
  EXPECT_EQ(Header.Count, 3u);
  EXPECT_GT(H.bytesAllocated(), 0u);
}

TEST(Heap, AllocationsAreDisjointAndAligned) {
  os::AddressSpace Space;
  Space.mapRegion(Layout::HeapBase, 1 << 20, os::ProtRead | os::ProtWrite,
                  os::MappingKind::Heap, "heap");
  Heap H(Space, 1 << 20, 1 << 19);
  H.initialize();

  TrapKind Trap = TrapKind::None;
  uint64_t A = H.allocate(ObjKind::ArrayI, 0, 5, Trap);
  uint64_t B = H.allocate(ObjKind::ArrayI, 0, 5, Trap);
  EXPECT_EQ(A % 16, 0u);
  EXPECT_EQ(B % 16, 0u);
  // 5 elements -> 16 header + 40 payload -> 56, padded to 64.
  EXPECT_GE(B - A, 56u);
}

TEST(Heap, OutOfMemoryTraps) {
  os::AddressSpace Space;
  Space.mapRegion(Layout::HeapBase, 64 * 1024,
                  os::ProtRead | os::ProtWrite, os::MappingKind::Heap,
                  "heap");
  Heap H(Space, 64 * 1024, 32 * 1024);
  H.initialize();

  TrapKind Trap = TrapKind::None;
  EXPECT_EQ(H.allocate(ObjKind::ArrayI, 0, 100000, Trap), 0u);
  EXPECT_EQ(Trap, TrapKind::OutOfMemory);
}

TEST(Heap, SafepointTriggersGcAfterThreshold) {
  os::AddressSpace Space;
  Space.mapRegion(Layout::HeapBase, 1 << 20, os::ProtRead | os::ProtWrite,
                  os::MappingKind::Heap, "heap");
  Heap H(Space, 1 << 20, /*GcThreshold=*/4096);
  H.initialize();

  EXPECT_EQ(H.pollSafepoint(1000), 0u);
  TrapKind Trap = TrapKind::None;
  H.allocate(ObjKind::ArrayI, 0, 1000, Trap); // ~8KB > threshold
  EXPECT_TRUE(H.gcImminent());
  EXPECT_EQ(H.pollSafepoint(1000), 1000u);
  EXPECT_EQ(H.gcRuns(), 1u);
  EXPECT_FALSE(H.gcImminent());
  EXPECT_EQ(H.pollSafepoint(1000), 0u);
}

TEST(Heap, StateLivesInMemory) {
  os::AddressSpace Space;
  Space.mapRegion(Layout::HeapBase, 1 << 20, os::ProtRead | os::ProtWrite,
                  os::MappingKind::Heap, "heap");
  Heap A(Space, 1 << 20, 1 << 19);
  A.initialize();
  TrapKind Trap = TrapKind::None;
  A.allocate(ObjKind::Object, 1, 4, Trap);

  // A second view over the same space sees the same allocator state.
  Heap B(Space, 1 << 20, 1 << 19);
  EXPECT_EQ(B.bytesAllocated(), A.bytesAllocated());
}

// --- Interpreter: arithmetic and control flow ---------------------------------

TEST(Interpreter, ArithmeticBasics) {
  DexBuilder B;
  MethodId M = B.declareFunction(InvalidId, "calc", 2, true);
  FunctionBuilder F = B.beginBody(M);
  // ((a + b) * 3 - a) ^ 5
  RegIdx T = F.newReg(), Three = F.immI(3), Five = F.immI(5);
  F.addI(T, F.param(0), F.param(1));
  F.mulI(T, T, Three);
  F.subI(T, T, F.param(0));
  F.xorI(T, T, Five);
  F.ret(T);
  B.endBody(F);
  VmEnv Env(B.build());

  CallResult R =
      Env.run("calc", {Value::fromI64(10), Value::fromI64(4)});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Ret.asI64(), ((10 + 4) * 3 - 10) ^ 5);
}

TEST(Interpreter, LoopSum) {
  DexBuilder B;
  defineSumTo(B);
  VmEnv Env(B.build());
  CallResult R = Env.run("sumTo", {Value::fromI64(100)});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Ret.asI64(), 4950);
  EXPECT_GT(R.Cycles, 0u);
  EXPECT_GT(R.Insns, 300u);
}

TEST(Interpreter, FloatingPoint) {
  DexBuilder B;
  MethodId M = B.declareFunction(InvalidId, "fp", 1, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx X = F.newReg(), Y = F.newReg();
  F.i2f(X, F.param(0));
  RegIdx Half = F.immF(0.5);
  F.mulF(Y, X, Half);
  F.sqrtF(Y, Y);
  F.ret(Y);
  B.endBody(F);
  VmEnv Env(B.build());

  CallResult R = Env.run("fp", {Value::fromI64(8)});
  ASSERT_TRUE(R.ok());
  EXPECT_DOUBLE_EQ(R.Ret.asF64(), 2.0);
}

TEST(Interpreter, CmpFOrdering) {
  DexBuilder B;
  MethodId M = B.declareFunction(InvalidId, "cmp", 2, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx R = F.newReg();
  F.cmpF(R, F.param(0), F.param(1));
  F.ret(R);
  B.endBody(F);
  VmEnv Env(B.build());

  EXPECT_EQ(
      Env.run("cmp", {Value::fromF64(1.0), Value::fromF64(2.0)}).Ret.asI64(),
      -1);
  EXPECT_EQ(
      Env.run("cmp", {Value::fromF64(2.0), Value::fromF64(2.0)}).Ret.asI64(),
      0);
  EXPECT_EQ(
      Env.run("cmp", {Value::fromF64(3.0), Value::fromF64(2.0)}).Ret.asI64(),
      1);
  double NaN = std::nan("");
  EXPECT_EQ(
      Env.run("cmp", {Value::fromF64(NaN), Value::fromF64(2.0)}).Ret.asI64(),
      1);
}

TEST(Interpreter, Recursion) {
  DexBuilder B;
  MethodId Fib = B.declareFunction(InvalidId, "fib", 1, true);
  FunctionBuilder F = B.beginBody(Fib);
  auto BaseCase = F.newLabel();
  RegIdx Two = F.immI(2);
  F.ifLt(F.param(0), Two, BaseCase);
  RegIdx A = F.newReg(), Bv = F.newReg(), T = F.newReg(), One = F.immI(1);
  F.subI(T, F.param(0), One);
  F.invokeStatic(A, Fib, {T});
  F.subI(T, T, One);
  F.invokeStatic(Bv, Fib, {T});
  F.addI(A, A, Bv);
  F.ret(A);
  F.bind(BaseCase);
  F.ret(F.param(0));
  B.endBody(F);
  VmEnv Env(B.build());

  CallResult R = Env.run("fib", {Value::fromI64(15)});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Ret.asI64(), 610);
}

// --- Interpreter: heap objects ---------------------------------------------------

TEST(Interpreter, ArraysSumRoundTrip) {
  DexBuilder B;
  MethodId M = B.declareFunction(InvalidId, "arraySum", 1, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx Arr = F.newReg(), I = F.newReg(), Sum = F.newReg(),
         One = F.immI(1);
  F.newArray(Arr, F.param(0), Type::I64);
  F.constI(I, 0);
  // fill: arr[i] = i * i
  auto FillHead = F.newLabel(), FillDone = F.newLabel();
  F.bind(FillHead);
  F.ifGe(I, F.param(0), FillDone);
  RegIdx Sq = F.newReg();
  F.mulI(Sq, I, I);
  F.astore(Arr, I, Sq, Type::I64);
  F.addI(I, I, One);
  F.jump(FillHead);
  F.bind(FillDone);
  // sum
  F.constI(Sum, 0);
  F.constI(I, 0);
  auto SumHead = F.newLabel(), SumDone = F.newLabel();
  RegIdx Len = F.newReg();
  F.arrayLen(Len, Arr);
  F.bind(SumHead);
  F.ifGe(I, Len, SumDone);
  RegIdx V = F.newReg();
  F.aload(V, Arr, I, Type::I64);
  F.addI(Sum, Sum, V);
  F.addI(I, I, One);
  F.jump(SumHead);
  F.bind(SumDone);
  F.ret(Sum);
  B.endBody(F);
  VmEnv Env(B.build());

  CallResult R = Env.run("arraySum", {Value::fromI64(10)});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Ret.asI64(), 285); // sum of squares 0..9
}

TEST(Interpreter, ObjectFieldsAndVirtualDispatch) {
  DexBuilder B;
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
  MethodId Main = B.declareFunction(InvalidId, "main", 1, true);
  {
    FunctionBuilder F = B.beginBody(Main);
    RegIdx Obj = F.newReg(), R = F.newReg();
    auto UseCircle = F.newLabel(), Call = F.newLabel();
    F.ifNez(F.param(0), UseCircle);
    F.newInstance(Obj, Square);
    F.jump(Call);
    F.bind(UseCircle);
    F.newInstance(Obj, Circle);
    F.bind(Call);
    RegIdx Four = F.immI(4);
    F.putField(Obj, Size, Four);
    F.invokeVirtual(R, Area, {Obj});
    F.ret(R);
    B.endBody(F);
  }
  VmEnv Env(B.build());

  EXPECT_EQ(Env.run("main", {Value::fromI64(0)}).Ret.asI64(), 16);
  EXPECT_EQ(Env.run("main", {Value::fromI64(1)}).Ret.asI64(), 48);
}

TEST(Interpreter, StaticFields) {
  DexBuilder B;
  ClassId C = B.addClass("Counter");
  StaticFieldId Count = B.addStaticField(C, "count", Type::I64, 5);
  MethodId Bump = B.declareFunction(InvalidId, "bump", 0, true);
  FunctionBuilder F = B.beginBody(Bump);
  RegIdx V = F.newReg(), One = F.immI(1);
  F.getStatic(V, Count);
  F.addI(V, V, One);
  F.putStatic(Count, V);
  F.ret(V);
  B.endBody(F);
  VmEnv Env(B.build());

  EXPECT_EQ(Env.run("bump").Ret.asI64(), 6);
  EXPECT_EQ(Env.run("bump").Ret.asI64(), 7);
  EXPECT_EQ(Env.RT->readStatic(Count).asI64(), 7);
}

// --- Interpreter: natives -----------------------------------------------------

TEST(Interpreter, MathNative) {
  DexBuilder B;
  NativeId Sin = B.addNative("sin", 1, true);
  MethodId M = B.declareFunction(InvalidId, "sinOf", 1, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx R = F.newReg();
  F.invokeNative(R, Sin, {F.param(0)});
  F.ret(R);
  B.endBody(F);
  VmEnv Env(B.build());

  CallResult Res = Env.run("sinOf", {Value::fromF64(1.0)});
  ASSERT_TRUE(Res.ok());
  EXPECT_DOUBLE_EQ(Res.Ret.asF64(), std::sin(1.0));
}

TEST(Interpreter, IoNativesLogAndConsume) {
  DexBuilder B;
  NativeId Print = B.addNative("print", 1, false, /*DoesIO=*/true);
  NativeId Read = B.addNative("readInput", 0, true, /*DoesIO=*/true);
  MethodId M = B.declareFunction(InvalidId, "echo", 0, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx V = F.newReg();
  F.invokeNative(V, Read, {});
  F.invokeNative(NoReg, Print, {V});
  F.ret(V);
  B.endBody(F);
  VmEnv Env(B.build());

  Env.RT->inputQueue().push_back(42);
  CallResult R = Env.run("echo");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Ret.asI64(), 42);
  ASSERT_EQ(Env.RT->ioLog().size(), 2u); // tag + payload
  EXPECT_EQ(Env.RT->ioLog()[1], 42);
  // Queue exhausted -> -1.
  EXPECT_EQ(Env.run("echo").Ret.asI64(), -1);
}

TEST(Interpreter, NativeCallsAreExpensive) {
  DexBuilder B;
  NativeId Sin = B.addNative("sin", 1, true);
  MethodId WithNative = B.declareFunction(InvalidId, "withNative", 1, true);
  {
    FunctionBuilder F = B.beginBody(WithNative);
    RegIdx R = F.newReg();
    F.invokeNative(R, Sin, {F.param(0)});
    F.ret(R);
    B.endBody(F);
  }
  MethodId Plain = B.declareFunction(InvalidId, "plain", 1, true);
  {
    FunctionBuilder F = B.beginBody(Plain);
    RegIdx R = F.newReg();
    F.addF(R, F.param(0), F.param(0));
    F.ret(R);
    B.endBody(F);
  }
  VmEnv Env(B.build());
  uint64_t NativeCycles =
      Env.run("withNative", {Value::fromF64(0.5)}).Cycles;
  uint64_t PlainCycles = Env.run("plain", {Value::fromF64(0.5)}).Cycles;
  EXPECT_GT(NativeCycles, PlainCycles + 100);
}

// --- Traps ---------------------------------------------------------------------

TEST(Traps, DivByZero) {
  DexBuilder B;
  MethodId M = B.declareFunction(InvalidId, "div", 2, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx R = F.newReg();
  F.divI(R, F.param(0), F.param(1));
  F.ret(R);
  B.endBody(F);
  VmEnv Env(B.build());

  EXPECT_EQ(Env.run("div", {Value::fromI64(10), Value::fromI64(2)})
                .Ret.asI64(),
            5);
  CallResult Res = Env.run("div", {Value::fromI64(10), Value::fromI64(0)});
  EXPECT_EQ(Res.Trap, TrapKind::DivByZero);
}

TEST(Traps, OutOfBounds) {
  DexBuilder B;
  MethodId M = B.declareFunction(InvalidId, "oob", 1, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx Arr = F.newReg(), Ten = F.immI(10), V = F.newReg();
  F.newArray(Arr, Ten, Type::I64);
  F.aload(V, Arr, F.param(0), Type::I64);
  F.ret(V);
  B.endBody(F);
  VmEnv Env(B.build());

  EXPECT_TRUE(Env.run("oob", {Value::fromI64(9)}).ok());
  EXPECT_EQ(Env.run("oob", {Value::fromI64(10)}).Trap,
            TrapKind::OutOfBounds);
  EXPECT_EQ(Env.run("oob", {Value::fromI64(-1)}).Trap,
            TrapKind::OutOfBounds);
}

TEST(Traps, NullPointer) {
  DexBuilder B;
  ClassId C = B.addClass("Box");
  FieldId Fd = B.addField(C, "v", Type::I64);
  MethodId M = B.declareFunction(InvalidId, "deref", 0, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx Obj = F.newReg(), V = F.newReg();
  F.constNull(Obj);
  F.getField(V, Obj, Fd);
  F.ret(V);
  B.endBody(F);
  VmEnv Env(B.build());

  EXPECT_EQ(Env.run("deref").Trap, TrapKind::NullPointer);
}

TEST(Traps, StackOverflow) {
  DexBuilder B;
  MethodId M = B.declareFunction(InvalidId, "inf", 0, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx R = F.newReg();
  F.invokeStatic(R, M, {});
  F.ret(R);
  B.endBody(F);
  VmEnv Env(B.build());

  EXPECT_EQ(Env.run("inf").Trap, TrapKind::StackOverflow);
}

TEST(Traps, TimeoutOnInfiniteLoop) {
  DexBuilder B;
  MethodId M = B.declareFunction(InvalidId, "spin", 0, false);
  FunctionBuilder F = B.beginBody(M);
  auto L = F.newLabel();
  F.bind(L);
  F.jump(L);
  F.retVoid();
  B.endBody(F);
  RuntimeConfig Config;
  Config.InsnBudget = 10000;
  VmEnv Env(B.build(), Config);

  CallResult R = Env.run("spin");
  EXPECT_EQ(R.Trap, TrapKind::Timeout);
  EXPECT_LE(R.Insns, 10001u);
}

TEST(Traps, OutOfMemory) {
  DexBuilder B;
  MethodId M = B.declareFunction(InvalidId, "hog", 0, false);
  FunctionBuilder F = B.beginBody(M);
  RegIdx Arr = F.newReg(), Big = F.immI(1 << 20);
  auto L = F.newLabel();
  F.bind(L);
  F.newArray(Arr, Big, Type::F64);
  F.jump(L);
  F.retVoid();
  B.endBody(F);
  RuntimeConfig Config;
  Config.HeapLimitBytes = 4 * 1024 * 1024;
  VmEnv Env(B.build(), Config);

  EXPECT_EQ(Env.run("hog").Trap, TrapKind::OutOfMemory);
}

// --- GC model -------------------------------------------------------------------

TEST(GcModel, LoopAllocationTriggersCollections) {
  DexBuilder B;
  MethodId M = B.declareFunction(InvalidId, "churn", 1, false);
  FunctionBuilder F = B.beginBody(M);
  RegIdx I = F.newReg(), One = F.immI(1), Arr = F.newReg(),
         Sz = F.immI(512);
  F.constI(I, 0);
  auto Head = F.newLabel(), Done = F.newLabel();
  F.bind(Head);
  F.ifGe(I, F.param(0), Done);
  F.newArray(Arr, Sz, Type::I64);
  F.addI(I, I, One);
  F.jump(Head);
  F.bind(Done);
  F.retVoid();
  B.endBody(F);

  RuntimeConfig Config;
  Config.HeapLimitBytes = 32 * 1024 * 1024;
  Config.GcThresholdBytes = 256 * 1024;
  VmEnv Env(B.build(), Config);

  // ~700 * 4KB+ allocations cross the 256KB threshold repeatedly.
  CallResult R = Env.run("churn", {Value::fromI64(700)});
  ASSERT_TRUE(R.ok());
  EXPECT_GE(Env.RT->heap().gcRuns(), 5u);
}

// --- Profiling / accounting ------------------------------------------------------

TEST(Profiling, MethodCyclesAccumulate) {
  DexBuilder B;
  defineSumTo(B);
  RuntimeConfig Config;
  Config.AttributeCycles = true;
  VmEnv Env(B.build(), Config);

  Env.run("sumTo", {Value::fromI64(500)});
  MethodId Id = Env.File.findMethod("sumTo");
  EXPECT_GT(Env.RT->methodCycles()[Id], 1000u);
  Env.RT->resetProfile();
  EXPECT_EQ(Env.RT->methodCycles()[Id], 0u);
}

TEST(Accounting, CyclesScaleWithWork) {
  DexBuilder B;
  defineSumTo(B);
  VmEnv Env(B.build());
  uint64_t Small = Env.run("sumTo", {Value::fromI64(10)}).Cycles;
  uint64_t Large = Env.run("sumTo", {Value::fromI64(1000)}).Cycles;
  EXPECT_GT(Large, Small * 20);
  EXPECT_EQ(Env.RT->totalCycles(), Small + Large);
}

TEST(Accounting, DeterministicAcrossRuns) {
  DexBuilder B;
  defineSumTo(B);
  DexFile File = B.build();
  auto RunOnce = [&File]() {
    os::AddressSpace Space;
    NativeRegistry Natives = NativeRegistry::standardLibrary();
    RuntimeConfig Config;
    Runtime::mapStandardLayout(Space, File, Config);
    Runtime RT(Space, File, Natives, Config);
    return RT.call(File.findMethod("sumTo"), {Value::fromI64(333)});
  };
  CallResult A = RunOnce(), B2 = RunOnce();
  EXPECT_EQ(A.Cycles, B2.Cycles);
  EXPECT_EQ(A.Insns, B2.Insns);
  EXPECT_EQ(A.Ret.asI64(), B2.Ret.asI64());
}

// --- Exact instruction budget ---------------------------------------------------
//
// Both tiers keep their cycle and instruction counts in frame-local
// counters and flush them into the runtime before every invoke, native
// call, return and trap. These tests pin the observable edges of that
// rule to values measured when every charge still went straight into the
// runtime: Timeout fires on instruction InsnBudget + 1 wherever it falls,
// with the same cycles charged, and a native sees the same clock.

namespace {

/// outer(n) = currentTimeMillis() + fillSum(n): a native call, then a
/// callee that allocates an n-element array, stores 0..n-1 into it and
/// sums it back — back-edges, array loads and stores, and an allocation.
DexFile budgetProgram() {
  DexBuilder B;
  NativeId Clock = B.addNative("currentTimeMillis", 0, true);
  MethodId FillSum = B.declareFunction(InvalidId, "fillSum", 1, true);
  {
    FunctionBuilder F = B.beginBody(FillSum);
    RegIdx Arr = F.newReg(), I = F.newReg(), Sum = F.newReg(),
           V = F.newReg(), One = F.immI(1);
    F.newArray(Arr, F.param(0), Type::I64);
    F.constI(I, 0);
    auto Fill = F.newLabel(), Filled = F.newLabel();
    F.bind(Fill);
    F.ifGe(I, F.param(0), Filled);
    F.astore(Arr, I, I, Type::I64);
    F.addI(I, I, One);
    F.jump(Fill);
    F.bind(Filled);
    F.constI(Sum, 0);
    F.constI(I, 0);
    auto Add = F.newLabel(), Done = F.newLabel();
    F.bind(Add);
    F.ifGe(I, F.param(0), Done);
    F.aload(V, Arr, I, Type::I64);
    F.addI(Sum, Sum, V);
    F.addI(I, I, One);
    F.jump(Add);
    F.bind(Done);
    F.ret(Sum);
    B.endBody(F);
  }
  MethodId Outer = B.declareFunction(InvalidId, "outer", 1, true);
  {
    FunctionBuilder F = B.beginBody(Outer);
    RegIdx T = F.newReg(), S = F.newReg();
    F.invokeNative(T, Clock, {});
    F.invokeStatic(S, FillSum, {F.param(0)});
    F.addI(S, S, T);
    F.ret(S);
    B.endBody(F);
  }
  return B.build();
}

constexpr int64_t BudgetProgramArg = 8;

/// A fresh process running budgetProgram() in \p Mode; Mixed compiles
/// both methods with the stock pipeline first.
std::unique_ptr<VmEnv> budgetEnv(ExecMode Mode, uint64_t Budget) {
  RuntimeConfig Config;
  Config.InsnBudget = Budget;
  auto Env = std::make_unique<VmEnv>(budgetProgram(), Config);
  if (Mode == ExecMode::Mixed)
    hgraph::compileAllAndroid(Env->File,
                              {Env->File.findMethod("fillSum"),
                               Env->File.findMethod("outer")},
                              Env->RT->codeCache());
  Env->RT->setMode(Mode);
  return Env;
}

CallResult runBudgetProgram(ExecMode Mode, uint64_t Budget) {
  return budgetEnv(Mode, Budget)->run("outer",
                                      {Value::fromI64(BudgetProgramArg)});
}

/// Index of the first native call and the first static call in outer's
/// code for \p Mode's tier. Both sit in outer's branch-free prefix, so
/// instruction Index + 1 of the call is the one right after it.
std::pair<uint64_t, uint64_t> outerCallIndices(ExecMode Mode) {
  std::unique_ptr<VmEnv> Env = budgetEnv(Mode, RuntimeConfig().InsnBudget);
  MethodId Outer = Env->File.findMethod("outer");
  uint64_t Native = ~0ULL, Static = ~0ULL;
  if (Mode == ExecMode::Mixed) {
    const MachineFunction *Fn = Env->RT->codeCache().lookup(Outer);
    EXPECT_NE(Fn, nullptr);
    for (size_t I = 0; Fn && I != Fn->Code.size(); ++I) {
      if (Fn->Code[I].Op == MOpcode::MCallNative && Native == ~0ULL)
        Native = I;
      if (Fn->Code[I].Op == MOpcode::MCallStatic && Static == ~0ULL)
        Static = I;
    }
  } else {
    const std::vector<Insn> &Code = Env->File.method(Outer).Code;
    for (size_t I = 0; I != Code.size(); ++I) {
      if (Code[I].Op == Opcode::InvokeNative && Native == ~0ULL)
        Native = I;
      if (Code[I].Op == Opcode::InvokeStatic && Static == ~0ULL)
        Static = I;
    }
  }
  return {Native, Static};
}

} // namespace

TEST(ExactBudget, TimeoutMatchesPinnedCyclesAtEveryBudget) {
  // Runs outer(8) under every budget short of the full run. Each call
  // times out on instruction Budget + 1; its cycles must equal the values
  // measured before frame-local counters: in clear where the budget runs
  // out 20 instructions into fillSum, on fillSum's first instruction and
  // right after the native call, and as an FNV-1a hash over all budgets.
  struct TierCase {
    ExecMode Mode;
    const char *Name;
    uint64_t FullInsns;
    uint64_t CalleeCycles;
    uint64_t FirstInsnCycles;
    uint64_t AfterNativeCycles;
    uint64_t CyclesHash;
  };
  const TierCase Tiers[] = {
      {ExecMode::InterpretOnly, "interpreter", 84, 616, 259, 232,
       0x97c238d7d4152de6ULL},
      {ExecMode::Mixed, "compiled", 134, 320, 223, 218,
       0x91bd94594010153fULL},
  };
  for (const TierCase &T : Tiers) {
    SCOPED_TRACE(T.Name);
    CallResult Full = runBudgetProgram(T.Mode, RuntimeConfig().InsnBudget);
    ASSERT_TRUE(Full.ok());
    ASSERT_EQ(Full.Insns, T.FullInsns);
    std::vector<uint64_t> Cycles;
    uint64_t H = 1469598103934665603ULL;
    for (uint64_t Budget = 0; Budget != Full.Insns; ++Budget) {
      CallResult R = runBudgetProgram(T.Mode, Budget);
      ASSERT_EQ(R.Trap, TrapKind::Timeout) << "budget " << Budget;
      ASSERT_EQ(R.Insns, Budget + 1) << "budget " << Budget;
      Cycles.push_back(R.Cycles);
      H ^= R.Cycles;
      H *= 1099511628211ULL;
    }
    // With the whole run's instruction count as budget, nothing times out.
    EXPECT_TRUE(runBudgetProgram(T.Mode, Full.Insns).ok());
    EXPECT_EQ(H, T.CyclesHash) << std::hex << "0x" << H;

    auto [NativeIdx, StaticIdx] = outerCallIndices(T.Mode);
    ASSERT_LT(NativeIdx, StaticIdx);
    ASSERT_LT(StaticIdx + 21, Cycles.size());
    EXPECT_EQ(Cycles[StaticIdx + 1 + 20], T.CalleeCycles);
    EXPECT_EQ(Cycles[StaticIdx + 1], T.FirstInsnCycles);
    EXPECT_EQ(Cycles[NativeIdx + 1], T.AfterNativeCycles);
  }
}

TEST(ExactBudget, NativeClockSeesWorkBeforeTheCall) {
  // clock(n) runs an n-iteration loop and then reads currentTimeMillis
  // (total cycles / 10^6) in the same frame: the native must see every
  // cycle the frame charged before the call.
  DexBuilder B;
  NativeId Clock = B.addNative("currentTimeMillis", 0, true);
  MethodId M = B.declareFunction(InvalidId, "clock", 1, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx Sum = F.newReg(), I = F.newReg(), T = F.newReg(), One = F.immI(1);
  F.constI(Sum, 0);
  F.constI(I, 0);
  auto Head = F.newLabel(), Exit = F.newLabel();
  F.bind(Head);
  F.ifGe(I, F.param(0), Exit);
  F.addI(Sum, Sum, I);
  F.addI(I, I, One);
  F.jump(Head);
  F.bind(Exit);
  F.invokeNative(T, Clock, {});
  F.ret(T);
  B.endBody(F);
  DexFile File = B.build();

  struct TierCase {
    ExecMode Mode;
    const char *Name;
    int64_t Millis; ///< Measured before frame-local counters.
  };
  const TierCase Tiers[] = {{ExecMode::InterpretOnly, "interpreter", 25},
                            {ExecMode::Mixed, "compiled", 2}};
  for (const TierCase &T : Tiers) {
    SCOPED_TRACE(T.Name);
    VmEnv Env(File);
    if (T.Mode == ExecMode::Mixed)
      hgraph::compileAllAndroid(Env.File, {M}, Env.RT->codeCache());
    Env.RT->setMode(T.Mode);
    CallResult R = Env.run("clock", {Value::fromI64(400000)});
    ASSERT_TRUE(R.ok());
    EXPECT_EQ(R.Ret.asI64(), T.Millis);
    EXPECT_GT(R.Ret.asI64(), 0);
  }
}

// --- Observer hooks -------------------------------------------------------------

namespace {

struct RecordingObserver : ExecObserver {
  std::vector<std::pair<uint32_t, ClassId>> Dispatches;
  std::vector<uint64_t> Writes;
  void onVirtualDispatch(MethodId, uint32_t Pc, ClassId Cls) override {
    Dispatches.emplace_back(Pc, Cls);
  }
  void onCellWrite(uint64_t Addr) override { Writes.push_back(Addr); }
};

} // namespace

TEST(Observer, SeesDispatchesAndWrites) {
  DexBuilder B;
  ClassId Base = B.addClass("Base");
  ClassId Derived = B.addClass("Derived", Base);
  MethodId V = B.declareVirtual(Base, "f", 1, true);
  MethodId DV = B.declareVirtual(Derived, "f", 1, true);
  for (MethodId Id : {V, DV}) {
    FunctionBuilder F = B.beginBody(Id);
    RegIdx R = F.immI(Id == V ? 1 : 2);
    F.ret(R);
    B.endBody(F);
  }
  MethodId Main = B.declareFunction(InvalidId, "main", 0, true);
  {
    FunctionBuilder F = B.beginBody(Main);
    RegIdx Obj = F.newReg(), R = F.newReg(), Arr = F.newReg(),
           Two = F.immI(2);
    F.newInstance(Obj, Derived);
    F.invokeVirtual(R, V, {Obj});
    F.newArray(Arr, Two, Type::I64);
    RegIdx Zero = F.immI(0);
    F.astore(Arr, Zero, R, Type::I64);
    F.ret(R);
    B.endBody(F);
  }
  VmEnv Env(B.build());
  RecordingObserver Obs;
  Env.RT->setObserver(&Obs);

  CallResult R = Env.run("main");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Ret.asI64(), 2); // dispatched to Derived.f
  ASSERT_EQ(Obs.Dispatches.size(), 1u);
  EXPECT_EQ(Obs.Dispatches[0].second, Derived);
  EXPECT_FALSE(Obs.Writes.empty());
}

// --- mapStandardLayout ------------------------------------------------------------

TEST(Layout, StandardMappingsPresent) {
  DexBuilder B;
  defineSumTo(B);
  DexFile File = B.build();
  os::AddressSpace Space;
  RuntimeConfig Config;
  Runtime::mapStandardLayout(Space, File, Config);

  auto Maps = Space.procMaps();
  EXPECT_EQ(Maps.size(), 5u);
  EXPECT_TRUE(Space.isMapped(Layout::HeapBase));
  EXPECT_TRUE(Space.isMapped(Layout::RuntimeImageBase));
  EXPECT_TRUE(Space.isMapped(Layout::DataBase));
}

TEST(Layout, RuntimeImageDependsOnlyOnBootId) {
  DexBuilder B;
  defineSumTo(B);
  DexFile File = B.build();

  auto ImageBytes = [&File](uint64_t BootId) {
    os::AddressSpace Space;
    RuntimeConfig Config;
    Config.BootId = BootId;
    Runtime::mapStandardLayout(Space, File, Config);
    std::vector<uint8_t> Bytes(256);
    Space.peek(Layout::RuntimeImageBase, Bytes.data(), Bytes.size());
    return Bytes;
  };

  EXPECT_EQ(ImageBytes(1), ImageBytes(1));
  EXPECT_NE(ImageBytes(1), ImageBytes(2));
}

// --- Java long arithmetic -----------------------------------------------------

// Java longs wrap on overflow. Both tiers must produce the wrapped two's-
// complement bits — and without signed-overflow UB in the VM itself.
TEST(LongArithmetic, OverflowWrapsIdenticallyInBothTiers) {
  DexBuilder B;
  auto Binary = [&B](const char *Name, auto Emit) {
    MethodId M = B.declareFunction(InvalidId, Name, 2, true);
    FunctionBuilder F = B.beginBody(M);
    RegIdx D = F.newReg();
    Emit(F, D, F.param(0), F.param(1));
    F.ret(D);
    B.endBody(F);
    return M;
  };
  MethodId Add = Binary("add", [](FunctionBuilder &F, RegIdx D, RegIdx A,
                                  RegIdx C) { F.addI(D, A, C); });
  MethodId Sub = Binary("sub", [](FunctionBuilder &F, RegIdx D, RegIdx A,
                                  RegIdx C) { F.subI(D, A, C); });
  MethodId Mul = Binary("mul", [](FunctionBuilder &F, RegIdx D, RegIdx A,
                                  RegIdx C) { F.mulI(D, A, C); });
  MethodId Neg = Binary("neg", [](FunctionBuilder &F, RegIdx D, RegIdx A,
                                  RegIdx) { F.negI(D, A); });
  VmEnv Env(B.build());
  hgraph::compileAllAndroid(Env.File, {Add, Sub, Mul, Neg},
                            Env.RT->codeCache());

  constexpr int64_t Max = std::numeric_limits<int64_t>::max();
  constexpr int64_t Min = std::numeric_limits<int64_t>::min();
  struct Case {
    MethodId Method;
    int64_t A, B, Expected;
  };
  const Case Cases[] = {
      {Add, Max, 1, Min},  // Long.MAX_VALUE + 1
      {Sub, Min, 1, Max},  // Long.MIN_VALUE - 1
      {Mul, Min, -1, Min}, // Long.MIN_VALUE * -1
      {Mul, Max, 2, -2},
      {Neg, Min, 0, Min},  // -Long.MIN_VALUE
  };
  for (ExecMode Mode : {ExecMode::InterpretOnly, ExecMode::Mixed}) {
    Env.RT->setMode(Mode);
    for (const Case &C : Cases) {
      CallResult R =
          Env.RT->call(C.Method, {Value::fromI64(C.A), Value::fromI64(C.B)});
      ASSERT_TRUE(R.ok());
      EXPECT_EQ(R.Ret.asI64(), C.Expected)
          << Env.File.method(C.Method).Name << "(" << C.A << ", " << C.B
          << ") in mode " << static_cast<int>(Mode);
    }
  }
}

// --- Shared runtime image ------------------------------------------------------

namespace {

/// FNV-1a over \p Size bytes.
uint64_t fnv1a(const uint8_t *Bytes, size_t Size) {
  uint64_t H = 1469598103934665603ULL;
  for (size_t I = 0; I != Size; ++I) {
    H ^= Bytes[I];
    H *= 1099511628211ULL;
  }
  return H;
}

/// FNV-1a over the image as \p Space maps it.
uint64_t mappedImageHash(const os::AddressSpace &Space) {
  std::vector<uint8_t> Bytes(Layout::RuntimeImageSize);
  EXPECT_TRUE(
      Space.peek(Layout::RuntimeImageBase, Bytes.data(), Bytes.size()));
  return fnv1a(Bytes.data(), Bytes.size());
}

/// Image hashes of boots 1 and 2, computed before the image was shared
/// (when every process generated a private copy).
constexpr uint64_t Boot1ImageHash = 0x4d749b1462f10a03ULL;
constexpr uint64_t Boot2ImageHash = 0xc0749e2be37ad642ULL;

DexFile emptyDex() { return DexBuilder().build(); }

} // namespace

TEST(SharedRuntimeImage, BytesMatchThePrivateCopyGoldens) {
  DexFile File = emptyDex();
  for (auto [Boot, Golden] : {std::pair{1ULL, Boot1ImageHash},
                               std::pair{2ULL, Boot2ImageHash}}) {
    const std::vector<os::PhysPageRef> &Image = Runtime::runtimeImage(Boot);
    ASSERT_EQ(Image.size() * os::PageSize, Layout::RuntimeImageSize);
    std::vector<uint8_t> Bytes;
    for (const os::PhysPageRef &Page : Image)
      Bytes.insert(Bytes.end(), Page->Data.begin(), Page->Data.end());
    EXPECT_EQ(fnv1a(Bytes.data(), Bytes.size()), Golden);

    os::AddressSpace Space;
    RuntimeConfig Config;
    Config.BootId = Boot;
    Runtime::mapStandardLayout(Space, File, Config);
    EXPECT_EQ(mappedImageHash(Space), Golden);
  }
  // One table entry per boot: asking again returns the same pages.
  EXPECT_EQ(&Runtime::runtimeImage(1), &Runtime::runtimeImage(1));
}

TEST(SharedRuntimeImage, PokeCopiesOnlyThatPage) {
  DexFile File = emptyDex();
  RuntimeConfig Config;
  os::AddressSpace A, B;
  Runtime::mapStandardLayout(A, File, Config);
  Runtime::mapStandardLayout(B, File, Config);
  const std::vector<os::PhysPageRef> &Image =
      Runtime::runtimeImage(Config.BootId);

  constexpr uint64_t Page = 5;
  uint64_t Addr = Layout::RuntimeImageBase + Page * os::PageSize + 16;
  uint64_t Old = 0;
  std::memcpy(&Old, Image[Page]->Data.data() + 16, sizeof(Old));
  uint64_t CowBefore = A.stats().CowCopies;
  uint64_t New = ~Old;
  ASSERT_TRUE(A.poke(Addr, &New, sizeof(New)));

  EXPECT_EQ(A.stats().CowCopies, CowBefore + 1);
  uint64_t Seen = 0;
  ASSERT_TRUE(A.peek(Addr, &Seen, sizeof(Seen)));
  EXPECT_EQ(Seen, New);
  ASSERT_TRUE(B.peek(Addr, &Seen, sizeof(Seen)));
  EXPECT_EQ(Seen, Old);
  std::memcpy(&Seen, Image[Page]->Data.data() + 16, sizeof(Seen));
  EXPECT_EQ(Seen, Old);

  // Only the written page left the shared image.
  for (uint64_t K = 0; K != Image.size(); ++K) {
    uint64_t PageAddr = Layout::RuntimeImageBase + K * os::PageSize;
    EXPECT_EQ(B.physicalPage(PageAddr), Image[K]);
    if (K == Page)
      EXPECT_NE(A.physicalPage(PageAddr), Image[K]);
    else
      EXPECT_EQ(A.physicalPage(PageAddr), Image[K]);
  }
}

// Eight address spaces map and read the image concurrently while one of
// them writes its own copy; the ctest entry running this case carries the
// `parallel` label, so the ThreadSanitizer job checks that the shared
// pages are only ever read.
TEST(SharedRuntimeImageParallel, EightThreadsMapReadAndOneWrites) {
  DexFile File = emptyDex();
  constexpr int Threads = 8;
  std::latch Start(Threads);
  std::vector<uint64_t> Hashes(Threads);
  std::vector<std::thread> Pool;
  for (int T = 0; T != Threads; ++T)
    Pool.emplace_back([&, T] {
      Start.arrive_and_wait();
      os::AddressSpace Space;
      Runtime::mapStandardLayout(Space, File, RuntimeConfig());
      if (T == 0) {
        uint64_t Word = 0x5eedULL;
        for (uint64_t K = 0; K != 8; ++K)
          Space.poke(Layout::RuntimeImageBase + K * 384 * os::PageSize,
                     &Word, sizeof(Word));
      }
      Hashes[T] = mappedImageHash(Space);
    });
  for (std::thread &Th : Pool)
    Th.join();

  EXPECT_NE(Hashes[0], Boot1ImageHash);
  for (int T = 1; T != Threads; ++T)
    EXPECT_EQ(Hashes[T], Boot1ImageHash) << "thread " << T;
  os::AddressSpace After;
  Runtime::mapStandardLayout(After, File, RuntimeConfig());
  EXPECT_EQ(mappedImageHash(After), Boot1ImageHash);
}
