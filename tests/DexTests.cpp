//===- tests/DexTests.cpp - dex/ unit tests ---------------------------------===//

#include "dex/Builder.h"
#include "dex/Verifier.h"

#include <gtest/gtest.h>

using namespace ropt;
using namespace ropt::dex;

namespace {

/// Builds a minimal one-function file: add(a, b) = a + b.
DexFile buildAddFile() {
  DexBuilder B;
  MethodId Add = B.declareFunction(InvalidId, "add", 2, true);
  FunctionBuilder F = B.beginBody(Add);
  RegIdx Sum = F.newReg();
  F.addI(Sum, F.param(0), F.param(1));
  F.ret(Sum);
  B.endBody(F);
  return B.build();
}

} // namespace

TEST(Bytecode, OpcodeNamesUnique) {
  std::set<std::string> Names;
  for (unsigned Op = 0; Op != unsigned(Opcode::OpcodeCount); ++Op)
    Names.insert(opcodeName(static_cast<Opcode>(Op)));
  EXPECT_EQ(Names.size(), size_t(Opcode::OpcodeCount));
}

TEST(Bytecode, Predicates) {
  EXPECT_TRUE(isBranch(Opcode::Goto));
  EXPECT_TRUE(isBranch(Opcode::IfLt));
  EXPECT_TRUE(isConditionalBranch(Opcode::IfEqz));
  EXPECT_FALSE(isConditionalBranch(Opcode::Goto));
  EXPECT_FALSE(isBranch(Opcode::AddI));
  EXPECT_TRUE(isReturn(Opcode::Ret));
  EXPECT_TRUE(isReturn(Opcode::RetVoid));
  EXPECT_FALSE(isReturn(Opcode::Goto));
  EXPECT_TRUE(isInvoke(Opcode::InvokeVirtual));
  EXPECT_FALSE(isInvoke(Opcode::Ret));
}

TEST(Builder, SimpleFunction) {
  DexFile File = buildAddFile();
  MethodId Add = File.findMethod("add");
  ASSERT_NE(Add, InvalidId);
  const Method &M = File.method(Add);
  EXPECT_EQ(M.ParamCount, 2);
  EXPECT_EQ(M.RegCount, 3);
  EXPECT_TRUE(M.ReturnsValue);
  EXPECT_EQ(M.Code.size(), 2u);
  EXPECT_EQ(M.Code[0].Op, Opcode::AddI);
  EXPECT_EQ(M.Code[1].Op, Opcode::Ret);
}

TEST(Builder, LabelsAndBranches) {
  DexBuilder B;
  // abs(x): if (x >= 0) return x; return -x;
  MethodId Abs = B.declareFunction(InvalidId, "abs", 1, true);
  FunctionBuilder F = B.beginBody(Abs);
  auto Pos = F.newLabel();
  F.ifGez(F.param(0), Pos);
  RegIdx Neg = F.newReg();
  F.negI(Neg, F.param(0));
  F.ret(Neg);
  F.bind(Pos);
  F.ret(F.param(0));
  B.endBody(F);
  DexFile File = B.build();

  const Method &M = File.method(File.findMethod("abs"));
  ASSERT_EQ(M.Code.size(), 4u);
  EXPECT_EQ(M.Code[0].Op, Opcode::IfGez);
  EXPECT_EQ(M.Code[0].Target, 3);
}

TEST(Builder, BackwardBranch) {
  DexBuilder B;
  // loop(n): i = 0; while (i < n) ++i; return i;
  MethodId Loop = B.declareFunction(InvalidId, "loop", 1, true);
  FunctionBuilder F = B.beginBody(Loop);
  RegIdx I = F.newReg();
  RegIdx One = F.immI(1);
  F.constI(I, 0);
  auto Head = F.newLabel();
  auto Exit = F.newLabel();
  F.bind(Head);
  F.ifGe(I, F.param(0), Exit);
  F.addI(I, I, One);
  F.jump(Head);
  F.bind(Exit);
  F.ret(I);
  B.endBody(F);
  DexFile File = B.build();

  const Method &M = File.method(File.findMethod("loop"));
  // The goto must point back at the loop head.
  bool FoundBackEdge = false;
  for (size_t Pc = 0; Pc != M.Code.size(); ++Pc)
    if (M.Code[Pc].Op == Opcode::Goto &&
        M.Code[Pc].Target < static_cast<int32_t>(Pc))
      FoundBackEdge = true;
  EXPECT_TRUE(FoundBackEdge);
}

TEST(Builder, FieldsAndLayout) {
  DexBuilder B;
  ClassId BaseCls = B.addClass("Base");
  ClassId DerivedCls = B.addClass("Derived", BaseCls);
  FieldId BaseF = B.addField(BaseCls, "x", Type::I64);
  FieldId DerF1 = B.addField(DerivedCls, "y", Type::F64);
  FieldId DerF2 = B.addField(DerivedCls, "z", Type::Ref);
  MethodId Main = B.declareFunction(InvalidId, "main", 0, false);
  FunctionBuilder F = B.beginBody(Main);
  F.retVoid();
  B.endBody(F);
  DexFile File = B.build();

  EXPECT_EQ(File.field(BaseF).SlotIndex, 0u);
  EXPECT_EQ(File.classAt(BaseCls).InstanceSlots, 1u);
  // Derived inherits Base's slot then adds two of its own.
  EXPECT_EQ(File.field(DerF1).SlotIndex, 1u);
  EXPECT_EQ(File.field(DerF2).SlotIndex, 2u);
  EXPECT_EQ(File.classAt(DerivedCls).InstanceSlots, 3u);
}

TEST(Builder, DerivedFieldSlotsFollowBase) {
  DexBuilder B;
  ClassId BaseCls = B.addClass("Base");
  ClassId DerivedCls = B.addClass("Derived", BaseCls);
  B.addField(BaseCls, "a", Type::I64);
  B.addField(BaseCls, "b", Type::I64);
  FieldId C = B.addField(DerivedCls, "c", Type::I64);
  MethodId Main = B.declareFunction(InvalidId, "main", 0, false);
  FunctionBuilder F = B.beginBody(Main);
  F.retVoid();
  B.endBody(F);
  DexFile File = B.build();
  EXPECT_EQ(File.field(C).SlotIndex, 2u);
  EXPECT_EQ(File.classAt(DerivedCls).InstanceSlots, 3u);
}

TEST(Builder, VTableOverride) {
  DexBuilder B;
  ClassId Animal = B.addClass("Animal");
  ClassId Dog = B.addClass("Dog", Animal);
  ClassId Cat = B.addClass("Cat", Animal);
  MethodId Speak = B.declareVirtual(Animal, "speak", 1, true);
  MethodId DogSpeak = B.declareVirtual(Dog, "speak", 1, true);
  MethodId CatSpeak = B.declareVirtual(Cat, "speak", 1, true);
  for (MethodId Id : {Speak, DogSpeak, CatSpeak}) {
    FunctionBuilder F = B.beginBody(Id);
    RegIdx R = F.immI(static_cast<int64_t>(Id));
    F.ret(R);
    B.endBody(F);
  }
  DexFile File = B.build();

  EXPECT_EQ(File.resolveVirtual(Animal, Speak), Speak);
  EXPECT_EQ(File.resolveVirtual(Dog, Speak), DogSpeak);
  EXPECT_EQ(File.resolveVirtual(Cat, Speak), CatSpeak);
  EXPECT_TRUE(File.isSubclassOf(Dog, Animal));
  EXPECT_FALSE(File.isSubclassOf(Animal, Dog));
  EXPECT_FALSE(File.isSubclassOf(Dog, Cat));
}

TEST(Builder, InheritedVirtualNotOverridden) {
  DexBuilder B;
  ClassId BaseCls = B.addClass("Base");
  ClassId DerivedCls = B.addClass("Derived", BaseCls);
  MethodId M = B.declareVirtual(BaseCls, "m", 1, false);
  FunctionBuilder F = B.beginBody(M);
  F.retVoid();
  B.endBody(F);
  DexFile File = B.build();
  EXPECT_EQ(File.resolveVirtual(DerivedCls, M), M);
}

TEST(Builder, NativeMethodInheritsFlags) {
  DexBuilder B;
  NativeId Print = B.addNative("print", 1, false, /*DoesIO=*/true);
  NativeId Time =
      B.addNative("time", 0, true, /*DoesIO=*/false, /*NonDet=*/true);
  MethodId PM = B.declareNativeMethod(InvalidId, "print", Print);
  MethodId TM = B.declareNativeMethod(InvalidId, "time", Time);
  MethodId Main = B.declareFunction(InvalidId, "main", 0, false);
  FunctionBuilder F = B.beginBody(Main);
  F.retVoid();
  B.endBody(F);
  DexFile File = B.build();

  EXPECT_TRUE(File.method(PM).doesIO());
  EXPECT_FALSE(File.method(PM).isNonDeterministic());
  EXPECT_TRUE(File.method(TM).isNonDeterministic());
  EXPECT_TRUE(File.method(PM).IsNative);
}

TEST(Builder, MethodFlags) {
  DexBuilder B;
  MethodId M = B.declareFunction(InvalidId, "m", 0, false,
                                 MF_HasTryCatch);
  B.addMethodFlags(M, MF_Uncompilable);
  FunctionBuilder F = B.beginBody(M);
  F.retVoid();
  B.endBody(F);
  DexFile File = B.build();
  EXPECT_TRUE(File.method(M).hasTryCatch());
  EXPECT_TRUE(File.method(M).isUncompilable());
  EXPECT_FALSE(File.method(M).doesIO());
}

TEST(Builder, FindByName) {
  DexFile File = buildAddFile();
  EXPECT_NE(File.findMethod("add"), InvalidId);
  EXPECT_EQ(File.findMethod("missing"), InvalidId);
  EXPECT_EQ(File.findClass("missing"), InvalidId);
}

// --- Verifier ------------------------------------------------------------------

namespace {

/// Builds a file without running build()'s assert so invalid bodies can be
/// inspected by the verifier directly.
std::vector<std::string> verifyRaw(Method M, uint16_t NumStatics = 0) {
  DexBuilder B;
  // Provide a stub file context: one static field slot if needed.
  ClassId C = B.addClass("C");
  for (uint16_t I = 0; I != NumStatics; ++I) {
    std::string Name = "s";
    Name += std::to_string(I);
    B.addStaticField(C, Name, Type::I64);
  }
  MethodId Stub = B.declareFunction(InvalidId, "stub", 0, false);
  FunctionBuilder F = B.beginBody(Stub);
  F.retVoid();
  B.endBody(F);
  DexFile File = B.build();
  std::vector<std::string> Problems;
  verifyMethod(File, M, Problems);
  return Problems;
}

Method makeMethod(std::vector<Insn> Code, uint16_t Regs,
                  bool Returns = false) {
  Method M;
  M.Name = "test";
  M.ParamCount = 0;
  M.RegCount = Regs;
  M.ReturnsValue = Returns;
  M.Code = std::move(Code);
  return M;
}

Insn mk(Opcode Op, RegIdx A = NoReg, RegIdx B = NoReg, RegIdx C = NoReg) {
  Insn I;
  I.Op = Op;
  I.A = A;
  I.B = B;
  I.C = C;
  return I;
}

} // namespace

TEST(Verifier, AcceptsValid) {
  std::vector<Insn> Code = {mk(Opcode::ConstI, 0), mk(Opcode::RetVoid)};
  EXPECT_TRUE(verifyRaw(makeMethod(Code, 1)).empty());
}

TEST(Verifier, RejectsRegisterOutOfRange) {
  std::vector<Insn> Code = {mk(Opcode::AddI, 5, 0, 0), mk(Opcode::RetVoid)};
  EXPECT_FALSE(verifyRaw(makeMethod(Code, 2)).empty());
}

TEST(Verifier, RejectsBadBranchTarget) {
  Insn G = mk(Opcode::Goto);
  G.Target = 99;
  std::vector<Insn> Code = {G, mk(Opcode::RetVoid)};
  EXPECT_FALSE(verifyRaw(makeMethod(Code, 1)).empty());
}

TEST(Verifier, RejectsFallOffEnd) {
  std::vector<Insn> Code = {mk(Opcode::ConstI, 0)};
  EXPECT_FALSE(verifyRaw(makeMethod(Code, 1)).empty());
}

TEST(Verifier, RejectsEmptyBody) {
  EXPECT_FALSE(verifyRaw(makeMethod({}, 1)).empty());
}

TEST(Verifier, RejectsRetInVoidMethod) {
  std::vector<Insn> Code = {mk(Opcode::Ret, NoReg, 0)};
  EXPECT_FALSE(verifyRaw(makeMethod(Code, 1, /*Returns=*/false)).empty());
}

TEST(Verifier, RejectsRetVoidInValueMethod) {
  std::vector<Insn> Code = {mk(Opcode::RetVoid)};
  EXPECT_FALSE(verifyRaw(makeMethod(Code, 1, /*Returns=*/true)).empty());
}

TEST(Verifier, RejectsUnknownStaticField) {
  Insn I = mk(Opcode::GetStaticI, 0);
  I.Idx = 42;
  std::vector<Insn> Code = {I, mk(Opcode::RetVoid)};
  EXPECT_FALSE(verifyRaw(makeMethod(Code, 1), /*NumStatics=*/1).empty());
}

TEST(Verifier, AcceptsKnownStaticField) {
  Insn I = mk(Opcode::GetStaticI, 0);
  I.Idx = 0;
  std::vector<Insn> Code = {I, mk(Opcode::RetVoid)};
  EXPECT_TRUE(verifyRaw(makeMethod(Code, 1), /*NumStatics=*/1).empty());
}

TEST(Verifier, WholeFileVerifies) {
  DexFile File = buildAddFile();
  EXPECT_TRUE(verify(File).empty());
}

