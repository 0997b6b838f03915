//===- dex/Builder.h - Programmatic bytecode construction -------*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// DexBuilder/FunctionBuilder: the API the workloads use to author
/// applications. The flow is declare-then-define: declare every class,
/// field, native and method signature first (so ids exist for calls), then
/// define method bodies, then build() to link vtables, lay out fields and
/// verify the bytecode.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_DEX_BUILDER_H
#define ROPT_DEX_BUILDER_H

#include "dex/DexFile.h"

#include <cassert>
#include <string>
#include <vector>

namespace ropt {
namespace dex {

class DexBuilder;

/// Emits the body of one previously declared method.
///
/// Registers: parameters occupy registers [0, ParamCount); newReg()
/// allocates further temporaries. Labels are created with newLabel(),
/// referenced by branches before or after being placed with bind().
class FunctionBuilder {
public:
  using Label = uint32_t;

  /// Register holding parameter \p I.
  RegIdx param(unsigned I) const {
    assert(I < NumParams && "parameter index out of range");
    return static_cast<RegIdx>(I);
  }

  /// Allocates a fresh virtual register.
  RegIdx newReg() {
    assert(NextReg < NoReg && "register file exhausted");
    return NextReg++;
  }

  // --- Constants and moves ------------------------------------------------
  void constI(RegIdx D, int64_t V);
  void constF(RegIdx D, double V);
  void constNull(RegIdx D);
  void move(RegIdx D, RegIdx S);

  // --- Integer ALU ---------------------------------------------------------
  void addI(RegIdx D, RegIdx A, RegIdx B) { emit3(Opcode::AddI, D, A, B); }
  void subI(RegIdx D, RegIdx A, RegIdx B) { emit3(Opcode::SubI, D, A, B); }
  void mulI(RegIdx D, RegIdx A, RegIdx B) { emit3(Opcode::MulI, D, A, B); }
  void divI(RegIdx D, RegIdx A, RegIdx B) { emit3(Opcode::DivI, D, A, B); }
  void remI(RegIdx D, RegIdx A, RegIdx B) { emit3(Opcode::RemI, D, A, B); }
  void andI(RegIdx D, RegIdx A, RegIdx B) { emit3(Opcode::AndI, D, A, B); }
  void xorI(RegIdx D, RegIdx A, RegIdx B) { emit3(Opcode::XorI, D, A, B); }
  void shlI(RegIdx D, RegIdx A, RegIdx B) { emit3(Opcode::ShlI, D, A, B); }
  void shrI(RegIdx D, RegIdx A, RegIdx B) { emit3(Opcode::ShrI, D, A, B); }
  void negI(RegIdx D, RegIdx S) { emit3(Opcode::NegI, D, S, NoReg); }

  // --- Double ALU ----------------------------------------------------------
  void addF(RegIdx D, RegIdx A, RegIdx B) { emit3(Opcode::AddF, D, A, B); }
  void subF(RegIdx D, RegIdx A, RegIdx B) { emit3(Opcode::SubF, D, A, B); }
  void mulF(RegIdx D, RegIdx A, RegIdx B) { emit3(Opcode::MulF, D, A, B); }
  void divF(RegIdx D, RegIdx A, RegIdx B) { emit3(Opcode::DivF, D, A, B); }
  void negF(RegIdx D, RegIdx S) { emit3(Opcode::NegF, D, S, NoReg); }
  void cmpF(RegIdx D, RegIdx A, RegIdx B) { emit3(Opcode::CmpF, D, A, B); }
  void sqrtF(RegIdx D, RegIdx S) { emit3(Opcode::SqrtF, D, S, NoReg); }
  void i2f(RegIdx D, RegIdx S) { emit3(Opcode::I2F, D, S, NoReg); }
  void f2i(RegIdx D, RegIdx S) { emit3(Opcode::F2I, D, S, NoReg); }

  // --- Control flow ----------------------------------------------------------
  Label newLabel();
  /// Places \p L at the next emitted instruction.
  void bind(Label L);
  void jump(Label L);
  void ifEq(RegIdx A, RegIdx B, Label L) { branch(Opcode::IfEq, A, B, L); }
  void ifNe(RegIdx A, RegIdx B, Label L) { branch(Opcode::IfNe, A, B, L); }
  void ifLt(RegIdx A, RegIdx B, Label L) { branch(Opcode::IfLt, A, B, L); }
  void ifLe(RegIdx A, RegIdx B, Label L) { branch(Opcode::IfLe, A, B, L); }
  void ifGt(RegIdx A, RegIdx B, Label L) { branch(Opcode::IfGt, A, B, L); }
  void ifGe(RegIdx A, RegIdx B, Label L) { branch(Opcode::IfGe, A, B, L); }
  void ifEqz(RegIdx A, Label L) { branchZ(Opcode::IfEqz, A, L); }
  void ifNez(RegIdx A, Label L) { branchZ(Opcode::IfNez, A, L); }
  void ifLtz(RegIdx A, Label L) { branchZ(Opcode::IfLtz, A, L); }
  void ifLez(RegIdx A, Label L) { branchZ(Opcode::IfLez, A, L); }
  void ifGtz(RegIdx A, Label L) { branchZ(Opcode::IfGtz, A, L); }
  void ifGez(RegIdx A, Label L) { branchZ(Opcode::IfGez, A, L); }

  // --- Calls -----------------------------------------------------------------
  /// Calls static/free method \p Callee; \p D may be NoReg.
  void invokeStatic(RegIdx D, MethodId Callee,
                    const std::vector<RegIdx> &Args);
  /// Virtual dispatch through Args[0]'s class on declared method \p Callee.
  void invokeVirtual(RegIdx D, MethodId Callee,
                     const std::vector<RegIdx> &Args);
  /// Direct native call.
  void invokeNative(RegIdx D, NativeId Callee,
                    const std::vector<RegIdx> &Args);

  void ret(RegIdx S);
  void retVoid();

  // --- Objects and arrays ------------------------------------------------
  void newInstance(RegIdx D, ClassId Cls);
  void getField(RegIdx D, RegIdx Obj, FieldId F);
  void putField(RegIdx Obj, FieldId F, RegIdx S);
  void getStatic(RegIdx D, StaticFieldId F);
  void putStatic(StaticFieldId F, RegIdx S);
  void newArray(RegIdx D, RegIdx Len, Type ElemType);
  void aload(RegIdx D, RegIdx Arr, RegIdx Idx, Type ElemType);
  void astore(RegIdx Arr, RegIdx Idx, RegIdx S, Type ElemType);
  void arrayLen(RegIdx D, RegIdx Arr);

  /// Convenience: D = constant-int temp (new register each call).
  RegIdx immI(int64_t V) {
    RegIdx R = newReg();
    constI(R, V);
    return R;
  }
  RegIdx immF(double V) {
    RegIdx R = newReg();
    constF(R, V);
    return R;
  }

  /// Number of instructions emitted so far.
  size_t size() const { return Code.size(); }

private:
  friend class DexBuilder;
  FunctionBuilder(DexBuilder &Parent, MethodId Id, uint16_t NumParams)
      : Parent(Parent), Id(Id), NumParams(NumParams), NextReg(NumParams) {}

  void emit3(Opcode Op, RegIdx A, RegIdx B, RegIdx C);
  void branch(Opcode Op, RegIdx A, RegIdx B, Label L);
  void branchZ(Opcode Op, RegIdx A, Label L);
  void emitInvoke(Opcode Op, RegIdx D, uint32_t Callee,
                  const std::vector<RegIdx> &Args);
  void addFixup(size_t InsnIndex, Label L);

  DexBuilder &Parent;
  MethodId Id;
  uint16_t NumParams;
  RegIdx NextReg;
  std::vector<Insn> Code;
  std::vector<int32_t> LabelPositions; ///< -1 while unbound.
  std::vector<std::pair<size_t, Label>> Fixups;
};

/// Declares program entities and produces a linked, verified DexFile.
class DexBuilder {
public:
  /// Declares a class; \p Super may be InvalidId for a root class.
  ClassId addClass(const std::string &Name, ClassId Super = InvalidId);

  /// Declares an instance field on \p Owner.
  FieldId addField(ClassId Owner, const std::string &Name, Type T);

  /// Declares a static field. \p InitialBits is the raw initial slot value
  /// (use doubleBits() for F64 initializers).
  StaticFieldId addStaticField(ClassId Owner, const std::string &Name,
                               Type T, int64_t InitialBits = 0);

  /// Declares a native (JNI) function.
  NativeId addNative(const std::string &Name, uint16_t ParamCount,
                     bool ReturnsValue, bool DoesIO = false,
                     bool NonDeterministic = false,
                     const std::string &IntrinsicKind = "");

  /// Declares a static method or free function (Owner may be InvalidId).
  MethodId declareFunction(ClassId Owner, const std::string &Name,
                           uint16_t ParamCount, bool ReturnsValue,
                           uint32_t Flags = MF_None);

  /// Declares a virtual method; ParamCount includes the receiver. Overrides
  /// a superclass virtual with the same bare name automatically.
  MethodId declareVirtual(ClassId Owner, const std::string &Name,
                          uint16_t ParamCount, bool ReturnsValue,
                          uint32_t Flags = MF_None);

  /// Declares a bytecode-level wrapper around native \p N on \p Owner
  /// (InvalidId for a free function). Flags are derived from the native.
  MethodId declareNativeMethod(ClassId Owner, const std::string &Name,
                               NativeId N);

  /// Adds extra behaviour flags to a declared method.
  void addMethodFlags(MethodId Id, uint32_t Flags);

  /// Starts defining the body of \p Id. Call FunctionBuilder methods, then
  /// endMethod().
  FunctionBuilder beginBody(MethodId Id);

  /// Finalizes a body: resolves labels and stores the code.
  void endBody(FunctionBuilder &FB);

  /// Links vtables and field layouts, verifies all bytecode, and returns
  /// the immutable image. The builder must not be reused afterwards.
  DexFile build();

  /// Bit pattern of a double, for static field initializers.
  static int64_t doubleBits(double V);

  // Accessors used by FunctionBuilder while emitting.
  const FieldInfo &field(FieldId Id) const { return File.Fields.at(Id); }
  const StaticFieldInfo &staticField(StaticFieldId Id) const {
    return File.StaticFields.at(Id);
  }
  const Method &method(MethodId Id) const { return File.Methods.at(Id); }
  const NativeDecl &native(NativeId Id) const { return File.Natives.at(Id); }

private:
  std::string qualify(ClassId Owner, const std::string &Name) const;

  DexFile File;
  bool Built = false;
};

} // namespace dex
} // namespace ropt

#endif // ROPT_DEX_BUILDER_H
