//===- vm/Machine.h - Compiled-code target representation -------*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The machine-level program representation both compiler backends (the
/// conservative Android pipeline and the LLVM-like pipeline) emit, and the
/// executor runs under the cycle cost model. Unlike the bytecode, checks
/// (null/bounds/div), GC safepoints, speculation guards and intrinsics are
/// explicit instructions here — so optimization passes can legally remove,
/// hoist or strengthen them, and unsound passes can genuinely break the
/// program.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_VM_MACHINE_H
#define ROPT_VM_MACHINE_H

#include "dex/DexFile.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ropt {
namespace vm {

enum class MOpcode : uint8_t {
  MNop,

  MMovImmI, ///< A = ImmI
  MMovImmF, ///< A = ImmF
  MMov,     ///< A = B

  MAddI, MSubI, MMulI, MDivI, MRemI, ///< MDivI/MRemI are *unchecked*.
  MAndI, MOrI, MXorI, MShlI, MShrI,
  MNegI,

  MAddF, MSubF, MMulF, MDivF,
  MNegF, MCmpF, MSqrtF,
  MI2F, MF2I,

  MGoto,
  MIfEq, MIfNe, MIfLt, MIfLe, MIfGt, MIfGe,       ///< regs B ? C
  MIfEqz, MIfNez, MIfLtz, MIfLez, MIfGtz, MIfGez, ///< reg B ? 0

  MCheckNull,   ///< trap NullPointer if reg B == 0
  MCheckBounds, ///< trap OutOfBounds unless 0 <= reg C < length(reg B)
  MCheckDiv,    ///< trap DivByZero if reg B == 0
  MSafepoint,   ///< GC poll
  MGuardClass,  ///< branch to Target unless class(reg B) == Idx

  MLoadSlot,    ///< A = obj(B).slot(Idx)         (unchecked)
  MStoreSlot,   ///< obj(B).slot(Idx) = A         (unchecked)
  MLoadStatic,  ///< A = statics[Idx]
  MStoreStatic, ///< statics[Idx] = A
  MALoad,       ///< A = arr(B)[C]                (unchecked)
  MAStore,      ///< arr(B)[C] = A                (unchecked)
  MArrayLen,    ///< A = length(arr B)            (requires non-null B)

  MNewInstance, ///< A = new object of class Idx
  MNewArray,    ///< A = new array, kind Idx (ObjKind), length reg B

  MCallStatic,  ///< A = call method Idx(args)
  MCallVirtual, ///< A = dispatch declared method Idx through Args[0]
  MCallNative,  ///< A = native Idx(args)
  MIntrinsic,   ///< A = intrinsic Idx(args); inlined math

  MRet,    ///< return reg B
  MRetVoid,

  MOpcodeCount,
};

/// Math intrinsics the backend can inline in place of JNI natives.
enum class IntrinsicKind : uint8_t {
  Sin, Cos, Tan, Exp, Log, Floor, AbsF, Pow, Atan2, MinF, MaxF,
  IntrinsicCount,
};

/// Maps a native's declared IntrinsicKind string ("sin", ...) to the enum;
/// returns false when there is no intrinsic for it.
bool intrinsicFromName(const std::string &Name, IntrinsicKind &Out);

/// Work-cycle cost of one inlined intrinsic (relative weights follow the
/// native-side costs, minus the transition).
uint32_t intrinsicWorkCycles(IntrinsicKind Kind);

/// Branch-likelihood hint set by the compiler. Unhinted branches go through
/// the dynamic predictor.
enum class BranchHint : int8_t {
  None = -1,
  Unlikely = 0,
  Likely = 1,
};

/// Maximum call arguments, matching the bytecode.
constexpr unsigned MMaxArgs = 8;
using MRegIdx = uint16_t;
constexpr MRegIdx MNoReg = 0xffff;

/// One machine instruction.
struct MInsn {
  MOpcode Op = MOpcode::MNop;
  MRegIdx A = MNoReg;
  MRegIdx B = MNoReg;
  MRegIdx C = MNoReg;
  int32_t Target = -1;
  uint32_t Idx = 0;
  /// Bytecode-pc provenance for profile-keyed passes (devirtualization);
  /// ~0u when the instruction has no bytecode origin.
  uint32_t Site = 0xffffffff;
  int64_t ImmI = 0;
  double ImmF = 0.0;
  BranchHint Hint = BranchHint::None;
  uint8_t ArgCount = 0;
  MRegIdx Args[MMaxArgs] = {};
};

/// Number of architectural registers; virtual registers beyond this are
/// "spilled" and each touch pays a penalty. Register allocation quality is
/// therefore a genuine performance dimension.
constexpr MRegIdx PhysRegCount = 24;

/// One compiled function.
struct MachineFunction {
  dex::MethodId Method = dex::InvalidId;
  std::string Name;
  uint16_t NumRegs = 0;
  uint16_t ParamCount = 0;
  bool ReturnsValue = false;
  std::vector<MInsn> Code;

  /// Binary size estimate used for storage accounting and as the GA's
  /// fitness tiebreak (smaller wins at equal speed).
  uint64_t sizeBytes() const { return Code.size() * 4; }
};

/// One instruction as the executor runs it (DESIGN.md §21): everything
/// its handler reads, inline, in three eighths of an MInsn. Calls and
/// intrinsics still read their argument registers from the source MInsn.
struct DecodedInsn {
  /// Executor handler index (Executor.cpp), with a flag bit on the first
  /// instruction of each straight-line block.
  uint8_t Handler = 0;
  BranchHint Hint = BranchHint::None;
  MRegIdx A = MNoReg;
  MRegIdx B = MNoReg;
  MRegIdx C = MNoReg;
  /// Static cycles of this instruction and the rest of its block. An
  /// instruction's static cycles are its opcode's fixed cost (where no
  /// trap inside the instruction can skip it) plus its spilled-register
  /// touches.
  uint32_t BlockCycles = 0;
  /// Instructions from this one to the end of its block.
  uint32_t BlockInsns = 0;
  uint32_t Idx = 0;
  /// Branch or guard target, checked: an index into the decoded code,
  /// where an out-of-range MInsn target becomes the fall-off slot.
  uint32_t Target = 0;

  /// MMovImmI/MMovImmF, which use neither Idx nor Target, keep the
  /// register's new bits there: low half in Idx, high half in Target.
  uint64_t imm() const { return static_cast<uint64_t>(Target) << 32 | Idx; }
  void setImm(uint64_t Bits) {
    Idx = static_cast<uint32_t>(Bits);
    Target = static_cast<uint32_t>(Bits >> 32);
  }
};
static_assert(sizeof(DecodedInsn) == 24, "decoded instructions stay small");

/// A MachineFunction decoded once, when it is installed: one DecodedInsn
/// per MInsn, then the fall-off slot, which faults when control runs off
/// the end of the code or branches outside it.
struct DecodedFunction {
  std::shared_ptr<const MachineFunction> Source;
  std::vector<DecodedInsn> Code; ///< Source->Code.size() + 1 entries.
};

/// Decodes \p Fn for the executor (Executor.cpp). Counts vm.decodes.
std::shared_ptr<const DecodedFunction>
decodeMachineFunction(std::shared_ptr<const MachineFunction> Fn);

/// The set of compiled methods a runtime executes from. Replays swap whole
/// caches to compare code versions. Installing decodes the function, and
/// copies of a cache share the decoded code; an installed MachineFunction
/// must not change afterwards.
class CodeCache {
public:
  void install(std::shared_ptr<MachineFunction> Fn) {
    install(decodeMachineFunction(std::move(Fn)));
  }
  /// Installs an already decoded function, sharing its decoding.
  void install(std::shared_ptr<const DecodedFunction> Fn) {
    dex::MethodId Id = Fn->Source->Method;
    Functions[Id] = std::move(Fn);
  }

  const MachineFunction *lookup(dex::MethodId Id) const {
    const DecodedFunction *Fn = decoded(Id);
    return Fn ? Fn->Source.get() : nullptr;
  }

  /// The decoded form of method \p Id, as the executor runs it.
  const DecodedFunction *decoded(dex::MethodId Id) const {
    auto It = Functions.find(Id);
    return It == Functions.end() ? nullptr : It->second.get();
  }

  void remove(dex::MethodId Id) { Functions.erase(Id); }
  void clear() { Functions.clear(); }
  size_t size() const { return Functions.size(); }

  uint64_t totalSizeBytes() const {
    uint64_t Total = 0;
    for (const auto &KV : Functions)
      Total += KV.second->Source->sizeBytes();
    return Total;
  }

  const std::map<dex::MethodId, std::shared_ptr<const DecodedFunction>> &
  functions() const {
    return Functions;
  }

private:
  std::map<dex::MethodId, std::shared_ptr<const DecodedFunction>> Functions;
};

/// Mnemonic for \p Op.
const char *mopcodeName(MOpcode Op);

/// True for MGoto / MIf* (not guards).
bool isMBranch(MOpcode Op);

/// True for the MIf* family.
bool isMCondBranch(MOpcode Op);

} // namespace vm
} // namespace ropt

#endif // ROPT_VM_MACHINE_H
