//===- vm/Heap.h - Garbage-collected heap over simulated memory -*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bump-pointer heap living *inside* an os::AddressSpace, so page-level
/// capture sees every allocation and access. All allocator state (bump
/// offset, GC accounting) is kept in a control block at the heap base —
/// inside captured memory — which is what makes replays allocation-exact.
///
/// The GC is a cost-and-paging model, not a reclaimer: workloads are sized
/// to fit the heap, but safepoint polls still trigger "collections" that
/// charge a pause and touch every live heap page. That is precisely why the
/// capture mechanism postpones snapshots when a GC is imminent (Section
/// 3.2) and why redundant safepoint checks in unrolled loops cost real time
/// (Section 3.5's custom pass).
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_VM_HEAP_H
#define ROPT_VM_HEAP_H

#include "os/AddressSpace.h"
#include "vm/Trap.h"

#include <cassert>
#include <cstdint>

namespace ropt {
namespace vm {

/// Standard process layout. Every app process and every replay loader uses
/// these bases, so captured addresses stay meaningful.
struct Layout {
  static constexpr uint64_t CodeBase = 0x40000000;
  static constexpr uint64_t CodeSize = 4 * 1024 * 1024;
  static constexpr uint64_t DataBase = 0x50000000; ///< Static fields.
  static constexpr uint64_t DataSize = 256 * 1024;
  static constexpr uint64_t HeapBase = 0x60000000;
  static constexpr uint64_t RuntimeImageBase = 0x70000000;
  static constexpr uint64_t RuntimeImageSize = 12 * 1024 * 1024;
  static constexpr uint64_t StackBase = 0x7f000000;
  static constexpr uint64_t StackSize = 1024 * 1024;
};

/// What a heap cell is. Stored in object headers.
enum class ObjKind : uint8_t {
  Object = 1,
  ArrayI = 2,
  ArrayF = 3,
  ArrayR = 4,
};

/// 16-byte header preceding every allocation.
struct ObjectHeader {
  uint32_t ClassOrElem = 0; ///< ClassId for objects; unused for arrays.
  uint8_t Kind = 0;         ///< ObjKind.
  uint8_t Pad[3] = {};
  uint64_t Count = 0;       ///< Field slots or array elements.
};

static_assert(sizeof(ObjectHeader) == 16, "header layout is part of the ABI");

/// A view over the heap region of an address space. Multiple views over the
/// same space observe the same allocator state (it lives in memory).
class Heap {
public:
  static constexpr uint64_t ControlBlockSize = 64;
  /// Control block field offsets (from heap base).
  static constexpr uint64_t BumpOffsetSlot = 0;
  static constexpr uint64_t BytesSinceGcSlot = 8;
  static constexpr uint64_t GcRunsSlot = 16;

  /// Views the heap inside \p Space. \p LimitBytes and \p GcThresholdBytes
  /// are configuration, not state, and must match across views.
  Heap(os::AddressSpace &Space, uint64_t LimitBytes,
       uint64_t GcThresholdBytes)
      : Space(Space), LimitBytes(LimitBytes),
        GcThresholdBytes(GcThresholdBytes) {}

  /// Writes a fresh control block. Call once after mapping the region.
  void initialize();

  /// Allocates a cell; returns its address or 0 with \p Trap set.
  /// For objects, \p Count is the slot count; for arrays, the length.
  uint64_t allocate(ObjKind Kind, uint32_t ClassOrElem, uint64_t Count,
                    TrapKind &Trap);

  /// Reads the header at \p Ref. Returns false on access failure.
  bool readHeader(uint64_t Ref, ObjectHeader &Out) {
    return Space.read(Ref, &Out, sizeof(Out)) == os::AccessResult::Ok;
  }

  /// Address of field slot \p Slot of the object at \p Ref.
  static uint64_t slotAddr(uint64_t Ref, uint64_t Slot) {
    return Ref + sizeof(ObjectHeader) + 8 * Slot;
  }

  /// Address of element \p Index of the array at \p Ref.
  static uint64_t elemAddr(uint64_t Ref, uint64_t Index) {
    return Ref + sizeof(ObjectHeader) + 8 * Index;
  }

  /// Bytes currently allocated (bump offset minus control block).
  uint64_t bytesAllocated();

  /// True when the next safepoint is likely to trigger a collection; the
  /// capture scheduler postpones snapshots in this state.
  bool gcImminent();

  /// Safepoint poll: runs the GC model if due. Returns the cycles the poll
  /// consumed beyond the poll itself (0 when no collection ran). A
  /// collection touches every allocated heap page (reads), which is what
  /// would inflate a concurrent capture.
  uint64_t pollSafepoint(uint64_t GcPauseCycles) {
    // Collect as soon as a collection is "imminent" (the same 90% bar the
    // capture scheduler postpones on) — a postponed capture must always
    // get its chance on a later run.
    if (readControl(BytesSinceGcSlot) * 10 < GcThresholdBytes * 9)
      return 0;
    return collect(GcPauseCycles);
  }

  /// Number of collections this heap has run (from the control block).
  uint64_t gcRuns();

private:
  uint64_t readControl(uint64_t Slot) {
    uint64_t Value = 0;
    [[maybe_unused]] os::AccessResult R =
        Space.loadU64(Layout::HeapBase + Slot, Value);
    assert(R == os::AccessResult::Ok && "heap control block unreachable");
    return Value;
  }
  void writeControl(uint64_t Slot, uint64_t Value);
  /// The collection a due safepoint poll runs; returns \p GcPauseCycles.
  uint64_t collect(uint64_t GcPauseCycles);

  os::AddressSpace &Space;
  uint64_t LimitBytes;
  uint64_t GcThresholdBytes;
};

} // namespace vm
} // namespace ropt

#endif // ROPT_VM_HEAP_H
