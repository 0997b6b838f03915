//===- vm/Heap.cpp - Garbage-collected heap over simulated memory ---------===//

#include "vm/Heap.h"

#include "support/Metrics.h"

#include <cassert>

using namespace ropt;
using namespace ropt::vm;

void Heap::writeControl(uint64_t Slot, uint64_t Value) {
  [[maybe_unused]] os::AccessResult R =
      Space.storeU64(Layout::HeapBase + Slot, Value);
  assert(R == os::AccessResult::Ok && "heap control block unreachable");
}

void Heap::initialize() {
  writeControl(BumpOffsetSlot, ControlBlockSize);
  writeControl(BytesSinceGcSlot, 0);
  writeControl(GcRunsSlot, 0);
}

uint64_t Heap::allocate(ObjKind Kind, uint32_t ClassOrElem, uint64_t Count,
                        TrapKind &Trap) {
  uint64_t Bump = readControl(BumpOffsetSlot);
  uint64_t Bytes = sizeof(ObjectHeader) + 8 * Count;
  Bytes = (Bytes + 15) & ~15ULL; // 16-byte alignment
  if (Bump + Bytes > LimitBytes) {
    Trap = TrapKind::OutOfMemory;
    return 0;
  }
  uint64_t Ref = Layout::HeapBase + Bump;

  ObjectHeader Header;
  Header.ClassOrElem = ClassOrElem;
  Header.Kind = static_cast<uint8_t>(Kind);
  Header.Count = Count;
  if (Space.write(Ref, &Header, sizeof(Header)) != os::AccessResult::Ok) {
    Trap = TrapKind::MemoryFault;
    return 0;
  }
  // Fresh pages are zeroed by the simulated kernel, but a recycled replay
  // space may hold stale bytes; zero the payload explicitly. A page nobody
  // wrote yet shares the zero page instead of getting zeros of its own.
  uint64_t ZeroPages = 0;
  if (Space.zeroFill(Ref + sizeof(ObjectHeader), Bytes - sizeof(ObjectHeader),
                     ZeroPages) != os::AccessResult::Ok) {
    Trap = TrapKind::MemoryFault;
    return 0;
  }

  writeControl(BumpOffsetSlot, Bump + Bytes);
  writeControl(BytesSinceGcSlot, readControl(BytesSinceGcSlot) + Bytes);
  ROPT_METRIC_INC("vm.heap_allocs");
  ROPT_METRIC_ADD("vm.heap_bytes", Bytes);
  ROPT_METRIC_ADD("vm.heap_zero_fill_pages", ZeroPages);
  return Ref;
}

uint64_t Heap::bytesAllocated() {
  return readControl(BumpOffsetSlot) - ControlBlockSize;
}

bool Heap::gcImminent() {
  return readControl(BytesSinceGcSlot) * 10 >= GcThresholdBytes * 9;
}

uint64_t Heap::collect(uint64_t GcPauseCycles) {
  // "Collect": charge the pause and walk every allocated page, as a tracing
  // collector would. The walk performs protected reads so that a concurrent
  // capture observes the page traffic.
  uint64_t Bump = readControl(BumpOffsetSlot);
  for (uint64_t Offset = 0; Offset < Bump; Offset += os::PageSize) {
    uint8_t Byte;
    (void)Space.read(Layout::HeapBase + Offset, &Byte, 1);
  }
  writeControl(BytesSinceGcSlot, 0);
  writeControl(GcRunsSlot, readControl(GcRunsSlot) + 1);
  ROPT_METRIC_INC("vm.gc_runs");
  return GcPauseCycles;
}

uint64_t Heap::gcRuns() { return readControl(GcRunsSlot); }
