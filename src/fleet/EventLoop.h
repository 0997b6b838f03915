//===- fleet/EventLoop.h - Deterministic discrete-event engine --*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The virtual clock under the asynchronous fleet (DESIGN.md §14): a
/// discrete-event scheduler whose outcome is a pure function of the
/// scheduled events, never of wall-clock time, thread count or OS
/// scheduling. Three design rules carry the determinism proof:
///
///  1. **Total event order.** Every event carries a key `(Time, Seq)`
///     where `Seq` is a monotone counter assigned at schedule() time.
///     Scheduling only happens from serial contexts (the caller before
///     run(), and commit handlers inside run()), so `Seq` assignment —
///     and with it the tie-break among same-tick events — is itself
///     deterministic.
///
///  2. **Compute/commit split.** An event's *compute* phase does the
///     expensive work (a device's search round) and may run on a pool
///     worker; its *commit* phase mutates shared state (server merges,
///     mailboxes, new events) and always runs serially on the loop
///     thread in `(Time, Seq)` order. Computes touch only lane-local
///     state: events in the same lane are executed in key order by a
///     single worker per wave, so a lane (one device class sharing an
///     evaluation engine) never sees two concurrent computes.
///
///  3. **Exact batches.** The loop processes the queue strictly in key
///     order. The only parallelism is a *batch*: a maximal run of
///     consecutive queue-front events that all carry a compute and share
///     one virtual tick. Batch computes fan out over the pool (one task
///     per lane); the batch then commits serially in key order. Because
///     a compute event never jumps ahead of an earlier-keyed commit-only
///     event (message arrivals, step completions), and same-tick
///     computes only touch lane-local state, the parallel execution is
///     observationally identical to serial strict `(Time, Seq)`
///     execution at any pool size — determinism is not a property to
///     re-prove per handler, it falls out of the schedule.
///
/// Parallelism at 10k-device scale therefore comes from the *schedule*:
/// the coordinator aligns step starts to a coarse grid
/// (fleet::StepGridTicks), so thousands of device computes share
/// a tick and batch together.
///
/// Warm starts (DESIGN.md §17) happen strictly *before* run(): the
/// coordinator pre-seeds device hint mailboxes from a restored store
/// in the serial scheduling context, so persisted state never races
/// the event order — the first scheduled step already sees the hints,
/// and the virtual clock starts at 0 on every night regardless of how
/// many nights the store has accumulated.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_FLEET_EVENT_LOOP_H
#define ROPT_FLEET_EVENT_LOOP_H

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace ropt {

class ThreadPool;

namespace fleet {

/// Simulated ticks since the run began. Purely virtual: one tick has no
/// wall-clock meaning, it is only ordered against other ticks.
using VirtualTime = uint64_t;

class EventLoop {
public:
  /// Commit handlers receive the loop to schedule follow-up events.
  using ComputeFn = std::function<void()>;
  using CommitFn = std::function<void(EventLoop &)>;

  /// \p Pool runs compute phases; commits stay on the caller's thread.
  explicit EventLoop(ThreadPool &Pool);

  /// Schedules an event. \p At is clamped to now()+1 when it is not in
  /// the future — virtual time never stalls or runs backwards. \p Lane
  /// groups events whose computes share mutable state (a device class);
  /// lane -1 means "commit-only, no compute". Returns the event's Seq.
  uint64_t schedule(VirtualTime At, int Lane, ComputeFn Compute,
                    CommitFn Commit);

  /// Drains the queue: same-tick batches of (parallel-by-lane) computes
  /// and strictly-ordered commits, until no events remain. Must not be
  /// called re-entrantly.
  void run();

  /// The current virtual time: the key-time of the event whose commit is
  /// running, or of the last committed event between batches.
  VirtualTime now() const { return Now; }

  // Introspection for tests and the coordinator's log.
  uint64_t eventsProcessed() const { return Processed; }
  uint64_t batches() const { return Batches; }

private:
  struct Event {
    VirtualTime Time = 0;
    uint64_t Seq = 0;
    int Lane = -1;
    ComputeFn Compute;
    CommitFn Commit;
  };
  struct Later {
    bool operator()(const Event &A, const Event &B) const {
      if (A.Time != B.Time)
        return A.Time > B.Time;
      return A.Seq > B.Seq;
    }
  };

  ThreadPool &Pool;
  std::priority_queue<Event, std::vector<Event>, Later> Queue;
  VirtualTime Now = 0;
  uint64_t NextSeq = 0;
  uint64_t Processed = 0;
  uint64_t Batches = 0;
  uint64_t MaxBatch = 0;
  bool Running = false;
};

} // namespace fleet
} // namespace ropt

#endif // ROPT_FLEET_EVENT_LOOP_H
