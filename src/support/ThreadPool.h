//===- support/ThreadPool.h - Fixed-size worker pool ------------*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size thread pool behind the parallel evaluation engine.
/// Two entry points: `submit()` for one-off tasks (the returned future
/// carries exceptions), and `parallelFor()` for index-space fan-out with a
/// stable *worker slot* id — each slot is only ever driven by one thread
/// at a time, so callers can keep per-slot mutable state (replay
/// sandboxes, RNGs) without any synchronization. The threads start on the
/// first submit() or multi-runner parallelFor(), so a pool whose sweeps
/// all run inline never starts any.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_SUPPORT_THREAD_POOL_H
#define ROPT_SUPPORT_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace ropt {

class ThreadPool {
public:
  /// \p Threads = 0 picks the hardware concurrency.
  explicit ThreadPool(size_t Threads = 0);
  /// Drains nothing: queued-but-unstarted tasks are abandoned (their
  /// futures get a broken_promise), running tasks finish, threads join.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// The configured thread count, whether or not the threads started.
  size_t size() const { return Threads; }
  /// Whether the threads started. Ask from the thread that uses the pool.
  bool started() const { return !Workers.empty(); }

  /// std::thread::hardware_concurrency with a floor of 1.
  static size_t defaultThreadCount();

  /// Enqueues \p Task; the future rethrows anything the task threw.
  std::future<void> submit(std::function<void()> Task);

  /// Runs Body(Index, Worker) for every Index in [0, N), spread over the
  /// pool. Worker identifies a slot in [0, min(size(), N)) that is never
  /// used by two threads concurrently. Blocks until every index ran (or
  /// an exception stopped the sweep) and rethrows the first exception.
  /// With a single-thread pool (or N == 1) the body runs inline on the
  /// caller. Must not be called from inside a pool task.
  void parallelFor(size_t N,
                   const std::function<void(size_t, size_t)> &Body);

private:
  /// Starts the threads once; returns when every one has its name.
  void start();
  void workerMain();

  size_t Threads;
  std::once_flag Started;
  std::vector<std::thread> Workers;
  std::mutex Mutex;
  std::condition_variable Cv;
  std::deque<std::packaged_task<void()>> Queue;
  bool Stopping = false;
};

} // namespace ropt

#endif // ROPT_SUPPORT_THREAD_POOL_H
