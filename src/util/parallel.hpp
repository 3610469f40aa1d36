// The one data-parallel runtime: a small reusable worker pool.
//
// The nn kernels (nn/kernels.hpp, via nn::Tape), the training engine
// (core/trainer.hpp), the sparse optimizer (nn/optim.hpp) and the
// batched ranker (eval/ranker.hpp) all fan out through for_chunks(),
// which gives them three properties:
//
//   - std::thread workers parked on a condition variable, so a pool
//     never spin-waits and processes sharing CPUs do not collapse, and
//     ThreadSanitizer instruments every access;
//   - the calling thread participates as worker 0, so a pool of size 1
//     never context-switches and the serial path is the parallel path;
//   - exceptions thrown by any worker are captured and rethrown on the
//     caller after every worker has parked.
//
// Determinism contract: the pool only provides *execution*; callers
// must make the result independent of scheduling by writing to
// disjoint, chunk- or slot-indexed storage and reducing in slot order
// (DESIGN.md section 16).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/lockorder.hpp"

namespace ckat::util {

/// CPUs in the calling process's affinity mask (at least 1): the
/// default worker count where no thread count is configured.
[[nodiscard]] std::size_t affinity_cpu_count();

class WorkerPool {
 public:
  /// Creates a pool with `threads` workers total (the caller counts as
  /// worker 0, so `threads - 1` std::threads are spawned). threads < 1
  /// is clamped to 1.
  explicit WorkerPool(std::size_t threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return threads_; }

  /// Runs fn(worker) for worker in [0, size()) -- worker 0 on the
  /// calling thread -- and returns once all invocations finish. If any
  /// invocation throws, the lowest-indexed worker's exception is
  /// rethrown after the barrier. One job at a time: with size() > 1, a
  /// run() that finds a job in flight -- called from inside one of the
  /// pool's own jobs, or from a second thread -- throws
  /// std::logic_error instead of corrupting the barrier.
  void run(const std::function<void(std::size_t)>& fn);

  /// Calls fn(begin, end) for each chunk of [0, n): consecutive ranges
  /// of `chunk` indices, the last possibly shorter. `chunk` must be a
  /// caller constant, never derived from size(), so the partition is
  /// the same at every pool size. Workers claim chunks in any order, so
  /// fn must write only chunk-indexed storage. A single chunk, or a
  /// pool of size 1, runs in chunk order on the calling thread without
  /// waking a worker; otherwise this is a run(). Throws
  /// std::invalid_argument when chunk is 0.
  void for_chunks(std::size_t n, std::size_t chunk,
                  const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  void worker_loop(std::size_t worker);

  std::size_t threads_;
  std::vector<std::thread> workers_;

  OrderedMutex mutex_{"util.worker_pool"};
  std::condition_variable_any cv_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::uint64_t generation_ = 0;  // bumped per run() to wake workers
  std::size_t remaining_ = 0;     // workers still inside the current job
  bool shutdown_ = false;
  std::vector<std::exception_ptr> errors_;
};

}  // namespace ckat::util
