#include "util/parallel.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>

namespace ckat::util {

std::size_t affinity_cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  const int count = CPU_COUNT(&set);
  return count < 1 ? 1 : static_cast<std::size_t>(count);
}

WorkerPool::WorkerPool(std::size_t threads)
    : threads_(threads < 1 ? 1 : threads), errors_(threads_) {
  workers_.reserve(threads_ - 1);
  for (std::size_t w = 1; w < threads_; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<OrderedMutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void WorkerPool::run(const std::function<void(std::size_t)>& fn) {
  if (threads_ == 1) {
    fn(0);
    return;
  }
  {
    std::lock_guard<OrderedMutex> lock(mutex_);
    if (job_ != nullptr) {
      throw std::logic_error(
          "WorkerPool::run: another job is in flight (a job calling back "
          "into its own pool, or a second caller)");
    }
    job_ = &fn;
    ++generation_;
    remaining_ = threads_ - 1;
    for (auto& e : errors_) e = nullptr;
  }
  cv_.notify_all();

  try {
    fn(0);
  } catch (...) {
    errors_[0] = std::current_exception();
  }

  std::unique_lock<OrderedMutex> lock(mutex_);
  cv_.wait(lock, [this] { return remaining_ == 0; });
  job_ = nullptr;
  for (const std::exception_ptr& e : errors_) {
    if (e) std::rethrow_exception(e);
  }
}

void WorkerPool::for_chunks(
    std::size_t n, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (chunk == 0) {
    throw std::invalid_argument("WorkerPool::for_chunks: chunk must be > 0");
  }
  const std::size_t n_chunks = n / chunk + (n % chunk != 0 ? 1 : 0);
  if (threads_ == 1 || n_chunks <= 1) {
    for (std::size_t begin = 0; begin < n; begin += chunk) {
      fn(begin, begin + std::min(chunk, n - begin));
    }
    return;
  }
  // Chunks are claimed first come, first served: a worker the host has
  // not scheduled yet simply claims fewer, and the chunk -> range map
  // does not depend on who runs it.
  std::atomic<std::size_t> next{0};
  run([&](std::size_t) {
    for (std::size_t c = next.fetch_add(1); c < n_chunks;
         c = next.fetch_add(1)) {
      const std::size_t begin = c * chunk;
      fn(begin, begin + std::min(chunk, n - begin));
    }
  });
}

void WorkerPool::worker_loop(std::size_t worker) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* job = nullptr;
    {
      std::unique_lock<OrderedMutex> lock(mutex_);
      cv_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
      job = job_;
    }
    try {
      (*job)(worker);
    } catch (...) {
      errors_[worker] = std::current_exception();
    }
    bool last = false;
    {
      std::lock_guard<OrderedMutex> lock(mutex_);
      last = --remaining_ == 0;
    }
    if (last) cv_.notify_all();
  }
}

}  // namespace ckat::util
