/// \file thread_pool.hpp
/// \brief Minimal internal worker pool for parallel candidate generation
/// and scoring.
///
/// The beam search generates each level's candidates per parent and scores
/// the level's batch in chunks; chunks are claimed dynamically (atomic
/// cursor) for load balance, but every result is written to its parent's
/// or candidate's slot, so the merged output is independent of the thread
/// count and of scheduling (bit-deterministic).
///
/// A pool may be shared by many owners (the serve layer runs one pool for
/// all live sessions instead of a per-search pool): `ParallelChunks` is
/// safe to call from multiple threads concurrently — jobs are serialized
/// through a submission lock, so the workers run one job at a time and a
/// session's scores never interleave with another's.
///
/// Thread count resolution order: explicit `SearchConfig::num_threads` >
/// `SISD_THREADS` environment variable > `std::thread::hardware_concurrency`.

#ifndef SISD_SEARCH_THREAD_POOL_HPP_
#define SISD_SEARCH_THREAD_POOL_HPP_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sisd::search {

/// \brief Fixed-size worker pool. Worker 0 is the calling thread; the pool
/// spawns `num_workers - 1` additional threads.
class ThreadPool {
 public:
  /// Resolves a configured thread count: values >= 1 are taken as-is
  /// (clamped to `kMaxThreads`); 0 defers to the `SISD_THREADS` environment
  /// variable, then to the hardware concurrency (at least 1).
  static size_t ResolveNumThreads(int configured);

  static constexpr size_t kMaxThreads = 256;

  /// Creates a pool with `num_workers` total workers (>= 1).
  explicit ThreadPool(size_t num_workers);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  /// Total workers, including the calling thread.
  size_t num_workers() const { return num_workers_; }

  /// Runs `fn(begin, end, worker_id)` over `[0, n)` in chunks of at most
  /// `grain` items, claimed dynamically. Blocks until every chunk ran.
  /// `fn` must be safe to call concurrently with distinct `worker_id`s
  /// (`worker_id < num_workers()`). Callable from multiple threads at
  /// once: concurrent jobs run back to back, never interleaved. The
  /// calling thread always participates as worker 0 (even while another
  /// caller's job holds the helpers), so progress never depends on being
  /// granted the pool.
  void ParallelChunks(size_t n, size_t grain,
                      const std::function<void(size_t, size_t, size_t)>& fn);

 private:
  void WorkerLoop(size_t worker_id);
  void RunJobChunks(size_t worker_id);

  const size_t num_workers_;
  std::vector<std::thread> threads_;

  /// Serializes whole jobs when several owners submit concurrently.
  std::mutex submit_mu_;

  std::mutex mu_;
  std::condition_variable work_cv_;   ///< signals a new job or shutdown
  std::condition_variable done_cv_;   ///< signals job completion
  uint64_t job_generation_ = 0;       ///< bumped per ParallelChunks call
  size_t workers_active_ = 0;         ///< helpers still inside the job
  bool shutdown_ = false;

  // Current job (valid while workers_active_ > 0 or caller is in the job).
  const std::function<void(size_t, size_t, size_t)>* job_fn_ = nullptr;
  size_t job_n_ = 0;
  size_t job_grain_ = 1;
  std::atomic<size_t> job_cursor_{0};
};

}  // namespace sisd::search

#endif  // SISD_SEARCH_THREAD_POOL_HPP_
