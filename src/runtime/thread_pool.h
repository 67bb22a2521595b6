/// \file
/// Deterministic chunked thread pool — the bottom layer of the parallel
/// execution runtime (see DESIGN.md "Runtime").
///
/// Design constraints, in priority order:
///
///  1. **Determinism.** Work is always split into *indexed chunks*; which
///     thread runs a chunk is scheduling noise, but everything observable
///     (outputs, merge order, which exception wins) is keyed on the chunk
///     index. Callers that follow this rule get bit-identical results for
///     any thread count, which is the contract the whole library relies on
///     (simulated LOCAL-model runs must not depend on host parallelism).
///  2. **Nesting without deadlock.** A chunk body may itself open a parallel
///     region (components running on workers parallelize their inner
///     per-node sweeps). The caller of every region participates in draining
///     its own chunks, so progress never depends on a free worker existing.
///  3. **Exception transparency — the lowest-chunk exception invariant.**
///     When chunks throw, every chunk of the region still runs to
///     completion (a throwing chunk cannot cancel its siblings — they may
///     already be mutating their index-private slots), each exception is
///     captured in the chunk-indexed error slot, and after the barrier the
///     exception of the LOWEST failing chunk index is rethrown on the
///     calling thread. That is exactly the exception a serial loop over the
///     same chunks would have surfaced, so error behaviour is thread-count
///     invariant too — callers (e.g. delta_color's retry loop) cannot
///     distinguish a parallel failure from a serial one.
///
/// A pool constructed with `num_threads <= 1` spawns no workers and runs
/// every region inline; the library treats that as the serial engine.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace deltacol {

class ThreadPool {
 public:
  /// Spawns `num_threads - 1` worker threads (the calling thread is always
  /// the num_threads-th executor). `num_threads <= 1` spawns none.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total executors (workers + the calling thread), >= 1.
  int num_threads() const { return num_threads_; }

  /// Resolves a DeltaColoringOptions-style thread count: 0 means "all
  /// hardware threads", anything else is clamped to >= 1.
  static int resolve_num_threads(int requested);

  /// Schedule perturbation (DeltaColoringOptions::perturb_salt). A nonzero
  /// salt (a) jitters the chunk count num_range_chunks returns — still a
  /// pure function of (count, max_chunks, salt), so pre-sized per-chunk
  /// buffers stay consistent with the ranges actually dispatched — and
  /// (b) injects sub-millisecond sleeps ahead of pseudo-randomly chosen
  /// chunk bodies in parallel_chunks, scrambling which thread finishes
  /// first. Every caller honors the chunk-index discipline, so results are
  /// unchanged for every salt (boundaries and timing are never observable);
  /// the determinism suites sweep salts to prove it. 0 (default) disables
  /// both.
  void set_perturb_salt(std::uint64_t salt) { perturb_salt_ = salt; }
  std::uint64_t perturb_salt() const { return perturb_salt_; }

  /// Runs chunk_fn(0) .. chunk_fn(num_chunks - 1), concurrently when the
  /// pool has workers. Blocks until every chunk finished; rethrows the
  /// lowest-index chunk's exception, if any. Safe to call from inside a
  /// chunk (nested regions drain themselves, see file comment).
  void parallel_chunks(int num_chunks,
                       const std::function<void(int)>& chunk_fn);

  /// Runs fn(chunk_index, lo, hi) over a contiguous partition of
  /// [begin, end) into ascending ranges (chunk 0 covers the lowest ids).
  /// Bodies that need O(n) scratch allocate it once per chunk here;
  /// `max_chunks` (default: several per executor for load balance) caps the
  /// partition when that scratch is expensive. Chunk boundaries are never
  /// observable — any cap yields identical results.
  void parallel_ranges(int begin, int end,
                       const std::function<void(int, int, int)>& fn,
                       int max_chunks = 0);

  /// Number of chunks parallel_ranges will use for a range of `count`
  /// elements under the same `max_chunks` cap (callers pre-size per-chunk
  /// buffers with this).
  int num_range_chunks(int count, int max_chunks = 0) const;

  /// Runs body(i) for every i in [begin, end). The body must write only to
  /// i-private state (and read only state no other i writes).
  template <typename Body>
  void parallel_for(int begin, int end, const Body& body) {
    parallel_ranges(begin, end, [&body](int /*chunk*/, int lo, int hi) {
      for (int i = lo; i < hi; ++i) body(i);
    });
  }

 private:
  struct Region;

  void worker_loop();
  // Opens a region for `chunk_fn` and blocks until every chunk completed
  // (the parallel tail of parallel_chunks, after its serial/perturbation
  // dispatch decisions).
  void run_region(int num_chunks, const std::function<void(int)>& chunk_fn);
  // Drains chunks of `region` on the calling thread until none remain.
  static void drain(Region& region);

  int num_threads_ = 1;
  std::uint64_t perturb_salt_ = 0;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Region>> open_regions_;
  bool stop_ = false;
};

/// Nullable-pool dispatch, the idiom every routed algorithm uses: run
/// body(i) over [begin, end) on the pool when one is attached, as a plain
/// serial loop otherwise. Results are identical either way (the parallel
/// path requires the usual i-private-writes discipline).
template <typename Body>
void pooled_for(ThreadPool* pool, int begin, int end, const Body& body) {
  if (pool != nullptr) {
    pool->parallel_for(begin, end, body);
  } else {
    for (int i = begin; i < end; ++i) body(i);
  }
}

/// Range-chunked variant of pooled_for; fn(chunk, lo, hi) with per-chunk
/// scratch. See ThreadPool::parallel_ranges for `max_chunks`.
inline void pooled_ranges(ThreadPool* pool, int begin, int end,
                          const std::function<void(int, int, int)>& fn,
                          int max_chunks = 0) {
  if (pool != nullptr) {
    pool->parallel_ranges(begin, end, fn, max_chunks);
  } else if (end > begin) {
    fn(0, begin, end);
  }
}

/// One dynamically claimed chunk per index: job(0) .. job(count - 1) on the
/// pool when one is attached, as a plain serial loop otherwise. For jobs of
/// wildly different sizes, such as the connected components and the Phase
/// (6) leftovers of delta_color. Either way the lowest failing index's
/// exception is rethrown (the serial loop stops at it).
inline void pooled_chunks(ThreadPool* pool, int count,
                          const std::function<void(int)>& job) {
  if (pool != nullptr) {
    pool->parallel_chunks(count, job);
  } else {
    for (int i = 0; i < count; ++i) job(i);
  }
}

}  // namespace deltacol
