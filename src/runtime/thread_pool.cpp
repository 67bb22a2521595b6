#include "runtime/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>

#include "util/check.h"
#include "util/rng.h"

namespace deltacol {

namespace {
// Ranges below this size run inline: dispatch latency would exceed the work.
// Purely a performance threshold — results are chunk-count independent.
constexpr int kMinParallelItems = 256;
}  // namespace

// One parallel_chunks call. Chunks are claimed through an atomic cursor (so
// uneven chunks load-balance dynamically), results and exceptions are keyed
// on the chunk index (so nothing observable depends on the claim order).
struct ThreadPool::Region {
  explicit Region(int total_chunks, const std::function<void(int)>& fn)
      : total(total_chunks), chunk_fn(fn), errors(static_cast<std::size_t>(total_chunks)) {}

  const int total;
  const std::function<void(int)>& chunk_fn;  // outlives the region: the
                                             // caller blocks until done
  std::atomic<int> next{0};
  std::atomic<int> completed{0};
  std::vector<std::exception_ptr> errors;

  std::mutex done_mu;
  std::condition_variable done_cv;

  bool exhausted() const { return next.load(std::memory_order_relaxed) >= total; }
  bool finished() const { return completed.load(std::memory_order_acquire) >= total; }
};

ThreadPool::ThreadPool(int num_threads) : num_threads_(std::max(1, num_threads)) {
  workers_.reserve(static_cast<std::size_t>(num_threads_ - 1));
  for (int i = 0; i < num_threads_ - 1; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

int ThreadPool::resolve_num_threads(int requested) {
  if (requested == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }
  return std::max(1, requested);
}

void ThreadPool::drain(Region& region) {
  for (;;) {
    const int c = region.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= region.total) return;
    try {
      region.chunk_fn(c);
    } catch (...) {
      region.errors[static_cast<std::size_t>(c)] = std::current_exception();
    }
    if (region.completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        region.total) {
      std::lock_guard<std::mutex> lock(region.done_mu);
      region.done_cv.notify_all();
    }
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::shared_ptr<Region> region;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] {
        return stop_ || !open_regions_.empty();
      });
      if (stop_ && open_regions_.empty()) return;
      // Retire exhausted regions (their chunks are all claimed; whoever
      // claimed them will finish them), then help the oldest open one.
      while (!open_regions_.empty() && open_regions_.front()->exhausted()) {
        open_regions_.pop_front();
      }
      if (open_regions_.empty()) continue;
      region = open_regions_.front();
    }
    drain(*region);
  }
}

void ThreadPool::parallel_chunks(int num_chunks,
                                 const std::function<void(int)>& chunk_fn) {
  if (num_chunks <= 0) return;
  if (num_threads_ <= 1 || num_chunks == 1) {
    // Serial engine: a plain loop, exceptions propagate from the first
    // failing chunk exactly as the contract promises.
    for (int c = 0; c < num_chunks; ++c) chunk_fn(c);
    return;
  }
  if (perturb_salt_ != 0) {
    // Stall injection (set_perturb_salt): ~1 in 4 chunks sleeps 50-450 µs
    // before running, keyed purely on (salt, chunk index). The wrapper lives
    // on this frame, which blocks until the region completes below.
    const std::uint64_t salt = perturb_salt_;
    const std::function<void(int)> stalled = [&chunk_fn, salt](int c) {
      std::uint64_t state =
          salt ^ (0xc2b2ae3d27d4eb4fULL * (static_cast<std::uint64_t>(c) + 1));
      const std::uint64_t h = splitmix64(state);
      if ((h & 3u) == 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(50 + static_cast<long>((h >> 2) % 400)));
      }
      chunk_fn(c);
    };
    run_region(num_chunks, stalled);
    return;
  }
  run_region(num_chunks, chunk_fn);
}

void ThreadPool::run_region(int num_chunks,
                            const std::function<void(int)>& chunk_fn) {
  auto region = std::make_shared<Region>(num_chunks, chunk_fn);
  {
    std::lock_guard<std::mutex> lock(mu_);
    open_regions_.push_back(region);
  }
  cv_.notify_all();
  // The caller drains its own region, so the region completes even when
  // every worker is busy (or when this is itself a nested region running on
  // a worker thread).
  drain(*region);
  if (!region->finished()) {
    std::unique_lock<std::mutex> lock(region->done_mu);
    region->done_cv.wait(lock, [&region] { return region->finished(); });
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it =
        std::find(open_regions_.begin(), open_regions_.end(), region);
    if (it != open_regions_.end()) open_regions_.erase(it);
  }
  for (auto& err : region->errors) {
    if (err) std::rethrow_exception(err);
  }
}

int ThreadPool::num_range_chunks(int count, int max_chunks) const {
  if (count <= 0) return 0;
  // A few chunks per executor smooths imbalance without shrinking chunks so
  // far that claim traffic dominates. The chunk → range mapping is a pure
  // function of (count, num_chunks): chunk boundaries never depend on timing.
  if (num_threads_ <= 1 || count < kMinParallelItems) return 1;
  int chunks = std::min(count, num_threads_ * 4);
  if (max_chunks > 0) chunks = std::min(chunks, max_chunks);
  if (perturb_salt_ != 0 && chunks > 1) {
    // Chunk-size randomization: resample from [1, 2 * chunks], clamped to
    // the same caps as above. Purely a function of (count, max_chunks,
    // salt) — callers that pre-size per-chunk buffers with this function
    // see exactly the partition parallel_ranges dispatches.
    std::uint64_t state = perturb_salt_ ^
                          (static_cast<std::uint64_t>(count) << 20) ^
                          static_cast<std::uint64_t>(max_chunks);
    const std::uint64_t h = splitmix64(state);
    int jittered = 1 + static_cast<int>(h % (2 * static_cast<std::uint64_t>(chunks)));
    jittered = std::min(jittered, count);
    if (max_chunks > 0) jittered = std::min(jittered, max_chunks);
    chunks = jittered;
  }
  return chunks;
}

void ThreadPool::parallel_ranges(int begin, int end,
                                 const std::function<void(int, int, int)>& fn,
                                 int max_chunks) {
  const int n = end - begin;
  if (n <= 0) return;
  if (num_threads_ <= 1 || n < kMinParallelItems) {
    fn(0, begin, end);
    return;
  }
  const int num_chunks = num_range_chunks(n, max_chunks);
  parallel_chunks(num_chunks, [&](int c) {
    const std::int64_t lo64 =
        begin + static_cast<std::int64_t>(n) * c / num_chunks;
    const std::int64_t hi64 =
        begin + static_cast<std::int64_t>(n) * (c + 1) / num_chunks;
    fn(c, static_cast<int>(lo64), static_cast<int>(hi64));
  });
}

}  // namespace deltacol
