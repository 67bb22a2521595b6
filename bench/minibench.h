// The bench/ harness: a header-only implementation of the subset of the
// google-benchmark API the bench_*.cpp drivers use, vendored so the drivers
// build with no dependency beyond the library (bench_common.h includes it).
//
// Covered API (exactly what bench_*.cpp touches — extend as drivers grow):
//   benchmark::State        — range(i), counters["name"], for (auto _ : state)
//   benchmark::DoNotOptimize
//   benchmark::kMillisecond (and the other TimeUnit tags)
//   BENCHMARK(fn)->Arg(a)->Args({...})->ArgsProduct({{...}, ...})
//                ->Iterations(n)->Unit(u)
//
// Reporting: one line per (benchmark, argument tuple) with mean wall-clock
// time per iteration and the user counters — the same information the
// drivers' CSV sink consumes. When the environment variable
// DELTACOL_BENCH_JSON names a file, every row is additionally written there
// as machine-readable JSON (schema documented in bench/README.md) so perf
// trajectories can be tracked across commits. Not implemented (not needed
// here): threading, fixtures, templated benchmarks, statistical
// repetitions, command-line flags (arguments are ignored).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace benchmark {

enum TimeUnit { kNanosecond, kMicrosecond, kMillisecond, kSecond };

// Prevents the optimizer from deleting a computed-but-unused value.
template <typename T>
inline void DoNotOptimize(T const& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}
template <typename T>
inline void DoNotOptimize(T& value) {
  asm volatile("" : "+r,m"(value) : : "memory");
}

class Counter {
 public:
  Counter(double v = 0.0) : value_(v) {}  // NOLINT: implicit by design
  Counter& operator=(double v) {
    value_ = v;
    return *this;
  }
  operator double() const { return value_; }  // NOLINT: implicit by design

 private:
  double value_ = 0.0;
};

class State {
 public:
  State(std::vector<std::int64_t> args, std::int64_t iterations)
      : args_(std::move(args)), remaining_(iterations) {}

  std::int64_t range(std::size_t i = 0) const { return args_.at(i); }

  std::map<std::string, Counter> counters;

  // Range-for iteration protocol: `for (auto _ : state)` runs the requested
  // iterations and accumulates wall-clock time around them.
  class Iterator {
   public:
    explicit Iterator(State* s) : state_(s) {}
    bool operator!=(const Iterator&) const {
      return state_ != nullptr && state_->keep_running();
    }
    Iterator& operator++() { return *this; }
    // Non-trivial destructor so `for (auto _ : state)` does not trip
    // -Wunused-variable under -Werror builds.
    struct IterationToken {
      ~IterationToken() {}
    };
    IterationToken operator*() const { return {}; }

   private:
    State* state_;
  };
  Iterator begin() { return Iterator(this); }
  Iterator end() { return Iterator(nullptr); }

  double elapsed_seconds() const { return elapsed_seconds_; }
  std::int64_t iterations_run() const { return iterations_run_; }

 private:
  bool keep_running() {
    const auto now = std::chrono::steady_clock::now();
    if (running_) {
      elapsed_seconds_ +=
          std::chrono::duration<double>(now - iter_start_).count();
      ++iterations_run_;
    }
    if (remaining_ <= 0) {
      running_ = false;
      return false;
    }
    --remaining_;
    running_ = true;
    iter_start_ = std::chrono::steady_clock::now();
    return true;
  }

  std::vector<std::int64_t> args_;
  std::int64_t remaining_ = 1;
  std::int64_t iterations_run_ = 0;
  bool running_ = false;
  double elapsed_seconds_ = 0.0;
  std::chrono::steady_clock::time_point iter_start_{};
};

namespace internal {

struct Registration {
  std::string name;
  void (*fn)(State&) = nullptr;
  std::vector<std::vector<std::int64_t>> arg_tuples;  // one run per tuple
  std::int64_t iterations = 1;
  TimeUnit unit = kNanosecond;
};

inline std::vector<Registration*>& registry() {
  static std::vector<Registration*> r;
  return r;
}

inline const char* unit_suffix(TimeUnit u) {
  switch (u) {
    case kNanosecond: return "ns";
    case kMicrosecond: return "us";
    case kMillisecond: return "ms";
    case kSecond: return "s";
  }
  return "?";
}

inline double unit_scale(TimeUnit u) {
  switch (u) {
    case kNanosecond: return 1e9;
    case kMicrosecond: return 1e6;
    case kMillisecond: return 1e3;
    case kSecond: return 1.0;
  }
  return 1.0;
}

}  // namespace internal

// Chainable registration handle, mirroring google-benchmark's Benchmark*.
class Benchmark {
 public:
  Benchmark(const char* name, void (*fn)(State&)) {
    reg_ = new internal::Registration;
    reg_->name = name;
    reg_->fn = fn;
    internal::registry().push_back(reg_);
  }

  Benchmark* Arg(std::int64_t a) {
    reg_->arg_tuples.push_back({a});
    return this;
  }
  Benchmark* Args(const std::vector<std::int64_t>& tuple) {
    reg_->arg_tuples.push_back(tuple);
    return this;
  }
  Benchmark* ArgsProduct(
      const std::vector<std::vector<std::int64_t>>& factors) {
    std::vector<std::vector<std::int64_t>> tuples{{}};
    for (const auto& factor : factors) {
      std::vector<std::vector<std::int64_t>> next;
      for (const auto& prefix : tuples) {
        for (std::int64_t value : factor) {
          auto t = prefix;
          t.push_back(value);
          next.push_back(std::move(t));
        }
      }
      tuples = std::move(next);
    }
    for (auto& t : tuples) reg_->arg_tuples.push_back(std::move(t));
    return this;
  }
  Benchmark* Iterations(std::int64_t n) {
    reg_->iterations = n;
    return this;
  }
  Benchmark* Unit(TimeUnit u) {
    reg_->unit = u;
    return this;
  }

 private:
  internal::Registration* reg_;
};

inline int RunAllBenchmarks() {
  // Rows accumulated for the optional JSON sink (DELTACOL_BENCH_JSON).
  struct JsonRow {
    std::string name;
    std::vector<std::int64_t> args;
    std::int64_t iterations = 0;
    double seconds_per_iteration = 0.0;
    std::map<std::string, double> counters;
  };
  std::vector<JsonRow> json_rows;

  for (internal::Registration* reg : internal::registry()) {
    auto tuples = reg->arg_tuples;
    if (tuples.empty()) tuples.push_back({});
    for (const auto& tuple : tuples) {
      State state(tuple, reg->iterations);
      reg->fn(state);
      std::string label = reg->name;
      for (std::int64_t a : tuple) {
        label += '/';
        label += std::to_string(a);
      }
      const double per_iter =
          state.iterations_run() > 0
              ? state.elapsed_seconds() / static_cast<double>(state.iterations_run())
              : 0.0;
      std::printf("%-56s %12.3f %s", label.c_str(),
                  per_iter * internal::unit_scale(reg->unit),
                  internal::unit_suffix(reg->unit));
      for (const auto& [name, counter] : state.counters) {
        std::printf("  %s=%g", name.c_str(), static_cast<double>(counter));
      }
      std::printf("\n");

      JsonRow row;
      row.name = reg->name;
      row.args = tuple;
      row.iterations = state.iterations_run();
      row.seconds_per_iteration = per_iter;
      for (const auto& [name, counter] : state.counters) {
        row.counters[name] = static_cast<double>(counter);
      }
      json_rows.push_back(std::move(row));
    }
  }

  if (const char* json_path = std::getenv("DELTACOL_BENCH_JSON")) {
    // Benchmark names are C identifiers and counter names are plain ASCII,
    // so no string escaping is needed (documented in bench/README.md).
    if (std::FILE* f = std::fopen(json_path, "w")) {
      std::fprintf(f, "{\n  \"harness\": \"minibench\",\n  \"benchmarks\": [");
      for (std::size_t i = 0; i < json_rows.size(); ++i) {
        const JsonRow& row = json_rows[i];
        std::fprintf(f, "%s\n    {\"name\": \"%s\", \"args\": [",
                     i == 0 ? "" : ",", row.name.c_str());
        for (std::size_t a = 0; a < row.args.size(); ++a) {
          std::fprintf(f, "%s%lld", a == 0 ? "" : ", ",
                       static_cast<long long>(row.args[a]));
        }
        std::fprintf(f, "], \"iterations\": %lld,",
                     static_cast<long long>(row.iterations));
        std::fprintf(f, " \"seconds_per_iteration\": %.9g, \"counters\": {",
                     row.seconds_per_iteration);
        bool first = true;
        for (const auto& [name, value] : row.counters) {
          std::fprintf(f, "%s\"%s\": %.9g", first ? "" : ", ", name.c_str(),
                       value);
          first = false;
        }
        std::fprintf(f, "}}");
      }
      std::fprintf(f, "\n  ]\n}\n");
      std::fclose(f);
    } else {
      std::fprintf(stderr, "minibench: cannot open DELTACOL_BENCH_JSON=%s\n",
                   json_path);
    }
  }
  return 0;
}

}  // namespace benchmark

#define DELTACOL_MB_CONCAT2(a, b) a##b
#define DELTACOL_MB_CONCAT(a, b) DELTACOL_MB_CONCAT2(a, b)
#define BENCHMARK(fn)                                             \
  static ::benchmark::Benchmark* DELTACOL_MB_CONCAT(              \
      deltacol_minibench_reg_, __LINE__) =                        \
      (new ::benchmark::Benchmark(#fn, fn))

// Each bench binary is a single TU including this header, so main() lives
// here.
int main() { return ::benchmark::RunAllBenchmarks(); }
