// perfbench — the measuring program of the repository benchmark
// (perfbench/README.md). run.py builds it, then runs it twice per
// measurement:
//
//   perfbench gen --workload W --seed N [--toy] --out FILE
//       writes the workload's seeded input graph as an edge list;
//   perfbench run --workload W --seed N [--toy] --graph FILE
//                 --seconds S --trace 0|1 --out-dir DIR [--revision R]
//       loads the edge list and measures. With --trace 0 it prints the
//       end-to-end metrics, with --trace 1 the per-layer breakdown.
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics. Every delta_color output is re-validated,
// T = 1 and T = nproc must agree on coloring and rounds, and every rank's
// Luby MIS must equal the serial oracle; any throw counts as a failure.
#include <malloc.h>
#include <sys/resource.h>
#include <sys/socket.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/api.h"
#include "gen.h"
#include "graph/io.h"
#include "graph/renumber.h"
#include "mis/luby_sync.h"
#include "mis/mis.h"
#include "net/rank_loader.h"
#include "net/socket_transport.h"
#include "replay.h"
#include "runtime/mailbox.h"
#include "runtime/thread_pool.h"
#include "trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using namespace deltacol;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string num(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

// Setup is repeated at least kSetupReps times, and until kSetupSeconds
// have passed (at most kSetupMaxReps); setup_s is the median.
constexpr int kSetupReps = 3;
constexpr int kSetupMaxReps = 15;
constexpr double kSetupSeconds = 3.0;

struct Args {
  std::string mode, workload, graph, out, out_dir = ".", revision = "unknown";
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool toy = false;
};

EdgeList generate(const Args& a) {
  if (a.workload == "regular8") {
    return random_regular(a.toy ? 2000 : 200000, 8, a.seed);
  }
  if (a.workload == "torus-scrambled") {
    const int side = a.toy ? 45 : 316;
    return scrambled_torus(side, side, a.seed);
  }
  throw std::invalid_argument("unknown workload: " + a.workload);
}

// --- the two-rank distributed setup and Luby run ---------------------------

// Two SocketTransport ranks in this process over one socketpair: cluster
// partition, owner-routed exchange, each rank loading only its slice and
// fetching its halo adjacency over the wire.
struct TwoRanks {
  VertexPartition part;
  std::array<std::unique_ptr<ShardRuntime>, 2> rt;
  double partition_s = 0, transport_s = 0, total_s = 0;
  std::array<double, 2> slice_load_s{}, halo_exchange_s{};

  SocketTransport& socket(int r) const {
    return static_cast<SocketTransport&>(rt[static_cast<std::size_t>(r)]->transport());
  }
};

// Runs body(rank) on one thread per rank and rethrows the first failure
// after both joined.
void on_both_ranks(const std::function<void(int)>& body) {
  std::array<std::exception_ptr, 2> errors;
  std::vector<std::thread> threads;
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      try {
        body(r);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

std::unique_ptr<TwoRanks> setup_two_ranks(const Graph& g, const std::string& path) {
  auto out = std::make_unique<TwoRanks>();
  const auto t0 = Clock::now();
  out->part = make_partition(g, 2, PartitionStrategy::kCluster, nullptr);
  out->partition_s = since(t0);
  const auto t1 = Clock::now();
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    throw std::runtime_error("socketpair failed");
  }
  const std::array<std::vector<int>, 2> fds{std::vector<int>{-1, sv[0]},
                                            std::vector<int>{sv[1], -1}};
  for (int r = 0; r < 2; ++r) {
    auto& rt = out->rt[static_cast<std::size_t>(r)];
    rt = std::make_unique<ShardRuntime>(
        g, out->part, nullptr,
        std::make_unique<SocketTransport>(r, 2, fds[static_cast<std::size_t>(r)]));
    rt->set_exchange_policy(ExchangePolicy::kOwnerRouted);
  }
  out->transport_s = since(t1);
  on_both_ranks([&](int r) {
    const auto s0 = Clock::now();
    const CsrSlice slice = load_edge_list_slice(path, out->part, r);
    out->slice_load_s[static_cast<std::size_t>(r)] = since(s0);
    const auto s1 = Clock::now();
    const auto halo = exchange_halo_adjacency(out->socket(r), slice);
    out->halo_exchange_s[static_cast<std::size_t>(r)] = since(s1);
    if (halo.size() != halo_of(slice).size()) {
      throw std::runtime_error("halo exchange returned the wrong vertex count");
    }
  });
  out->total_s = since(t0);
  return out;
}

struct LubyRun {
  std::array<double, 2> rank_s{};
  std::array<std::int64_t, 2> rounds{};
  std::array<std::vector<bool>, 2> mis;
  std::int64_t wire_bytes = 0;
  std::int64_t frames = 0;
};

LubyRun luby_two_ranks(const Graph& g, TwoRanks& ranks, std::uint64_t seed) {
  LubyRun out;
  std::array<std::int64_t, 2> bytes0{}, frames0{};
  for (int r = 0; r < 2; ++r) {
    ranks.rt[static_cast<std::size_t>(r)]->reset_counters();
    bytes0[static_cast<std::size_t>(r)] = ranks.socket(r).wire_bytes_sent();
    frames0[static_cast<std::size_t>(r)] = ranks.socket(r).frames_sent();
  }
  on_both_ranks([&](int r) {
    const auto i = static_cast<std::size_t>(r);
    Rng rng(seed);
    RoundLedger ledger;
    const auto t0 = Clock::now();
    out.mis[i] = luby_mis_message_passing(g, rng, ledger, "luby", nullptr,
                                          ranks.rt[i].get());
    out.rank_s[i] = since(t0);
    out.rounds[i] = ledger.total();
  });
  for (int r = 0; r < 2; ++r) {
    const auto i = static_cast<std::size_t>(r);
    out.wire_bytes += ranks.socket(r).wire_bytes_sent() - bytes0[i];
    out.frames += ranks.socket(r).frames_sent() - frames0[i];
  }
  return out;
}

// --- the measuring run -----------------------------------------------------

// Each run rotates its algorithm calls through this many seeds and reports
// rounds and wire bytes as means over all of them: one seed's rounds differ
// by whole Luby iterations, their mean over several seeds is steadier.
constexpr int kSeedsPerRun = 4;
// Each (algorithm, T) slot of a cycle repeats its call for at least this
// long, so cheap calls collect as many samples as expensive ones.
constexpr double kSlotSeconds = 0.5;

struct AlgSpec {
  const char* name;
  Algorithm alg;
};

const AlgSpec kColoringAlgs[] = {{"det", Algorithm::kDeterministic},
                                 {"rand_large", Algorithm::kRandomizedLarge}};

// The first result for one (algorithm, seed): every later call with that
// seed must reproduce it exactly, at any thread count.
struct ColorRef {
  std::int64_t rounds = 0;
  Coloring coloring;
};

// The serial Luby oracle for one seed, plus the wire bytes of the first
// two-rank run with it (which every later run must repeat exactly).
struct LubyRef {
  std::vector<bool> mis;
  std::int64_t rounds = 0;
  std::int64_t wire_bytes = -1;
};

class Bench {
 public:
  explicit Bench(const Args& a) : a_(a), nproc_(ThreadPool::resolve_num_threads(0)) {}

  int run();

 private:
  std::uint64_t call_seed(int i) const { return a_.seed * kSeedsPerRun + static_cast<std::uint64_t>(i); }
  void setup();
  void cycle(bool traced);
  void color_call(const AlgSpec& spec, int k, int seed_idx, bool traced);
  void luby_call(int seed_idx, bool traced);
  void report_end_to_end();
  void report_per_layer();
  void print_result(const std::map<std::string, std::pair<double, std::string>>& metrics);

  // Runs one checked operation; a throw or a false return is a failure.
  void attempt(const std::string& what, const std::function<bool()>& op) {
    ++attempted_;
    bool ok = false;
    std::string why;
    try {
      ok = op();
    } catch (const std::exception& e) {
      why = std::string(": ") + e.what();
    }
    if (!ok) {
      ++failed_;
      std::cout << "# FAILED " << what << why << "\n";
    }
    release_free_memory();
  }
  void sample(const std::string& name, double v) { samples_[name].push_back(v); }
  // Hands freed memory back to the system between calls, so the peak
  // resident set is the largest single call's, not leftovers of earlier
  // calls parked in per-thread malloc arenas.
  static void release_free_memory() { malloc_trim(0); }
  // Mean over the seeds whose calls succeeded (all of them in a correct run).
  double mean_rounds(const std::string& alg) const {
    double sum = 0;
    int seeds = 0;
    for (int i = 0; i < kSeedsPerRun; ++i) {
      if (const auto it = color_refs_.find({alg, i}); it != color_refs_.end()) {
        sum += static_cast<double>(it->second.rounds);
        ++seeds;
      }
    }
    return seeds > 0 ? sum / seeds : 0.0;
  }

  const Args& a_;
  const int nproc_;
  std::unique_ptr<Graph> g_;
  std::unique_ptr<TwoRanks> ranks_;
  std::array<LubyRef, kSeedsPerRun> luby_refs_;
  std::map<std::pair<std::string, int>, ColorRef> color_refs_;
  std::map<std::string, int> rotation_;  // next seed index per metric
  std::unique_ptr<ThreadPool> inproc_pool_;
  std::unique_ptr<ShardRuntime> inproc_;
  Tracer tracer_;
  int next_call_ = 0;
  int cycles_ = 0;
  std::int64_t attempted_ = 0, failed_ = 0;
  std::map<std::string, std::vector<double>> samples_;
  // Traced run only.
  std::map<std::string, double> counts_;
  std::vector<std::string> invalid_;
  std::map<std::string, std::int64_t> ledger_rounds_;
};

void Bench::setup() {
  const auto start = Clock::now();
  for (int rep = 0; rep < kSetupMaxReps && (rep < kSetupReps || since(start) < kSetupSeconds);
       ++rep) {
    const double t0 = tracer_.now();
    const auto c0 = Clock::now();
    auto g = std::make_unique<Graph>(load_edge_list(a_.graph));
    const double load_s = since(c0);
    auto ranks = setup_two_ranks(*g, a_.graph);
    sample("setup_s", load_s + ranks->total_s);
    sample("graph.load_s", load_s);
    sample("graph.partition_s", ranks->partition_s);
    sample("net.slice_load_s", std::max(ranks->slice_load_s[0], ranks->slice_load_s[1]));
    sample("net.halo_exchange_s",
           std::max(ranks->halo_exchange_s[0], ranks->halo_exchange_s[1]));
    if (a_.trace) {
      const int call = next_call_++;
      const int root = tracer_.add("setup", -1, call, 1, t0, tracer_.now());
      tracer_.add("graph.load", root, call, 1, t0, t0 + load_s);
      double t = t0 + load_s;
      tracer_.add("graph.partition", root, call, 1, t, t + ranks->partition_s);
      t += ranks->partition_s;
      tracer_.add("net.transport", root, call, 1, t, t + ranks->transport_s);
      t += ranks->transport_s;
      for (int r = 0; r < 2; ++r) {
        const auto i = static_cast<std::size_t>(r);
        const double slice_end = t + ranks->slice_load_s[i];
        const int rank = tracer_.add("net.rank" + std::to_string(r), root, call, 1, t,
                                     slice_end + ranks->halo_exchange_s[i]);
        tracer_.add("net.slice_load", rank, call, 1, t, slice_end);
        tracer_.add("net.halo_exchange", rank, call, 1, slice_end, tracer_.span(rank).end);
      }
    }
    // The previous runtimes refer to the previous graph: replace them first.
    ranks_ = std::move(ranks);
    g_ = std::move(g);
  }
  // The serial Luby runs are the oracles every rank's MIS must equal.
  for (int i = 0; i < kSeedsPerRun; ++i) {
    Rng rng(call_seed(i));
    RoundLedger ledger;
    LubyRef& ref = luby_refs_[static_cast<std::size_t>(i)];
    ref.mis = luby_mis_message_passing(*g_, rng, ledger, "luby");
    ref.rounds = ledger.total();
    if (!is_mis(*g_, ref.mis)) throw std::runtime_error("serial Luby oracle is not an MIS");
  }
  if (a_.trace) {
    // Two executors, like the two rank threads, so the difference to the
    // socket run is the wire.
    inproc_pool_ = std::make_unique<ThreadPool>(2);
    inproc_ = std::make_unique<ShardRuntime>(*g_, ranks_->part, inproc_pool_.get());
    inproc_->set_exchange_policy(ExchangePolicy::kOwnerRouted);
  }
}

void Bench::color_call(const AlgSpec& spec, int k, int seed_idx, bool traced) {
  const std::string name = spec.name;
  const int threads = k == 0 ? 1 : nproc_;
  const std::string metric = name + (k == 0 ? ".color_s" : ".color_s_par");
  DeltaColoringOptions opt;
  opt.seed = call_seed(seed_idx);
  opt.num_threads = threads;
  const int call = next_call_++;
  attempt(name + " T=" + std::to_string(threads) + " seed=" + std::to_string(opt.seed), [&] {
    const double t0 = tracer_.now();
    const auto c0 = Clock::now();
    const DeltaColoringResult r = delta_color(*g_, spec.alg, opt);
    const double secs = since(c0);
    validate_delta_coloring(*g_, r.coloring, r.delta);
    if (r.delta != g_->max_degree()) return false;
    const auto [ref, fresh] =
        color_refs_.try_emplace({name, seed_idx}, ColorRef{r.ledger.total(), r.coloring});
    if (!fresh && (ref->second.rounds != r.ledger.total() || ref->second.coloring != r.coloring)) {
      std::cout << "# " << name << ": T=" << threads << " differs from an earlier call\n";
      return false;
    }
    if (!a_.trace) {
      sample(metric, secs);
      return true;
    }
    counts_["core.retries"] += r.stats.retries_used;
    counts_["core.repairs"] += r.stats.repairs;
    if (!traced) {
      sample("untraced." + metric, secs);
      return true;
    }
    const int span = tracer_.add("delta_color." + name, -1, call, threads, t0, t0 + secs);
    sample("traced." + metric, secs);
    const ReplayOutcome rep = replay(*g_, spec.alg, opt, r, tracer_, span, call);
    if (!rep.consistent) {
      invalid_.push_back(name + " T=" + std::to_string(threads) + ": " + rep.mismatch);
      return true;  // the call itself was correct; its breakdown is not
    }
    if (k != 0) return true;
    sample("core." + name + "_self_s", secs - rep.children_s);
    if (seed_idx != 0) return true;
    counts_["coloring.schedule_rounds"] = rep.schedule_rounds;
    if (spec.alg == Algorithm::kDeterministic) {
      counts_["mis.ruling_set_picks"] = rep.ruling_set_picks;
      counts_["brooks.fixes"] = rep.brooks_fixes;
    } else {
      counts_["dcc.dccs_found"] = rep.dccs_found;
    }
    for (const auto& pt : r.ledger.breakdown()) {
      std::string key = "ledger." + pt.phase;
      std::replace(key.begin(), key.end(), '/', '.');
      ledger_rounds_[key] = pt.rounds;
    }
    return true;
  });
}

void Bench::luby_call(int seed_idx, bool traced) {
  LubyRef& ref = luby_refs_[static_cast<std::size_t>(seed_idx)];
  attempt("luby 2-rank seed=" + std::to_string(call_seed(seed_idx)), [&] {
    const double t0 = tracer_.now();
    const LubyRun run = luby_two_ranks(*g_, *ranks_, call_seed(seed_idx));
    for (int r = 0; r < 2; ++r) {
      const auto i = static_cast<std::size_t>(r);
      if (run.mis[i] != ref.mis || !is_mis(*g_, run.mis[i]) || run.rounds[i] != ref.rounds) {
        std::cout << "# luby rank " << r << " disagrees with the serial oracle\n";
        return false;
      }
    }
    if (ref.wire_bytes < 0) ref.wire_bytes = run.wire_bytes;
    if (run.wire_bytes != ref.wire_bytes) {
      std::cout << "# luby wire bytes differ between runs of one seed\n";
      return false;
    }
    const double slowest = std::max(run.rank_s[0], run.rank_s[1]);
    if (!a_.trace) {
      sample("luby.rank_s", slowest);
      return true;
    }
    if (!traced) return true;
    const int call = next_call_++;
    const int root = tracer_.add("luby.2rank", -1, call, 2, t0, t0 + slowest);
    for (int r = 0; r < 2; ++r) {
      tracer_.add("luby.rank" + std::to_string(r), root, call, 1, t0,
                  t0 + run.rank_s[static_cast<std::size_t>(r)]);
    }
    sample("luby.rank_s", slowest);
    sample("net.rank_skew_s", std::abs(run.rank_s[0] - run.rank_s[1]));
    if (seed_idx == 0) counts_["net.frames"] = static_cast<double>(run.frames);

    // The same call over an in-process ShardRuntime (same partition, two
    // executors, no wire), and over the serial engine (no shards, no pool).
    Rng rng(call_seed(seed_idx));
    RoundLedger ledger;
    inproc_->reset_counters();
    std::vector<bool> mis;
    int span = 0;
    {
      const Tracer::Scope s(tracer_, "runtime.luby_inproc", -1, call, 1);
      span = s.id();
      mis = luby_mis_message_passing(*g_, rng, ledger, "luby", inproc_pool_.get(),
                                     inproc_.get());
    }
    sample("runtime.luby_inproc_s", tracer_.span(span).seconds());
    if (seed_idx == 0) {
      counts_["runtime.envelopes"] = static_cast<double>(inproc_->total_messages());
      counts_["runtime.cross_bits"] = static_cast<double>(inproc_->cross_shard_bits());
    }
    if (mis != ref.mis) return false;
    Rng rng2(call_seed(seed_idx));
    RoundLedger ledger2;
    {
      const Tracer::Scope s(tracer_, "local.luby_serial", -1, call, 1);
      span = s.id();
      mis = luby_mis_message_passing(*g_, rng2, ledger2, "luby");
    }
    sample("local.luby_serial_s", tracer_.span(span).seconds());
    return mis == ref.mis;
  });
}

void Bench::cycle(bool traced) {
  const auto slot = [](const std::function<void()>& call) {
    const auto t0 = Clock::now();
    do call();
    while (since(t0) < kSlotSeconds);
  };
  for (const AlgSpec& spec : kColoringAlgs) {
    for (int k = 0; k < 2; ++k) {
      int& next = rotation_[std::string(spec.name) + std::to_string(k)];
      slot([&] { color_call(spec, k, next++ % kSeedsPerRun, traced); });
    }
  }
  int& next = rotation_["luby"];
  slot([&] { luby_call(next++ % kSeedsPerRun, traced); });
}

int Bench::run() {
  setup();
  const auto t0 = Clock::now();
  // The traced run alternates traced and untraced cycles (tracing overhead
  // = traced minus untraced medians), so it needs at least two.
  do {
    cycle(a_.trace && cycles_ % 2 == 0);
    ++cycles_;
  } while (since(t0) < a_.seconds || (a_.trace && cycles_ < 2));

  if (a_.trace) {
    // Theorem 1's algorithm, measured where its r = Theta(log log n) balls
    // stay small (Delta = 4; on 8-regular graphs one call takes minutes).
    // Reported for reading and checked like every other call.
    if (g_->max_degree() <= 4) {
      const AlgSpec small{"rand_small", Algorithm::kRandomizedSmall};
      for (int k = 0; k < 2; ++k) color_call(small, k, 0, false);
    }
    report_per_layer();
    return 0;
  }
  // Rounds and wire bytes are means over every seed of the rotation: run
  // the seeds a short loop did not reach.
  for (const AlgSpec& spec : kColoringAlgs) {
    for (int i = 0; i < kSeedsPerRun; ++i) {
      if (!color_refs_.contains({spec.name, i})) color_call(spec, 0, i, false);
    }
  }
  for (int i = 0; i < kSeedsPerRun; ++i) {
    if (luby_refs_[static_cast<std::size_t>(i)].wire_bytes < 0) luby_call(i, false);
  }
  report_end_to_end();
  return 0;
}

void Bench::print_result(const std::map<std::string, std::pair<double, std::string>>& metrics) {
  std::ostringstream meta;
  meta << "{\"workload\": \"" << json_escape(a_.workload) << "\", \"seed\": " << a_.seed
       << ", \"toy\": " << (a_.toy ? "true" : "false") << ", \"n\": " << g_->num_vertices()
       << ", \"m\": " << g_->num_edges() << ", \"delta\": " << g_->max_degree()
       << ", \"nproc\": " << nproc_ << ", \"seconds\": " << num(a_.seconds)
       << ", \"cycles\": " << cycles_ << ", \"trace\": " << (a_.trace ? 1 : 0)
       << ", \"revision\": \"" << json_escape(a_.revision) << "\", \"build_type\": \""
       << PERFBENCH_BUILD_TYPE << "\", \"compiler\": \"" << json_escape(PERFBENCH_COMPILER)
       << "\", \"calls\": {";
  bool first = true;
  for (const auto& [name, v] : samples_) {
    meta << (first ? "" : ", ") << "\"" << name << "\": " << v.size();
    first = false;
  }
  meta << "}}";
  std::cout << "meta " << meta.str() << "\n";
  std::cout << "failed_frac " << num(attempted_ > 0 ? static_cast<double>(failed_) /
                                                          static_cast<double>(attempted_)
                                                    : 0.0)
            << " ratio (" << failed_ << " of " << attempted_ << " checked calls)\n";

  const bool valid = invalid_.empty();
  for (const auto& why : invalid_) std::cout << "per-layer numbers invalid: " << why << "\n";
  const bool correct = failed_ == 0 && valid;
  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted_
     << ", \"failed\": " << failed_ << ", \"metrics\": {";
  first = true;
  if (valid) {
    for (const auto& [name, vu] : metrics) {
      js << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << num(vu.first)
         << ", \"unit\": \"" << vu.second << "\"}";
      first = false;
    }
  }
  js << "}}";
  std::cout << js.str() << std::endl;
}

void Bench::report_end_to_end() {
  // delta_color timings are the fastest call of the run: on a shared host,
  // stolen CPU time stretches T = nproc calls in bursts, and the fastest
  // call moves far less with them than the median, which is printed beside
  // it. The two-rank Luby run has a rare fast mode (lucky thread placement)
  // that makes its fastest call erratic, so luby.rank_s stays a median, as
  // does setup_s.
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::map<std::string, std::pair<double, std::string>> m;
  m["setup_s"] = {median(samples_["setup_s"]), "s"};
  m["peak_rss_mb"] = {static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB"};
  for (const AlgSpec& spec : kColoringAlgs) {
    const std::string a = spec.name;
    m[a + ".color_s"] = {fastest(samples_[a + ".color_s"]), "s"};
    m[a + ".color_s_par"] = {fastest(samples_[a + ".color_s_par"]), "s"};
    m[a + ".rounds"] = {mean_rounds(a), "rounds"};
  }
  double luby_rounds = 0, wire_bytes = 0;
  int luby_seeds = 0;
  for (const LubyRef& ref : luby_refs_) {
    if (ref.wire_bytes < 0) continue;  // every run of this seed failed
    luby_rounds += static_cast<double>(ref.rounds);
    wire_bytes += static_cast<double>(ref.wire_bytes);
    ++luby_seeds;
  }
  if (luby_seeds > 0) {
    luby_rounds /= luby_seeds;
    wire_bytes /= luby_seeds;
  }
  m["luby.rank_s"] = {median(samples_["luby.rank_s"]), "s"};
  m["luby.wire_bytes"] = {wire_bytes, "bytes"};
  m["luby.rounds"] = {luby_rounds, "rounds"};
  for (const auto& [name, vu] : m) {
    std::cout << "metric " << name << " " << num(vu.first) << " " << vu.second;
    const auto it = samples_.find(name);
    if (it != samples_.end()) {
      const auto [lo, hi] = std::minmax_element(it->second.begin(), it->second.end());
      std::cout << " calls=" << it->second.size() << " min=" << num(*lo)
                << " median=" << num(median(it->second)) << " max=" << num(*hi);
    } else if (name.ends_with("rounds") || name.ends_with("bytes")) {
      std::cout << " mean over " << kSeedsPerRun << " seeds";
    }
    std::cout << "\n";
  }
  print_result(m);
}

// Ledger phases reported by name; anything else lands in ledger.other.
const char* const kLedgerPhases[] = {
    "ledger.linial",             "ledger.color-reduction",
    "ledger.det.ruling-set",
    "ledger.det.layering",       "ledger.det.layer-coloring",
    "ledger.det.base-layer",     "ledger.rand.1-dcc-detect",
    "ledger.rand.2-gdcc-ruling", "ledger.rand.3-b-layers",
    "ledger.rand.4-marking",     "ledger.rand.5-c-layers",
    "ledger.rand.6-small-components", "ledger.rand.7-c-coloring",
    "ledger.rand.8-b-coloring",  "ledger.rand.9-b0-coloring"};

void Bench::report_per_layer() {
  // Span medians by (name, pool size).
  std::map<std::pair<std::string, int>, std::vector<double>> by_name;
  for (const Span& s : tracer_.spans()) by_name[{s.name, s.threads}].push_back(s.seconds());
  const auto span_median = [&](const std::string& name, int threads) {
    return median(by_name[{name, threads}]);
  };
  std::map<std::string, std::pair<double, std::string>> m;
  const auto secs = [&](const std::string& metric, double v) { m[metric] = {v, "s"}; };
  const auto count = [&](const std::string& metric, const char* unit) {
    m[metric] = {counts_[metric], unit};
  };

  secs("graph.load_s", median(samples_["graph.load_s"]));
  secs("graph.partition_s", median(samples_["graph.partition_s"]));
  secs("graph.components_s", span_median("graph.components", 1));
  secs("graph.induced_copy_s", span_median("graph.induced_copy", 1));
  secs("coloring.schedule_s", span_median("coloring.schedule", 1));
  secs("coloring.schedule_s_par", span_median("coloring.schedule", nproc_));
  count("coloring.schedule_rounds", "rounds");
  secs("coloring.validate_s", span_median("coloring.validate", 1));
  secs("mis.ruling_set_s", span_median("mis.ruling_set", 1));
  secs("mis.ruling_set_s_par", span_median("mis.ruling_set", nproc_));
  count("mis.ruling_set_picks", "count");
  secs("mis.gdcc_luby_s", span_median("mis.gdcc_luby", 1));
  secs("dcc.detect_s", span_median("dcc.detect", 1));
  secs("dcc.detect_s_par", span_median("dcc.detect", nproc_));
  count("dcc.dccs_found", "count");
  secs("dcc.gdcc_build_s", span_median("dcc.gdcc_build", 1));
  secs("core.build_layers_s", span_median("core.build_layers", 1));
  secs("core.b_layers_s", span_median("core.b_layers", 1));
  secs("core.layer_coloring_s", span_median("core.layer_coloring", 1));
  secs("core.det_self_s", median(samples_["core.det_self_s"]));
  secs("core.rand_large_self_s", median(samples_["core.rand_large_self_s"]));
  count("core.retries", "count");
  count("core.repairs", "count");
  secs("brooks.fixes_s", span_median("brooks.fixes", 1));
  count("brooks.fixes", "count");
  secs("local.luby_serial_s", median(samples_["local.luby_serial_s"]));
  secs("runtime.luby_inproc_s", median(samples_["runtime.luby_inproc_s"]));
  count("runtime.envelopes", "count");
  count("runtime.cross_bits", "bits");
  secs("net.socket_overhead_s",
       median(samples_["luby.rank_s"]) - median(samples_["runtime.luby_inproc_s"]));
  count("net.frames", "count");
  secs("net.rank_skew_s", median(samples_["net.rank_skew_s"]));
  secs("net.slice_load_s", median(samples_["net.slice_load_s"]));
  secs("net.halo_exchange_s", median(samples_["net.halo_exchange_s"]));

  double other = 0;
  for (const auto& [phase, rounds] : ledger_rounds_) {
    if (std::find(std::begin(kLedgerPhases), std::end(kLedgerPhases), phase) ==
        std::end(kLedgerPhases)) {
      other += static_cast<double>(rounds);
    }
  }
  for (const char* phase : kLedgerPhases) {
    m[phase] = {static_cast<double>(ledger_rounds_[phase]), "rounds"};
  }
  m["ledger.other"] = {other, "rounds"};

  double overhead = 0;
  for (const char* alg : {"det", "rand_large"}) {
    for (const char* suffix : {".color_s", ".color_s_par"}) {
      const std::string metric = std::string(alg) + suffix;
      overhead += median(samples_["traced." + metric]) - median(samples_["untraced." + metric]);
    }
  }
  secs("trace.overhead_s", overhead);

  for (const auto& [name, vu] : m) {
    std::cout << "layer " << name << " " << num(vu.first) << " " << vu.second << "\n";
  }
  // Reported for reading only (see Bench::run): not part of the JSON.
  if (const auto it = color_refs_.find({"rand_small", 0}); it != color_refs_.end()) {
    std::cout << "info rand_small.color_s " << num(median(samples_["untraced.rand_small.color_s"]))
              << " s calls=1\ninfo rand_small.color_s_par "
              << num(median(samples_["untraced.rand_small.color_s_par"]))
              << " s calls=1\ninfo rand_small.rounds " << it->second.rounds << " rounds\n";
  }
  const std::string path =
      a_.out_dir + "/trace-" + a_.workload + "-" + std::to_string(a_.seed) + ".json";
  tracer_.write_json(path);
  std::cout << "spans " << tracer_.spans().size() << " written to " << path << "\n";
  print_result(m);
}

Args parse(int argc, char** argv) {
  Args a;
  if (argc < 2) throw std::invalid_argument("usage: perfbench gen|run --workload W ...");
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--toy") {
      a.toy = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::stoull(v);
    else if (flag == "--seconds") a.seconds = std::stod(v);
    else if (flag == "--trace") a.trace = v == "1";
    else if (flag == "--graph") a.graph = v;
    else if (flag == "--out") a.out = v;
    else if (flag == "--out-dir") a.out_dir = v;
    else if (flag == "--revision") a.revision = v;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  return a;
}

}  // namespace

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << s.id << ", \"parent\": " << s.parent << ", \"call\": " << s.call
        << ", \"threads\": " << s.threads << ", \"name\": \"" << json_escape(s.name)
        << "\", \"start\": " << num(s.start) << ", \"end\": " << num(s.end) << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args a = perfbench::parse(argc, argv);
    if (a.mode == "gen") {
      perfbench::write_edge_list(perfbench::generate(a), a.out);
      return 0;
    }
    if (a.mode == "run") {
      perfbench::Bench bench(a);
      return bench.run();
    }
    throw std::invalid_argument("unknown mode " + a.mode);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
