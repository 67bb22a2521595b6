// Graph serialization, workload metrics, and the shard runtime's cumulative
// volume counters (messages + wire bits) across reuse.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "graph/generators.h"
#include "graph/io.h"
#include "graph/metrics.h"
#include "local/round_ledger.h"
#include "mis/luby_sync.h"
#include "net/rank_loader.h"
#include "runtime/mailbox.h"
#include "util/check.h"
#include "util/rng.h"

namespace deltacol {
namespace {

TEST(Io, EdgeListRoundTrip) {
  Rng rng(5);
  const Graph g = random_graph_max_degree(80, 5, 1.6, rng);
  std::stringstream ss;
  write_edge_list(ss, g);
  const Graph h = read_edge_list(ss);
  EXPECT_EQ(h.num_vertices(), g.num_vertices());
  EXPECT_EQ(h.edge_list(), g.edge_list());
}

TEST(Io, ReadSkipsCommentsBlankLinesAndWhitespace) {
  std::istringstream in(
      "# a comment\n  3\t2 \r\n\n \t\n0 1\r\n# another\n\t1  2 \n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 2);
}

TEST(Io, BadInputIsRejectedNamingTheLine) {
  const std::pair<const char*, const char*> cases[] = {
      {"# only a comment\n", "missing header"},
      {"3 5\n0 1\n", "does not match header"},
      {"3 2\n0 1\n1 2 junk\n", "line 3:"},
      {"3 2 extra\n0 1\n1 2\n", "line 1:"},
      {"3 2\n0 1\n1 2.9\n", "line 3:"},
      {"# c\n3 2\n0 1\n1-2\n", "line 4:"},
      {"3 2\n0 1\n1\n", "line 3:"},
      {"3 2\n0 x1\n1 2\n", "line 2:"},
      {"3 2\n0 1\n1 3\n", "line 3:"},  // endpoint out of range
      {"3 2\n0 1\n2 2\n", "line 3:"},  // self-loop
      {"-3 2\n0 1\n1 2\n", "line 1:"},
      {"3 2\n0 1\n1 99999999999999999999\n", "line 3:"},
  };
  // Both loaders share one parser, so both reject with the same message.
  for (const auto& [text, message] : cases) {
    for (int loader = 0; loader < 2; ++loader) {
      std::istringstream in(text);
      try {
        if (loader == 0) read_edge_list(in);
        if (loader == 1) load_edge_list_slice(in, 2, 1);
        ADD_FAILURE() << "accepted:\n" << text;
      } catch (const ContractViolation& e) {
        EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(Io, DotContainsVerticesAndColors) {
  const Graph g = path_graph(3);
  std::ostringstream os;
  write_dot(os, g, Coloring{0, 1, 0});
  const std::string dot = os.str();
  EXPECT_NE(dot.find("0 -- 1"), std::string::npos);
  EXPECT_NE(dot.find("fillcolor"), std::string::npos);
  EXPECT_NE(dot.find("graph G"), std::string::npos);
}

TEST(Io, FileRoundTrip) {
  const Graph g = petersen_graph();
  const std::string path = "/tmp/deltacol_io_test.edges";
  save_edge_list(path, g);
  const Graph h = load_edge_list(path);
  EXPECT_EQ(h.edge_list(), g.edge_list());
  EXPECT_THROW(load_edge_list("/nonexistent/dir/x.edges"), ContractViolation);
}

TEST(Metrics, GirthKnownValues) {
  EXPECT_EQ(girth(cycle_graph(7)), 7);
  EXPECT_EQ(girth(cycle_graph(4)), 4);
  EXPECT_EQ(girth(clique_graph(4)), 3);
  EXPECT_EQ(girth(petersen_graph()), 5);
  EXPECT_EQ(girth(hypercube_graph(3)), 4);
  EXPECT_EQ(girth(complete_bipartite(2, 3)), 4);
  Rng rng(1);
  EXPECT_EQ(girth(random_tree(50, 3, rng)), -1);
}

TEST(Metrics, DegeneracyKnownValues) {
  EXPECT_EQ(degeneracy(clique_graph(5)).degeneracy, 4);
  EXPECT_EQ(degeneracy(cycle_graph(9)).degeneracy, 2);
  Rng rng(2);
  EXPECT_EQ(degeneracy(random_tree(100, 4, rng)).degeneracy, 1);
  EXPECT_EQ(degeneracy(grid_graph(5, 5, false)).degeneracy, 2);
  // The peeling order is a permutation.
  const auto res = degeneracy(petersen_graph());
  EXPECT_EQ(res.degeneracy, 3);
  std::vector<int> sorted = res.order;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
}

TEST(Metrics, Triangles) {
  EXPECT_EQ(count_triangles(clique_graph(4)), 4);
  EXPECT_EQ(count_triangles(clique_graph(5)), 10);
  EXPECT_EQ(count_triangles(cycle_graph(3)), 1);
  EXPECT_EQ(count_triangles(cycle_graph(6)), 0);
  EXPECT_EQ(count_triangles(petersen_graph()), 0);
}

TEST(Metrics, ClusteringCoefficient) {
  EXPECT_DOUBLE_EQ(clustering_coefficient(clique_graph(5)), 1.0);
  EXPECT_DOUBLE_EQ(clustering_coefficient(cycle_graph(6)), 0.0);
  EXPECT_DOUBLE_EQ(clustering_coefficient(path_graph(4)), 0.0);
}

TEST(Metrics, DegreeHistogram) {
  const auto h = degree_histogram(star_graph(4));
  ASSERT_EQ(h.size(), 5u);
  EXPECT_EQ(h[1], 4);
  EXPECT_EQ(h[4], 1);
}

TEST(Metrics, GirthCertifiesDccFreeBalls) {
  // If girth(g) > 2r + 1 every r-ball is a tree, hence DCC-free: girth is
  // an independent oracle for the DCC machinery.
  const Graph g = petersen_graph();  // girth 5 => 1-balls and 2-balls(edges)
  EXPECT_GT(girth(g), 2 * 1 + 1);
}

TEST(RuntimeMetrics, ByteCountersAccumulateAcrossRounds) {
  // record_round folds per-slot message counts AND wire bits cumulatively:
  // two identical rounds double every counter.
  Rng rng(11);
  const Graph g = random_regular(60, 4, rng);
  ShardRuntime shards(g, 2, nullptr);
  const std::size_t slots = 2 * 2;
  std::vector<std::int64_t> counts(slots, 3);
  std::vector<std::int64_t> bits(slots, 96);  // 3 x 32-bit messages
  shards.record_round(counts, bits);
  EXPECT_EQ(shards.rounds_recorded(), 1);
  EXPECT_EQ(shards.total_messages(), 12);
  EXPECT_EQ(shards.total_bits(), 4 * 96);
  shards.record_round(counts, bits);
  EXPECT_EQ(shards.rounds_recorded(), 2);
  EXPECT_EQ(shards.total_messages(), 24);
  EXPECT_EQ(shards.total_bits(), 2 * 4 * 96);
  EXPECT_EQ(shards.slot_messages(0, 1), 6);
  EXPECT_EQ(shards.slot_bits(0, 1), 192);
  EXPECT_EQ(shards.cross_shard_messages(), 12);
  EXPECT_EQ(shards.cross_shard_bits(), 2 * 192);
}

TEST(RuntimeMetrics, ResetCountersEnablesPerWorkloadAccounting) {
  // One ShardRuntime (whose partition/view construction is O(n + m)) reused
  // across independent workloads: reset_counters() zeroes messages, bits
  // and rounds, and a re-run reproduces the first run's counters exactly —
  // the counters are pure functions of the executed workload.
  Rng gen(21);
  const Graph g = random_regular(100, 4, gen);
  ShardRuntime shards(g, 4, nullptr);

  auto run_luby = [&](std::uint64_t seed) {
    Rng rng(seed);
    RoundLedger ledger;
    luby_mis_message_passing(g, rng, ledger, "mis", nullptr, &shards);
  };
  run_luby(1);
  const std::int64_t msgs1 = shards.total_messages();
  const std::int64_t bits1 = shards.total_bits();
  const std::int64_t rounds1 = shards.rounds_recorded();
  ASSERT_GT(msgs1, 0);
  EXPECT_EQ(bits1, kLubyMessageBits * msgs1);

  // Without a reset the counters keep accumulating (cumulative contract).
  run_luby(1);
  EXPECT_EQ(shards.total_messages(), 2 * msgs1);
  EXPECT_EQ(shards.total_bits(), 2 * bits1);
  EXPECT_EQ(shards.rounds_recorded(), 2 * rounds1);

  // reset_counters(): back to zero, and the next workload accounts cleanly.
  shards.reset_counters();
  EXPECT_EQ(shards.total_messages(), 0);
  EXPECT_EQ(shards.total_bits(), 0);
  EXPECT_EQ(shards.rounds_recorded(), 0);
  EXPECT_EQ(shards.cross_shard_messages(), 0);
  EXPECT_EQ(shards.cross_shard_bits(), 0);
  run_luby(1);
  EXPECT_EQ(shards.total_messages(), msgs1);
  EXPECT_EQ(shards.total_bits(), bits1);
  EXPECT_EQ(shards.rounds_recorded(), rounds1);
}

}  // namespace
}  // namespace deltacol
