#include "net/rank_loader.h"

#include <algorithm>
#include <fstream>
#include <string>
#include <utility>

#include "graph/io.h"
#include "net/wire_codec.h"
#include "util/check.h"

namespace deltacol {

namespace {

CsrSlice slice_from_rows(int n_global, int lo, int hi,
                         std::vector<std::vector<int>> rows) {
  CsrSlice slice;
  slice.n_global = n_global;
  slice.lo = lo;
  slice.hi = hi;
  slice.offsets.assign(1, 0);
  slice.offsets.reserve(static_cast<std::size_t>(hi - lo) + 1);
  for (auto& row : rows) {
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    slice.targets.insert(slice.targets.end(), row.begin(), row.end());
    slice.offsets.push_back(static_cast<std::int64_t>(slice.targets.size()));
  }
  return slice;
}

}  // namespace

CsrSlice slice_of(const Graph& g, const VertexPartition& part, int shard) {
  DC_REQUIRE(part.num_vertices() == g.num_vertices(),
             "partition was built for a different graph");
  DC_REQUIRE(shard >= 0 && shard < part.num_shards(), "shard out of range");
  const int lo = part.begin(shard);
  const int hi = part.end(shard);
  std::vector<std::vector<int>> rows(static_cast<std::size_t>(hi - lo));
  for (int p = lo; p < hi; ++p) {
    const int v = part.vertex_at(p);
    auto& row = rows[static_cast<std::size_t>(p - lo)];
    const auto nbrs = g.neighbors(v);
    row.reserve(nbrs.size());
    for (int u : nbrs) row.push_back(part.position_of(u));
  }
  // slice_from_rows re-sorts: original-id adjacency order is not layout
  // order under a renumbered partition.
  return slice_from_rows(g.num_vertices(), lo, hi, std::move(rows));
}

namespace {

// Shared streaming core: parses through graph/io.h's scan_edge_list,
// obtains the partition from make_part(n) at the header, then keeps only
// the layout rows owned by `shard`.
template <typename MakePart>
CsrSlice stream_slice(std::istream& in, int shard, MakePart&& make_part) {
  int n = 0;
  int lo = 0, hi = 0;
  VertexPartition part;
  std::vector<std::vector<int>> rows;
  scan_edge_list(
      in,
      [&](int header_n, std::int64_t) {
        n = header_n;
        part = make_part(n);
        DC_REQUIRE(shard >= 0 && shard < part.num_shards(),
                   "shard out of range");
        lo = part.begin(shard);
        hi = part.end(shard);
        rows.resize(static_cast<std::size_t>(hi - lo));
      },
      [&](int u, int v) {
        // Relabel into layout space (identity when contiguous) and keep
        // only what this rank owns; everything else streams past.
        const int pu = part.position_of(u);
        const int pv = part.position_of(v);
        if (pu >= lo && pu < hi) {
          rows[static_cast<std::size_t>(pu - lo)].push_back(pv);
        }
        if (pv >= lo && pv < hi) {
          rows[static_cast<std::size_t>(pv - lo)].push_back(pu);
        }
      });
  return slice_from_rows(n, lo, hi, std::move(rows));
}

}  // namespace

CsrSlice load_edge_list_slice(std::istream& in, int num_shards, int shard) {
  DC_REQUIRE(num_shards >= 1, "need at least one shard");
  return stream_slice(in, shard, [num_shards](int n) {
    return VertexPartition::contiguous(n, num_shards);
  });
}

CsrSlice load_edge_list_slice(const std::string& path, int num_shards,
                              int shard) {
  std::ifstream in(path);
  DC_REQUIRE(in.good(), "cannot open file for reading: " + path);
  return load_edge_list_slice(in, num_shards, shard);
}

CsrSlice load_edge_list_slice(std::istream& in, const VertexPartition& part,
                              int shard) {
  return stream_slice(in, shard, [&part](int n) {
    DC_REQUIRE(part.num_vertices() == n,
               "partition does not span the edge-list graph");
    return part;
  });
}

CsrSlice load_edge_list_slice(const std::string& path,
                              const VertexPartition& part, int shard) {
  std::ifstream in(path);
  DC_REQUIRE(in.good(), "cannot open file for reading: " + path);
  return load_edge_list_slice(in, part, shard);
}

std::vector<int> halo_of(const CsrSlice& slice) {
  std::vector<int> halo;
  for (int t : slice.targets) {
    if (!slice.owns(t)) halo.push_back(t);
  }
  std::sort(halo.begin(), halo.end());
  halo.erase(std::unique(halo.begin(), halo.end()), halo.end());
  return halo;
}

std::vector<HaloNeighborhood> exchange_halo_adjacency(Transport& transport,
                                                      const CsrSlice& slice) {
  const int world = transport.num_shards();
  const int self = transport.local_shard();
  DC_REQUIRE(self >= 0, "halo exchange needs a rank-aware transport");
  const VertexPartition part =
      VertexPartition::contiguous(slice.n_global, world);
  DC_REQUIRE(part.begin(self) == slice.lo && part.end(self) == slice.hi,
             "slice does not match this rank under the contiguous partition");

  // Both trips run on exchange_owned: one payload per peer, our own empty
  // (the halo never contains an owned vertex), and zero tallies — no engine
  // round is being accounted.
  const auto exchange = [&](std::vector<WireBuf> to_peers) {
    const std::vector<std::int64_t> zeros(static_cast<std::size_t>(world), 0);
    return transport.exchange_owned(std::move(to_peers), zeros, zeros).slots;
  };

  // Trip 1: tell each owner which of its vertices sit in our halo.
  using IdList = std::vector<std::uint32_t>;
  const std::vector<int> halo = halo_of(slice);
  std::vector<IdList> wanted(static_cast<std::size_t>(world));
  for (int v : halo) {
    wanted[static_cast<std::size_t>(part.shard_of(v))].push_back(
        static_cast<std::uint32_t>(v));
  }
  std::vector<WireBuf> request_row(static_cast<std::size_t>(world));
  for (int d = 0; d < world; ++d) {
    if (d == self) continue;
    WireWriter w;
    WireCodec<IdList>::encode(wanted[static_cast<std::size_t>(d)], w);
    request_row[static_cast<std::size_t>(d)] = w.take();
  }
  const std::vector<WireBuf> requests = exchange(std::move(request_row));

  // Trip 2: answer every peer's request against our owned rows, then
  // collect the answers addressed to us. Reply payload = vector of
  // (vertex, adjacency).
  using Reply = std::vector<std::pair<std::uint32_t, IdList>>;
  std::vector<WireBuf> reply_row(static_cast<std::size_t>(world));
  for (int requester = 0; requester < world; ++requester) {
    if (requester == self) continue;
    WireReader r(requests[static_cast<std::size_t>(requester)]);
    const IdList asked = WireCodec<IdList>::decode(r);
    DC_REQUIRE(r.done(), "trailing bytes in halo request");
    Reply reply;
    reply.reserve(asked.size());
    for (std::uint32_t gv : asked) {
      const int v = static_cast<int>(gv);
      DC_REQUIRE(slice.owns(v), "halo request for a vertex we do not own");
      const auto nbrs = slice.neighbors(v);
      IdList adj;
      adj.reserve(nbrs.size());
      for (int t : nbrs) adj.push_back(static_cast<std::uint32_t>(t));
      reply.emplace_back(gv, std::move(adj));
    }
    WireWriter w;
    WireCodec<Reply>::encode(reply, w);
    reply_row[static_cast<std::size_t>(requester)] = w.take();
  }
  const std::vector<WireBuf> replies = exchange(std::move(reply_row));

  std::vector<HaloNeighborhood> out;
  out.reserve(halo.size());
  for (int owner = 0; owner < world; ++owner) {
    if (owner == self) continue;
    WireReader r(replies[static_cast<std::size_t>(owner)]);
    const Reply reply = WireCodec<Reply>::decode(r);
    DC_REQUIRE(r.done(), "trailing bytes in halo reply");
    DC_REQUIRE(reply.size() == wanted[static_cast<std::size_t>(owner)].size(),
               "halo reply does not answer every request");
    for (const auto& [gv, adj] : reply) {
      HaloNeighborhood hn;
      hn.vertex = static_cast<int>(gv);
      hn.neighbors.reserve(adj.size());
      for (std::uint32_t t : adj) hn.neighbors.push_back(static_cast<int>(t));
      out.push_back(std::move(hn));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const HaloNeighborhood& a, const HaloNeighborhood& b) {
              return a.vertex < b.vertex;
            });
  DC_ENSURE(out.size() == halo.size(), "halo exchange lost a vertex");
  return out;
}

}  // namespace deltacol
