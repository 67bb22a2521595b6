#include "net/rank_loader.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <string>
#include <utility>

#include "graph/io.h"
#include "net/wire_codec.h"
#include "util/check.h"

namespace deltacol {

CsrSlice slice_of(const Graph& g, const VertexPartition& part, int shard) {
  DC_REQUIRE(part.num_vertices() == g.num_vertices(),
             "partition was built for a different graph");
  DC_REQUIRE(shard >= 0 && shard < part.num_shards(), "shard out of range");
  CsrSlice slice;
  slice.n_global = g.num_vertices();
  slice.lo = part.begin(shard);
  slice.hi = part.end(shard);
  std::size_t num_pairs = 0;
  for (int p = slice.lo; p < slice.hi; ++p) {
    num_pairs += static_cast<std::size_t>(g.degree(part.vertex_at(p)));
  }
  slice.rows = bucket_rows(slice.num_owned(), num_pairs, [&](const auto& emit) {
    for (int p = slice.lo; p < slice.hi; ++p) {
      for (int u : g.neighbors(part.vertex_at(p))) {
        emit(p - slice.lo, part.position_of(u));
      }
    }
  });
  sort_unique_rows(slice.rows);  // layout order is not original-id order
  return slice;
}

namespace {

// Shared streaming core: parses through graph/io.h's scan_edge_list,
// obtains the partition from make_part(n) at the header, then keeps only
// the layout rows owned by `shard`, as one flat CSR.
template <typename MakePart>
CsrSlice stream_slice(std::istream& in, int shard, MakePart&& make_part) {
  CsrSlice slice;
  VertexPartition part;
  // (owned row, layout target) of every kept edge end, in file order.
  std::vector<std::pair<int, int>> ends;
  scan_edge_list(
      in,
      [&](int header_n, std::int64_t) {
        part = make_part(header_n);
        DC_REQUIRE(shard >= 0 && shard < part.num_shards(),
                   "shard out of range");
        slice.n_global = header_n;
        slice.lo = part.begin(shard);
        slice.hi = part.end(shard);
      },
      [&](int u, int v) {
        // Relabel into layout space (identity when contiguous) and keep
        // only what this rank owns; everything else streams past.
        const int pu = part.position_of(u);
        const int pv = part.position_of(v);
        if (slice.owns(pu)) ends.emplace_back(pu - slice.lo, pv);
        if (slice.owns(pv)) ends.emplace_back(pv - slice.lo, pu);
      });
  slice.rows = bucket_rows(
      slice.num_owned(), ends.size(), [&](const auto& emit) {
        for (const auto& [row, target] : ends) emit(row, target);
      });
  sort_unique_rows(slice.rows);
  return slice;
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
  for (int t : slice.rows.targets) {
    if (!slice.owns(t)) halo.push_back(t);
  }
  std::sort(halo.begin(), halo.end());
  halo.erase(std::unique(halo.begin(), halo.end()), halo.end());
  return halo;
}

HaloRows exchange_halo_adjacency(SocketTransport& transport,
                                 const CsrSlice& slice) {
  const int world = transport.num_shards();
  const int self = transport.local_shard();
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
  // Decodes every peer's payload with read(peer, reader); a WireError names
  // the peer.
  const auto read_each = [&](const char* what,
                             const std::vector<WireBuf>& payloads,
                             const auto& read) {
    for (int peer = 0; peer < world; ++peer) {
      if (peer == self) continue;
      WireReader r(payloads[static_cast<std::size_t>(peer)]);
      try {
        read(peer, r);
      } catch (const WireError& e) {
        throw WireError(std::string(what) + " from rank " +
                        std::to_string(peer) + ": " + e.what());
      }
    }
  };

  // Trip 1: ask each owner for its vertices of our halo, as bare u32 ids.
  // The halo is sorted and the owners' ranges ascend, so the replies, read
  // in owner order, come back in halo order.
  HaloRows out;
  out.ids = halo_of(slice);
  std::vector<WireWriter> ask(static_cast<std::size_t>(world));
  for (int v : out.ids) {
    ask[static_cast<std::size_t>(part.shard_of(v))].put_u32(
        static_cast<std::uint32_t>(v));
  }
  std::vector<std::size_t> asked(static_cast<std::size_t>(world));
  std::vector<WireBuf> request_row(static_cast<std::size_t>(world));
  for (std::size_t d = 0; d < ask.size(); ++d) {
    asked[d] = ask[d].size() / 4;
    request_row[d] = ask[d].take();
  }
  const std::vector<WireBuf> requests = exchange(std::move(request_row));

  // Trip 2: answer every request with one flat CSR of our rows, in request
  // order: the count and the degrees, then the adjacency.
  std::vector<WireBuf> reply_row(static_cast<std::size_t>(world));
  read_each("halo request", requests, [&](int requester, WireReader& r) {
    if (r.remaining() % 4 != 0) {
      throw WireError("length check failed: " + std::to_string(r.remaining()) +
                      " bytes are not whole ids");
    }
    const auto count = static_cast<std::uint32_t>(r.remaining() / 4);
    WireReader ids = r;  // read twice: for the degrees, then the rows
    WireWriter w;
    w.put_u32(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t id = r.get_u32();
      if (id < static_cast<std::uint32_t>(slice.lo) ||
          id >= static_cast<std::uint32_t>(slice.hi)) {
        throw WireError("owner check failed: vertex " + std::to_string(id) +
                        " is not this rank's");
      }
      w.put_u32(static_cast<std::uint32_t>(slice.degree(static_cast<int>(id))));
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      for (int t : slice.neighbors(static_cast<int>(ids.get_u32()))) {
        w.put_u32(static_cast<std::uint32_t>(t));
      }
    }
    reply_row[static_cast<std::size_t>(requester)] = w.take();
  });
  const std::vector<WireBuf> replies = exchange(std::move(reply_row));

  read_each("halo reply", replies, [&](int owner, WireReader& r) {
    const std::uint32_t count = r.get_u32();
    const std::size_t want = asked[static_cast<std::size_t>(owner)];
    if (count != want || r.remaining() / 4 < count) {
      throw WireError("degree count check failed: " + std::to_string(count) +
                      " degrees in " + std::to_string(r.remaining()) +
                      " bytes for " + std::to_string(want) +
                      " requested vertices");
    }
    // The degrees may sum to no more entries than follow them, nor past an
    // int offset.
    const std::uint64_t base = out.rows.targets.size();
    const std::uint64_t follow = r.remaining() / 4 - count;
    const std::uint64_t limit = std::min<std::uint64_t>(
        base + follow, std::numeric_limits<int>::max());
    std::uint64_t entries = base;
    for (std::uint32_t i = 0; i < count; ++i) {
      entries += r.get_u32();
      if (entries > limit) {
        throw WireError("adjacency check failed: the degrees sum past the " +
                        std::to_string(follow) + " entries that follow");
      }
      out.rows.offsets.push_back(static_cast<int>(entries));
    }
    for (std::uint64_t j = base; j < entries; ++j) {
      const std::uint32_t t = r.get_u32();
      if (t >= static_cast<std::uint32_t>(slice.n_global)) {
        throw WireError("target check failed: vertex " + std::to_string(t) +
                        " is not in the graph");
      }
      out.rows.targets.push_back(static_cast<int>(t));
    }
    if (!r.done()) {
      throw WireError("length check failed: " + std::to_string(r.remaining()) +
                      " trailing bytes after the adjacency");
    }
  });
  return out;
}

}  // namespace deltacol
