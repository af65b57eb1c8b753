#include "graph/partition.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "common/error.h"
#include "common/trace.h"

namespace gcnt {

namespace {

/// Exact multi-source BFS from `owners` (dist 0) over the union of both
/// adjacency directions, up to `depth` hops. Fills `halo`/`halo_dist`
/// with the reached non-owner rows, ascending. `dist` is an n-sized
/// scratch (0xFF = unreached) owned by the caller.
void halo_bfs(const std::vector<std::uint32_t>& owners, const CsrMatrix& pred,
              const CsrMatrix& succ, int depth, std::vector<std::uint8_t>& dist,
              std::vector<std::uint32_t>& halo,
              std::vector<std::uint8_t>& halo_dist) {
  std::vector<std::uint32_t> frontier = owners;
  for (const std::uint32_t v : owners) dist[v] = 0;
  std::vector<std::uint32_t> reached;  // non-owner rows, discovery order
  std::vector<std::uint32_t> next;
  for (int hop = 1; hop <= depth && !frontier.empty(); ++hop) {
    next.clear();
    for (const std::uint32_t v : frontier) {
      const auto expand = [&](const CsrMatrix& adjacency) {
        const auto& row_ptr = adjacency.row_ptr();
        const auto& cols = adjacency.col_index();
        for (std::uint32_t k = row_ptr[v]; k < row_ptr[v + 1]; ++k) {
          const std::uint32_t u = cols[k];
          if (dist[u] == 0xFF) {
            dist[u] = static_cast<std::uint8_t>(hop);
            next.push_back(u);
            reached.push_back(u);
          }
        }
      };
      expand(pred);
      expand(succ);
    }
    frontier.swap(next);
  }
  std::sort(reached.begin(), reached.end());
  halo.assign(reached.begin(), reached.end());
  halo_dist.resize(halo.size());
  for (std::size_t i = 0; i < halo.size(); ++i) halo_dist[i] = dist[halo[i]];
  // Reset only the touched entries so the caller can reuse the scratch.
  for (const std::uint32_t v : owners) dist[v] = 0xFF;
  for (const std::uint32_t v : reached) dist[v] = 0xFF;
}

}  // namespace

GraphPartition GraphPartition::build(const CsrMatrix& pred,
                                     const CsrMatrix& succ,
                                     const PartitionOptions& options) {
  GCNT_KERNEL_SCOPE("graph.partition");
  const std::size_t n = pred.rows();
  if (succ.rows() != n) {
    throw Error(ErrorKind::kInternal,
                "GraphPartition::build: pred/succ row count mismatch");
  }
  if (options.shards == 0) {
    throw Error(ErrorKind::kUsage, "GraphPartition::build: shards must be > 0");
  }
  if (options.halo < 1 || options.halo > 0xFE) {
    throw Error(ErrorKind::kUsage,
                "GraphPartition::build: halo depth out of range");
  }

  GraphPartition partition;
  partition.halo_ = options.halo;
  const std::size_t shard_count = std::max<std::size_t>(
      1, std::min(options.shards, std::max<std::size_t>(1, n)));
  partition.shards_.resize(shard_count);
  partition.owner_of_.assign(n, 0);

  // Owner assignment: balanced contiguous runs of rows, each ascending
  // (the merge-based gathers downstream rely on sorted lists).
  for (std::size_t k = 0; k < shard_count; ++k) {
    const std::size_t begin = n * k / shard_count;
    const std::size_t end = n * (k + 1) / shard_count;
    Shard& shard = partition.shards_[k];
    shard.owners.resize(end - begin);
    std::iota(shard.owners.begin(), shard.owners.end(),
              static_cast<std::uint32_t>(begin));
    for (const std::uint32_t row : shard.owners) {
      partition.owner_of_[row] = static_cast<std::uint32_t>(k);
    }
  }
  for (std::size_t k = 0; k < shard_count; ++k) {
    partition.rebuild_halo(k, pred, succ);
  }
  return partition;
}

void GraphPartition::rebuild_halo(std::size_t k, const CsrMatrix& pred,
                                  const CsrMatrix& succ) {
  Shard& shard = shards_[k];
  std::vector<std::uint8_t> dist(owner_of_.size(), 0xFF);
  halo_bfs(shard.owners, pred, succ, halo_, dist, shard.halo,
           shard.halo_dist);
  // Regroup the halo by producer. Iterating the ascending halo keeps
  // each group's rows ascending; the groups themselves sort by producer.
  shard.recv.clear();
  std::vector<std::int32_t> group_of(shards_.size(), -1);
  for (const std::uint32_t row : shard.halo) {
    const std::uint32_t producer = owner_of_[row];
    if (group_of[producer] < 0) {
      group_of[producer] = static_cast<std::int32_t>(shard.recv.size());
      shard.recv.push_back(ShardRecv{producer, {}});
    }
    shard.recv[static_cast<std::size_t>(group_of[producer])].rows.push_back(
        row);
  }
  std::sort(shard.recv.begin(), shard.recv.end(),
            [](const ShardRecv& a, const ShardRecv& b) {
              return a.producer < b.producer;
            });
}

std::size_t GraphPartition::total_halo_rows() const noexcept {
  std::size_t total = 0;
  for (const Shard& shard : shards_) total += shard.halo.size();
  return total;
}

std::vector<std::size_t> GraphPartition::extend(const CsrMatrix& pred,
                                                const CsrMatrix& succ) {
  GCNT_KERNEL_SCOPE("graph.partition_extend");
  const std::size_t old_rows = owner_of_.size();
  const std::size_t n = pred.rows();
  if (succ.rows() != n || n < old_rows) {
    throw Error(ErrorKind::kInternal,
                "GraphPartition::extend: adjacency shrank or mismatched");
  }
  if (n == old_rows) return {};

  // Assign each appended row to the shard of its first already-assigned
  // neighbor (fanin preferred: an OPI observe point's only fanin is its
  // target, so the OP lands in the target's shard).
  std::vector<std::uint32_t> new_rows;
  new_rows.reserve(n - old_rows);
  for (std::size_t r = old_rows; r < n; ++r) {
    const std::uint32_t row = static_cast<std::uint32_t>(r);
    std::uint32_t shard = 0;
    bool found = false;
    for (const CsrMatrix* adjacency : {&pred, &succ}) {
      const auto& row_ptr = adjacency->row_ptr();
      const auto& cols = adjacency->col_index();
      for (std::uint32_t k = row_ptr[row]; k < row_ptr[row + 1] && !found;
           ++k) {
        if (cols[k] < owner_of_.size()) {
          shard = owner_of_[cols[k]];
          found = true;
        }
      }
      if (found) break;
    }
    owner_of_.push_back(shard);
    shards_[shard].owners.push_back(row);  // row > every prior id: stays sorted
    new_rows.push_back(row);
  }

  // Every shard with an owner within halo-depth hops of a new row may
  // gain halo rows — including pairs of *old* rows newly connected
  // through an appended node, whose endpoints are both within D hops of
  // it. A full halo rebuild for exactly those shards restores the exact
  // closure; all other shards are untouched by construction.
  std::vector<std::uint8_t> dist(n, 0xFF);
  std::vector<std::uint32_t> reached;
  std::vector<std::uint8_t> reached_dist;
  halo_bfs(new_rows, pred, succ, halo_, dist, reached, reached_dist);
  std::vector<std::uint8_t> affected(shards_.size(), 0);
  for (const std::uint32_t row : new_rows) affected[owner_of_[row]] = 1;
  for (const std::uint32_t row : reached) affected[owner_of_[row]] = 1;
  std::vector<std::size_t> result;
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    if (affected[k]) {
      rebuild_halo(k, pred, succ);
      result.push_back(k);
    }
  }
  return result;
}

void GraphPartition::validate(const CsrMatrix& pred,
                              const CsrMatrix& succ) const {
  const std::size_t n = owner_of_.size();
  const auto fail = [](const std::string& what) {
    throw Error(ErrorKind::kInternal, "GraphPartition::validate: " + what);
  };
  if (pred.rows() != n || succ.rows() != n) fail("adjacency size mismatch");

  // Owners: disjoint, exhaustive, consistent with owner_of.
  std::vector<std::uint8_t> seen(n, 0);
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    const Shard& shard = shards_[k];
    for (std::size_t i = 0; i < shard.owners.size(); ++i) {
      const std::uint32_t row = shard.owners[i];
      if (row >= n) fail("owner row out of range");
      if (i > 0 && shard.owners[i - 1] >= row) fail("owners not ascending");
      if (seen[row]) fail("row owned by two shards");
      seen[row] = 1;
      if (owner_of_[row] != k) fail("owner_of inconsistent");
    }
  }
  for (std::size_t row = 0; row < n; ++row) {
    if (!seen[row]) fail("row owned by no shard");
  }

  // Halo: exact D-hop closure with exact distances; recv regroups it.
  std::vector<std::uint8_t> dist(n, 0xFF);
  std::vector<std::uint32_t> expected_halo;
  std::vector<std::uint8_t> expected_dist;
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    const Shard& shard = shards_[k];
    halo_bfs(shard.owners, pred, succ, halo_, dist, expected_halo,
             expected_dist);
    if (shard.halo != expected_halo) fail("halo is not the D-hop closure");
    if (shard.halo_dist != expected_dist) fail("halo distance wrong");
    std::size_t grouped = 0;
    for (std::size_t g = 0; g < shard.recv.size(); ++g) {
      const ShardRecv& recv = shard.recv[g];
      if (g > 0 && shard.recv[g - 1].producer >= recv.producer) {
        fail("recv producers not ascending");
      }
      if (recv.producer == k) fail("recv from self");
      for (std::size_t i = 0; i < recv.rows.size(); ++i) {
        const std::uint32_t row = recv.rows[i];
        if (i > 0 && recv.rows[i - 1] >= row) fail("recv rows not ascending");
        if (owner_of_[row] != recv.producer) fail("recv row owner mismatch");
        if (!std::binary_search(shard.halo.begin(), shard.halo.end(), row)) {
          fail("recv row not in halo");
        }
      }
      grouped += recv.rows.size();
    }
    if (grouped != shard.halo.size()) fail("recv does not cover halo");
  }
}

}  // namespace gcnt
