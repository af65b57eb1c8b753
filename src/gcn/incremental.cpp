#include "gcn/incremental.h"

#include <algorithm>
#include <stdexcept>

#include "common/trace.h"

namespace gcnt {

void DirtyConeTracker::record_edge(NodeId from, NodeId to) {
  seeds_.push_back(from);
  seeds_.push_back(to);
}

void DirtyConeTracker::record_feature(NodeId v) { seeds_.push_back(v); }

void DirtyConeTracker::record_new_node(NodeId v) { seeds_.push_back(v); }

std::vector<NodeId> DirtyConeTracker::affected(const GraphTensors& tensors,
                                               int depth) const {
  GCNT_KERNEL_SCOPE("dirty_cone.affected");
  const std::size_t n = tensors.node_count();
  if (tensors.pred.rows() != n || tensors.succ.rows() != n) {
    throw std::invalid_argument(
        "DirtyConeTracker::affected: tensors need rebuild_csr()");
  }
  // The BFS runs in CSR (compute) row space; seeds map in through the
  // locality permutation and results map back out to node ids below.
  std::vector<std::uint8_t> visited(n, 0);
  std::vector<NodeId> frontier;
  frontier.reserve(seeds_.size());
  for (const NodeId v : seeds_) {
    if (v >= n) {
      throw std::out_of_range("DirtyConeTracker::affected: seed out of range");
    }
    const NodeId row = tensors.row_of(v);
    if (!visited[row]) {
      visited[row] = 1;
      frontier.push_back(row);
    }
  }

  // D rounds of frontier expansion along both adjacency directions: pred
  // row v lists fanins(v), succ row v lists fanouts(v), and together they
  // are exactly the nodes whose aggregation reads v (and vice versa).
  std::vector<NodeId> next;
  for (int hop = 0; hop < depth && !frontier.empty(); ++hop) {
    next.clear();
    for (const NodeId v : frontier) {
      const auto expand = [&](const CsrMatrix& adjacency) {
        const auto& row_ptr = adjacency.row_ptr();
        const auto& cols = adjacency.col_index();
        for (std::uint32_t k = row_ptr[v]; k < row_ptr[v + 1]; ++k) {
          const NodeId u = cols[k];
          if (!visited[u]) {
            visited[u] = 1;
            next.push_back(u);
          }
        }
      };
      expand(tensors.pred);
      expand(tensors.succ);
    }
    frontier.swap(next);
  }

  std::vector<NodeId> result;
  for (NodeId row = 0; row < n; ++row) {
    if (visited[row]) result.push_back(tensors.node_of(row));
  }
  if (tensors.reordered()) std::sort(result.begin(), result.end());
  return result;
}

IncrementalGcnEngine::IncrementalGcnEngine(const GcnModel& model,
                                           IncrementalGcnOptions options)
    : model_(&model), options_(options) {}

const Matrix& IncrementalGcnEngine::refresh(const GraphTensors& tensors) {
  GCNT_KERNEL_SCOPE("gcn.incremental.refresh");
  TraceSpan span("gcn.incremental.refresh");
  span.arg("nodes", static_cast<double>(tensors.node_count()));
  model_->infer_embeddings(tensors, ws_, logits_, embeddings_);
  cached_nodes_ = tensors.node_count();
  last_was_full_ = true;
  last_dirty_rows_ = cached_nodes_;
  return logits_;
}

const Matrix& IncrementalGcnEngine::update(const GraphTensors& tensors,
                                           const std::vector<NodeId>& dirty) {
  const std::size_t n = tensors.node_count();
  if (cached_nodes_ == 0 || n < cached_nodes_ ||
      static_cast<double>(dirty.size()) >
          options_.full_fallback_fraction * static_cast<double>(n)) {
    return refresh(tensors);
  }
  if (tensors.pred.rows() != n || tensors.succ.rows() != n) {
    throw std::invalid_argument(
        "IncrementalGcnEngine::update: tensors need rebuild_csr()");
  }
  for (const NodeId v : dirty) {
    if (v >= n) {
      throw std::out_of_range(
          "IncrementalGcnEngine::update: dirty node out of range");
    }
  }
  GCNT_KERNEL_SCOPE("gcn.incremental.update");
  TraceSpan span("gcn.incremental.update");
  span.arg("nodes", static_cast<double>(n));
  span.arg("dirty", static_cast<double>(dirty.size()));
  last_was_full_ = false;
  last_dirty_rows_ = dirty.size();

  // Appended nodes grow every cached layer (new rows are always dirty, so
  // their zero placeholders are overwritten below).
  for (Matrix& layer : embeddings_) grow_rows(layer, n);
  grow_rows(logits_, n);
  cached_nodes_ = n;

  // E_0 rows come straight from the (already updated) feature matrix;
  // the cached layers live in compute row order.
  for (const NodeId v : dirty) {
    const float* in = tensors.features.row(v);
    std::copy(in, in + tensors.features.cols(),
              embeddings_[0].row(tensors.row_of(v)));
  }
  if (dirty.empty()) return logits_;
  dirty_rows_.resize(dirty.size());
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    dirty_rows_[i] = tensors.row_of(dirty[i]);
  }

  // Re-propagate the dirty rows layer by layer. A clean row's inputs are
  // all clean (the dirty set is the D-hop closure), so reading the cached
  // E_{d-1} for neighbors is exact, and each recomputed row is
  // bit-identical to a full forward (GcnModel::layer_step).
  for (std::size_t d = 0; d + 1 < embeddings_.size(); ++d) {
    model_->layer_step(d, tensors.pred, tensors.succ, embeddings_[d],
                       &dirty_rows_, ws_, ws_.ping);
    scatter_rows(ws_.ping, dirty_rows_, embeddings_[d + 1]);
  }
  scatter_rows(model_->fc_head(ws_.ping, ws_.pong), dirty, logits_);
  return logits_;
}

std::vector<float> IncrementalGcnEngine::positive_probability() const {
  return gcnt::positive_probability(logits_);
}

}  // namespace gcnt
