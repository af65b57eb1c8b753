#pragma once
// Incremental whole-graph inference for the OPI/CPI flows (Section 4).
//
// Inserting an observation point perturbs a bounded region of the graph:
// three appended COO tuples plus refreshed observability features in the
// target's fan-in cone. With D aggregation rounds, a node's logits can
// only change if it lies within D hops (along fanins *or* fanouts — Eq. 1
// aggregates both directions) of a perturbed node. DirtyConeTracker
// accumulates the perturbations of an insertion batch and computes that
// D-hop "dirty cone"; IncrementalGcnEngine keeps the per-layer embeddings
// E_0..E_D of the last full forward cached and re-propagates only the
// dirty rows, falling back to a full pass when the dirty fraction makes
// re-propagation pointless.
//
// The engine only plans row sets and owns the cache; the computation is
// GcnModel's forward core. refresh() is the whole-graph forward with an
// embeddings sink (GcnModel::infer_embeddings); update() runs
// GcnModel::layer_step on the dirty rows of each layer, then
// GcnModel::fc_head. A row-set layer step reproduces the all-rows bits,
// so the incremental path is bit-identical to GcnModel::infer on the
// updated tensors (pinned by tests/incremental_test.cpp).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gcn/graph_tensors.h"
#include "gcn/model.h"
#include "gcn/workspace.h"

namespace gcnt {

/// Accumulates graph perturbations (appended edges, rewritten feature
/// rows, appended nodes) and expands them into the D-hop affected set.
class DirtyConeTracker {
 public:
  /// An appended edge from -> to perturbs the aggregation of both
  /// endpoints.
  void record_edge(NodeId from, NodeId to);

  /// Feature row `v` was rewritten (e.g. refreshed SCOAP CO).
  void record_feature(NodeId v);

  /// Node `v` was appended since the last sync (new OP / CP cells).
  void record_new_node(NodeId v);

  bool empty() const noexcept { return seeds_.empty(); }
  std::size_t seed_count() const noexcept { return seeds_.size(); }

  /// Forgets every recorded perturbation (after the engines consumed it).
  void clear() { seeds_.clear(); }

  /// The D-hop closure of the recorded seeds over the predecessor and
  /// successor adjacency of `tensors` (CSR forms must be rebuilt already,
  /// i.e. include the recorded edges). Sorted ascending, deduplicated.
  std::vector<NodeId> affected(const GraphTensors& tensors, int depth) const;

 private:
  std::vector<NodeId> seeds_;
};

struct IncrementalGcnOptions {
  /// When the dirty set exceeds this fraction of all nodes, update() runs
  /// a full forward instead — beyond it the subset bookkeeping costs more
  /// than it saves.
  double full_fallback_fraction = 0.25;
};

/// Per-model incremental inference state: cached E_0..E_D and logits of
/// the last (full or incremental) forward. The model's parameters must not
/// change between calls (the OPI/CPI flows use trained, frozen models).
class IncrementalGcnEngine {
 public:
  explicit IncrementalGcnEngine(const GcnModel& model,
                                IncrementalGcnOptions options = {});

  /// Full whole-graph fp32 forward (GcnModel::infer_embeddings), caching
  /// every intermediate embedding.
  const Matrix& refresh(const GraphTensors& tensors);

  /// Re-propagates only `dirty` rows (a DirtyConeTracker::affected set for
  /// this model's depth, against the *rebuilt* tensors). Falls back to
  /// refresh() when there is no cache yet or the dirty fraction exceeds
  /// the configured threshold. Returns the updated whole-graph logits.
  const Matrix& update(const GraphTensors& tensors,
                       const std::vector<NodeId>& dirty);

  /// Logits of the last refresh()/update() (N x num_classes).
  const Matrix& logits() const noexcept { return logits_; }

  /// Positive-class probability per node from the cached logits —
  /// identical to GcnModel::predict_positive_probability.
  std::vector<float> positive_probability() const;

  /// True when the last update() degenerated to a full forward.
  bool last_was_full() const noexcept { return last_was_full_; }
  /// Rows re-propagated by the last update() (node count on fallback).
  std::size_t last_dirty_rows() const noexcept { return last_dirty_rows_; }

  const GcnModel& model() const noexcept { return *model_; }

 private:
  const GcnModel* model_;
  IncrementalGcnOptions options_;
  std::vector<Matrix> embeddings_;  ///< E_0 .. E_D, whole-graph rows
  Matrix logits_;
  /// Scratch reused by refresh()/update(); with a stable graph size the
  /// steady-state re-propagation allocates nothing.
  ForwardWorkspace ws_;
  /// Dirty node ids mapped into compute row order (reused scratch).
  std::vector<NodeId> dirty_rows_;
  std::size_t cached_nodes_ = 0;  ///< 0 = no valid cache
  bool last_was_full_ = false;
  std::size_t last_dirty_rows_ = 0;
};

}  // namespace gcnt
