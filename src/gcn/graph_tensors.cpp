#include "gcn/graph_tensors.h"

#include <cmath>
#include <stdexcept>

#include "common/stats.h"
#include "common/trace.h"

namespace gcnt {

void gather_compute_rows(const GraphTensors&, const Matrix& node_major,
                         Matrix& out) {
  out.copy_from(node_major);
}

void scatter_compute_rows(const GraphTensors&, const Matrix& compute_major,
                          Matrix& out) {
  out.copy_from(compute_major);
}

float transform_feature(double raw) noexcept {
  return static_cast<float>(std::log1p(raw));
}

void GraphTensors::standardize_features() {
  const std::size_t n = features.rows();
  if (n == 0) return;
  for (std::size_t c = 0; c < kNodeFeatureDim; ++c) {
    double mean = 0.0;
    for (std::size_t r = 0; r < n; ++r) mean += features.at(r, c);
    mean /= static_cast<double>(n);
    double variance = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      const double delta = features.at(r, c) - mean;
      variance += delta * delta;
    }
    const double stddev = std::sqrt(variance / static_cast<double>(n));
    const float scale = stddev > 1e-6 ? static_cast<float>(1.0 / stddev) : 1.0f;
    for (std::size_t r = 0; r < n; ++r) {
      features.at(r, c) =
          (features.at(r, c) - static_cast<float>(mean)) * scale;
    }
    // Compose with the existing affine so encode() matches the new rows.
    feature_mean[c] = feature_mean[c] + static_cast<float>(mean) / feature_scale[c];
    feature_scale[c] *= scale;
  }
}

void GraphTensors::rebuild_csr() {
  static KernelStats& kernel = kernel_stats("graph.rebuild_csr");
  static Counter& full_rebuilds =
      StatsRegistry::instance().counter("graph.csr_full_rebuilds");
  static Counter& appended_tuples =
      StatsRegistry::instance().counter("graph.csr_appended_tuples");
  InstrumentScope scope("graph.rebuild_csr", kernel);
  // Keep shapes square and in sync with the feature rows even when a node
  // has no fanin/fanout entries yet.
  const auto n = static_cast<std::uint32_t>(features.rows());
  if (pred_coo.rows < n) pred_coo.rows = n;
  if (pred_coo.cols < n) pred_coo.cols = n;
  if (succ_coo.rows < n) succ_coo.rows = n;
  if (succ_coo.cols < n) succ_coo.cols = n;

  // A pure append since the last build: apply only the new tuples.
  const bool append = csr_source.built && n >= csr_source.rows &&
                      pred_coo.nnz() >= csr_source.pred_nnz &&
                      succ_coo.nnz() >= csr_source.succ_nnz;
  std::size_t appended = 0;
  if (append) {
    appended = (pred_coo.nnz() - csr_source.pred_nnz) +
               (succ_coo.nnz() - csr_source.succ_nnz);
    pred.apply_appended(pred_coo, csr_source.pred_nnz, pred_t);
    succ.apply_appended(succ_coo, csr_source.succ_nnz, succ_t);
  } else {
    full_rebuilds.add();
    pred = CsrMatrix::from_coo(pred_coo);
    succ = CsrMatrix::from_coo(succ_coo);
    pred_t = pred.transpose();
    succ_t = succ.transpose();
  }
  appended_tuples.add(appended);
  csr_source = CsrSource{true, n, pred_coo.nnz(), succ_coo.nnz()};
  scope.arg("appended", static_cast<double>(appended));
  scope.arg("full", append ? 0.0 : 1.0);
}

GraphTensors build_graph_tensors(const Netlist& netlist,
                                 const ScoapMeasures& scoap,
                                 const std::vector<std::uint32_t>& levels) {
  TraceSpan span("graph.build_tensors");
  span.arg("nodes", static_cast<double>(netlist.size()));
  GraphTensors tensors;
  const std::size_t n = netlist.size();
  tensors.features.resize(n, kNodeFeatureDim);
  for (NodeId v = 0; v < n; ++v) {
    float* row = tensors.features.row(v);
    if (netlist.type(v) == CellType::kObserve) {
      // Paper convention: observation points carry [0, 1, 1, 0] regardless
      // of where they sit (Section 4) — keeps incremental updates and
      // from-scratch rebuilds identical.
      row[0] = transform_feature(0.0);
      row[1] = transform_feature(1.0);
      row[2] = transform_feature(1.0);
      row[3] = transform_feature(0.0);
      continue;
    }
    row[0] = transform_feature(levels[v]);
    row[1] = transform_feature(scoap.cc0[v]);
    row[2] = transform_feature(scoap.cc1[v]);
    row[3] = transform_feature(scoap.co[v]);
  }
  tensors.pred_coo = CooMatrix(n, n);
  tensors.succ_coo = CooMatrix(n, n);
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId u : netlist.fanins(v)) {
      tensors.pred_coo.add(v, u, 1.0f);
    }
    for (NodeId w : netlist.fanouts(v)) {
      tensors.succ_coo.add(v, w, 1.0f);
    }
  }
  tensors.rebuild_csr();
  return tensors;
}

GraphTensors build_graph_tensors(const Netlist& netlist) {
  const ScoapMeasures scoap = compute_scoap(netlist);
  return build_graph_tensors(netlist, scoap, netlist.logic_levels());
}

void append_observe_point(GraphTensors& tensors, const Netlist& netlist,
                          NodeId target, NodeId op,
                          const ScoapMeasures& scoap,
                          const std::vector<NodeId>& refreshed,
                          std::vector<NodeId>* changed_rows) {
  if (tensors.features.cols() != kNodeFeatureDim) {
    throw std::invalid_argument(
        "append_observe_point: tensors have no feature matrix");
  }
  // Appended tuples, mirroring the paper's incremental COO update. The
  // shapes are grown explicitly to the post-insertion node count first so
  // a miscomputed coordinate throws instead of silently stretching the
  // adjacency (the incremental engine depends on exact shapes).
  const std::size_t n_after = netlist.size();
  tensors.pred_coo.reshape(n_after, n_after);
  tensors.succ_coo.reshape(n_after, n_after);
  tensors.pred_coo.add_checked(op, target, 1.0f);
  tensors.succ_coo.add_checked(target, op, 1.0f);

  // New feature row: the paper assigns the new node [0, 1, 1, 0].
  grow_rows(tensors.features, n_after);
  float* row = tensors.features.row(op);
  row[0] = tensors.encode(0, 0.0);
  row[1] = tensors.encode(1, 1.0);
  row[2] = tensors.encode(2, 1.0);
  row[3] = tensors.encode(3, 0.0);
  if (!tensors.labels.empty()) tensors.labels.resize(netlist.size(), 0);

  // Observability changed only in the fan-in cone of the target — and the
  // SCOAP improvement usually dies out well before the cone does, so track
  // which rows actually changed bits.
  const auto refresh_row = [&](NodeId v) {
    const float encoded = tensors.encode(3, scoap.co[v]);
    if (tensors.features.at(v, 3) != encoded) {
      tensors.features.at(v, 3) = encoded;
      if (changed_rows != nullptr) changed_rows->push_back(v);
    }
  };
  for (NodeId v : refreshed) refresh_row(v);
  refresh_row(target);
}

CooMatrix build_merged_adjacency(const GraphTensors& tensors, float w_pr,
                                 float w_su) {
  const std::size_t n = tensors.node_count();
  CooMatrix merged(n, n);
  for (std::uint32_t v = 0; v < n; ++v) merged.add(v, v, 1.0f);
  for (std::size_t k = 0; k < tensors.pred_coo.nnz(); ++k) {
    merged.add(tensors.pred_coo.row_index[k], tensors.pred_coo.col_index[k],
               w_pr * tensors.pred_coo.values[k]);
  }
  for (std::size_t k = 0; k < tensors.succ_coo.nnz(); ++k) {
    merged.add(tensors.succ_coo.row_index[k], tensors.succ_coo.col_index[k],
               w_su * tensors.succ_coo.values[k]);
  }
  return merged;
}

}  // namespace gcnt
