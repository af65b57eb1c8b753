#pragma once
// Tensor view of a netlist for the GCN: node attribute matrix plus sparse
// predecessor/successor adjacency.
//
// Following Section 3.1, every node carries [LL, C0, C1, O] (logic level
// and SCOAP measures); features are log-compressed so saturated SCOAP
// values stay in a trainable range. The aggregation of Eq. (1) uses two
// 0/1 matrices P and S with (P*E)[v] = sum of fanin embeddings and
// (S*E)[v] = sum of fanout embeddings; the trainable scalars w_pr / w_su
// stay outside the matrices so training never rebuilds them, and the
// paper's merged matrix A = I + w_pr*P + w_su*S can still be materialized
// for the pure-inference engine (Eq. 2).
//
// COO forms are retained because the OPI flow appends tuples incrementally
// when the netlist gains observation points (Section 4).

#include <array>
#include <cstdint>
#include <vector>

#include "netlist/netlist.h"
#include "scoap/scoap.h"
#include "tensor/matrix.h"
#include "tensor/sparse.h"

namespace gcnt {

/// Node attribute dimension: [LL, C0, C1, O].
constexpr std::size_t kNodeFeatureDim = 4;

/// log1p compression applied to each raw attribute.
float transform_feature(double raw) noexcept;

struct GraphTensors {
  Matrix features;  ///< N x 4, transformed (optionally standardized) attributes
  CooMatrix pred_coo;
  CooMatrix succ_coo;
  CsrMatrix pred;    ///< row v sums fanins of v
  CsrMatrix succ;    ///< row v sums fanouts of v
  CsrMatrix pred_t;  ///< transpose of pred (for backprop)
  CsrMatrix succ_t;  ///< transpose of succ
  std::vector<std::int32_t> labels;  ///< optional; empty if unlabeled

  /// Affine feature post-transform: stored feature = (log1p(raw) - mean) *
  /// scale. Identity until standardize_features() is called; kept so that
  /// incremental updates (new OP rows, refreshed observability) encode new
  /// raw values consistently with the existing rows.
  std::array<float, kNodeFeatureDim> feature_mean{0.f, 0.f, 0.f, 0.f};
  std::array<float, kNodeFeatureDim> feature_scale{1.f, 1.f, 1.f, 1.f};

  /// Encodes a raw attribute value for column `col` under the current
  /// affine post-transform.
  float encode(std::size_t col, double raw) const noexcept {
    return (transform_feature(raw) - feature_mean[col]) * feature_scale[col];
  }

  /// Standardizes each feature column to zero mean / unit variance over
  /// the current rows (per-graph statistics, so the transform remains
  /// usable inductively) and records the affine so later incremental rows
  /// stay on the same scale. Improves conditioning of GCN training.
  void standardize_features();

  std::size_t node_count() const noexcept { return features.rows(); }

  /// Brings pred/succ/pred_t/succ_t up to date with the COO forms.
  ///
  /// Contract: between two calls the COO lists only grow by appended
  /// tuples (append_observe_point, CooMatrix::add). When that holds — no
  /// COO list shorter than at the last build — only the appended tuples
  /// are applied, in place, through
  /// CsrMatrix::apply_appended: O(nnz + n) moved (one backward shift per
  /// touched row) plus O(row length) per tuple, no whole-list pass, each
  /// form bitwise equal to the full build. The full from_coo + transpose
  /// build, O(nnz) with a far larger constant, runs on the first call and
  /// whenever csr_source no longer describes a pure append: a COO list or
  /// the node count shrank.
  /// Code that rewrites COO tuples in place (rather than appending) must
  /// reset csr_source to force the full build. The span
  /// "graph.rebuild_csr" carries args `appended` and `full`; stats count
  /// graph.csr_full_rebuilds and graph.csr_appended_tuples.
  void rebuild_csr();

  /// What the CSR forms were last built from (see rebuild_csr).
  struct CsrSource {
    bool built = false;
    std::size_t rows = 0;      ///< node count
    std::size_t pred_nnz = 0;  ///< pred_coo.nnz()
    std::size_t succ_nnz = 0;  ///< succ_coo.nnz()
  };
  CsrSource csr_source;
};

/// out = node_major. A node id is its CSR row and its activation row, so
/// this is a plain capacity-reusing copy; only the perfbench layer replay
/// still calls it.
void gather_compute_rows(const GraphTensors& tensors, const Matrix& node_major,
                         Matrix& out);

/// out = compute_major, the counterpart of gather_compute_rows.
void scatter_compute_rows(const GraphTensors& tensors,
                          const Matrix& compute_major, Matrix& out);

/// Builds tensors from a netlist with precomputed SCOAP measures and
/// logic levels.
GraphTensors build_graph_tensors(const Netlist& netlist,
                                 const ScoapMeasures& scoap,
                                 const std::vector<std::uint32_t>& levels);

/// Convenience: computes SCOAP and levels internally.
GraphTensors build_graph_tensors(const Netlist& netlist);

/// Incremental update after netlist.insert_observe_point(target) created
/// node `op`: appends the COO tuples and the new feature row ([0,1,1,0]
/// per the paper), and refreshes the observability feature of the nodes in
/// `refreshed` (the fan-in cone whose SCOAP CO changed, as returned by
/// update_observability_after_observe). Leaves the CSR forms as
/// they are; call rebuild_csr() once per insertion round, which applies
/// the appended tuples to them in place (no whole-graph rebuild).
///
/// When `changed_rows` is non-null, every refreshed node whose stored
/// feature value actually changed bits (the SCOAP walk refreshes the whole
/// cone, but the improvement usually dies out after a few levels) is
/// appended to it — the exact dirty-cone seeds for
/// DirtyConeTracker::record_feature, far tighter than seeding the full
/// cone.
void append_observe_point(GraphTensors& tensors, const Netlist& netlist,
                          NodeId target, NodeId op,
                          const ScoapMeasures& scoap,
                          const std::vector<NodeId>& refreshed,
                          std::vector<NodeId>* changed_rows = nullptr);

/// Materializes the paper's merged adjacency A = I + w_pr*P + w_su*S in
/// COO form (Eq. 2) for the standalone sparse inference engine.
CooMatrix build_merged_adjacency(const GraphTensors& tensors, float w_pr,
                                 float w_su);

}  // namespace gcnt
