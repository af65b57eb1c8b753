#pragma once
// The paper's GCN (Section 3.2): D rounds of weighted-sum aggregation +
// dense encoding, followed by fully-connected classification layers.
//
//   G_d = E_{d-1} + w_pr * (P * E_{d-1}) + w_su * (S * E_{d-1})   (Eq. 1)
//   E_d = ReLU(G_d * W_d + b_d)
//   logits = FC(E_D)
//
// Forward and backward run whole-graph as sparse-dense matrix products
// (Eq. 3) — the "fast inference scheme" — and the same code path is the
// training forward pass. w_pr and w_su are trainable scalars shared across
// depths, exactly as in the paper.
//
// layer_step() and fc_head() are the one forward core. The training and
// inference forwards here, IncrementalGcnEngine and ShardedGcnEngine all
// run them and differ only in the row sets they compute and in where they
// keep the results, so every engine computes a row with the same kernels
// in the same order.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gcn/graph_tensors.h"
#include "gcn/workspace.h"
#include "nn/layers.h"
#include "nn/loss.h"

namespace gcnt {

struct GcnConfig {
  int depth = 3;  ///< search depth D (1..embed_dims.size())
  /// K_d embedding dimensions; the paper uses (32, 64, 128).
  std::vector<std::size_t> embed_dims = {32, 64, 128};
  /// Hidden FC dimensions; the paper uses (64, 64, 128) before the
  /// 2-class output layer.
  std::vector<std::size_t> fc_dims = {64, 64, 128};
  std::size_t num_classes = 2;
  std::uint64_t seed = 1234;

  /// Ablation switches for the Eq. 1 aggregation weights.
  /// tied: one shared scalar drives both predecessor and successor sums.
  bool tied_aggregation = false;
  /// frozen: weights stay at their initial values (not trained). With
  /// initial weights 0 the model degenerates to an MLP on node features.
  bool frozen_aggregation = false;
  float initial_w_pr = 0.5f;
  float initial_w_su = 0.5f;
};

class GcnModel {
 public:
  explicit GcnModel(const GcnConfig& config);

  const GcnConfig& config() const noexcept { return config_; }

  /// Whole-graph forward pass; returns N x num_classes logits and caches
  /// activations for backward().
  Matrix forward(const GraphTensors& graph);

  /// Accumulates parameter gradients from d(loss)/d(logits). Must follow a
  /// forward() on the same graph.
  void backward(const GraphTensors& graph, const Matrix& dlogits);

  /// Inference-only forward (no caching); cheaper on big graphs.
  Matrix infer(const GraphTensors& graph) const;

  /// Zero-allocation inference: writes logits into `out` using the
  /// caller's workspace. After one warm-up call per graph, steady-state
  /// calls perform no heap allocations (see gcn/workspace.h). Use
  /// distinct workspaces for concurrent callers.
  void infer(const GraphTensors& graph, ForwardWorkspace& ws,
             Matrix& out) const;

  /// Whole-graph inference that also keeps E_0..E_D in `embeddings`: the incremental engine's refresh.
  void infer_embeddings(const GraphTensors& graph, ForwardWorkspace& ws,
                        Matrix& out, std::vector<Matrix>& embeddings) const;

  /// One Eq. 1 layer step through encoder `d`:
  ///   out = ReLU((X[rows] + w_pr*P[rows]*X + w_su*S[rows]*X) * W_d + b_d)
  /// `rows == nullptr` computes every row with the whole-graph kernels
  /// (spmm, copy_from). A row list computes only those rows of P and S
  /// (spmm_rows and a row gather) into a compact rows->size() x K_d block
  /// whose row i is bitwise equal to row (*rows)[i] of the all-rows step.
  /// P*X, S*X and the aggregate G are left in ws.pred_sum, ws.succ_sum
  /// and ws.aggregated. `out` must not alias `x`.
  void layer_step(std::size_t d, const CsrMatrix& pred, const CsrMatrix& succ,
                  const Matrix& x, const std::vector<std::uint32_t>* rows,
                  ForwardWorkspace& ws, Matrix& out) const;

  /// FC head (Eq. 3) over the compact E_D block in `x`: the hidden layers
  /// (fused ReLU) ping-pong through `x` and `y`, so both are clobbered.
  /// Returns the one holding the compact logits, row i of which belongs
  /// to row i of the input; callers scatter it. When `inputs` is non-null
  /// it receives each FC layer's input (training keeps them for
  /// backward).
  Matrix& fc_head(Matrix& x, Matrix& y,
                  std::vector<Matrix>* inputs = nullptr) const;

  /// Positive-class probability per node.
  std::vector<float> predict_positive_probability(const GraphTensors& graph) const;

  /// All trainable parameters in a stable order.
  std::vector<Param*> params();
  std::vector<const Param*> params() const;

  void zero_grad();

  /// Copies parameter values (not gradients) from another model with the
  /// same configuration — used by the data-parallel trainer replicas.
  void copy_params_from(const GcnModel& other);

  float w_pr() const noexcept { return w_pr_.value.at(0, 0); }
  float w_su() const noexcept {
    return config_.tied_aggregation ? w_pr() : w_su_.value.at(0, 0);
  }

  /// Layer access for alternative inference engines (e.g. the per-node
  /// recursive baseline of Fig. 10).
  const std::vector<Linear>& encoders() const noexcept { return encoders_; }
  const std::vector<Linear>& fc_layers() const noexcept { return fc_; }

 private:
  /// The whole-graph forward: gather, D all-rows layer steps, FC head,
  /// scatter of the logits into `out` (node order). Scratch lives in `ws`.
  /// Fills `embeddings` (E_0..E_D) and `cache` (training) when non-null.
  struct Cache;
  void run_forward(const GraphTensors& graph,
                   std::vector<Matrix>* embeddings, Cache* cache,
                   ForwardWorkspace& ws, Matrix& out) const;

  GcnConfig config_;
  Param w_pr_;
  Param w_su_;
  std::vector<Linear> encoders_;  ///< 4 -> K1 -> ... -> KD
  std::vector<Linear> fc_;        ///< KD -> fc_dims... -> num_classes

  struct Cache {
    std::vector<Matrix> embeddings;  ///< E_0 .. E_D (post-activation)
    std::vector<Matrix> aggregated;  ///< G_1 .. G_D
    std::vector<Matrix> pred_sums;   ///< P * E_{d-1}
    std::vector<Matrix> succ_sums;   ///< S * E_{d-1}
    /// Input to each FC layer; fc_inputs[i] is the post-ReLU output of
    /// FC layer i - 1.
    std::vector<Matrix> fc_inputs;
  };
  Cache cache_;
  /// Scratch for forward()/infer(graph); mutable so const inference can
  /// reuse it. Makes those entry points non-thread-safe per model — use
  /// the explicit-workspace infer overload for concurrent callers.
  mutable ForwardWorkspace ws_;
};

/// Softmax column 1 (the positive class) of N x 2 logits, per row.
std::vector<float> positive_probability(const Matrix& logits);

}  // namespace gcnt
