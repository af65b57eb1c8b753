#include "gcn/model.h"

#include <stdexcept>
#include <utility>

#include "common/trace.h"

namespace gcnt {

GcnModel::GcnModel(const GcnConfig& config)
    : config_(config), w_pr_(1, 1), w_su_(1, 1) {
  if (config_.depth < 1 ||
      static_cast<std::size_t>(config_.depth) > config_.embed_dims.size()) {
    throw std::invalid_argument("GcnModel: depth out of range");
  }
  Rng rng(config_.seed);
  w_pr_.value.at(0, 0) = config_.initial_w_pr;
  w_su_.value.at(0, 0) =
      config_.tied_aggregation ? config_.initial_w_pr : config_.initial_w_su;

  std::size_t in_dim = kNodeFeatureDim;
  for (int d = 0; d < config_.depth; ++d) {
    const std::size_t out_dim = config_.embed_dims[static_cast<std::size_t>(d)];
    encoders_.emplace_back(in_dim, out_dim, rng);
    in_dim = out_dim;
  }
  for (std::size_t dim : config_.fc_dims) {
    fc_.emplace_back(in_dim, dim, rng);
    in_dim = dim;
  }
  fc_.emplace_back(in_dim, config_.num_classes, rng);
}

void GcnModel::layer_step(std::size_t d, const CsrMatrix& pred,
                          const CsrMatrix& succ, const Matrix& x,
                          const std::vector<std::uint32_t>* rows,
                          ForwardWorkspace& ws, Matrix& out) const {
  // Aggregation (Eq. 1): G = X + w_pr * P*X + w_su * S*X.
  if (rows != nullptr) {
    pred.spmm_rows(*rows, x, ws.pred_sum);
    succ.spmm_rows(*rows, x, ws.succ_sum);
    gather_rows(x, *rows, ws.aggregated);
  } else {
    pred.spmm(x, ws.pred_sum);
    succ.spmm(x, ws.succ_sum);
    ws.aggregated.copy_from(x);
  }
  ws.aggregated.axpy(w_pr(), ws.pred_sum);
  ws.aggregated.axpy(w_su(), ws.succ_sum);

  // Encoding: E = ReLU(G * W + b), fused into one output pass.
  encoders_[d].forward_relu(ws.aggregated, out);
}

Matrix& GcnModel::fc_head(Matrix& x, Matrix& y,
                          std::vector<Matrix>* inputs) const {
  if (inputs != nullptr) inputs->resize(fc_.size());
  Matrix* in = &x;
  Matrix* out = &y;
  for (std::size_t i = 0; i < fc_.size(); ++i) {
    if (inputs != nullptr) (*inputs)[i].copy_from(*in);
    // Fused ReLU between hidden layers; the final layer emits raw logits.
    if (i + 1 < fc_.size()) {
      fc_[i].forward_relu(*in, *out);
    } else {
      fc_[i].forward(*in, *out);
    }
    std::swap(in, out);
  }
  return *in;
}

void GcnModel::run_forward(const GraphTensors& graph,
                           std::vector<Matrix>* embeddings, Cache* cache,
                           ForwardWorkspace& ws, Matrix& out) const {
  TraceSpan span(cache != nullptr ? "gcn.forward" : "gcn.infer");
  span.arg("nodes", static_cast<double>(graph.node_count()));
  if (cache != nullptr) {
    embeddings = &cache->embeddings;
    cache->aggregated.resize(encoders_.size());
    cache->pred_sums.resize(encoders_.size());
    cache->succ_sums.resize(encoders_.size());
  }

  // Ping-pong the activations through the workspace: after one warm-up
  // pass per graph, the whole forward allocates nothing. All internal
  // activations live in compute (possibly reordered) row order; only the
  // gather here and the scatter of the logits touch the permutation.
  Matrix* emb = &ws.ping;
  Matrix* alt = &ws.pong;
  gather_compute_rows(graph, graph.features, *emb);
  if (embeddings != nullptr) {
    embeddings->resize(encoders_.size() + 1);
    (*embeddings)[0].copy_from(*emb);
  }
  for (std::size_t d = 0; d < encoders_.size(); ++d) {
    layer_step(d, graph.pred, graph.succ, *emb, nullptr, ws, *alt);
    if (embeddings != nullptr) (*embeddings)[d + 1].copy_from(*alt);
    if (cache != nullptr) {
      cache->pred_sums[d].copy_from(ws.pred_sum);
      cache->succ_sums[d].copy_from(ws.succ_sum);
      cache->aggregated[d].copy_from(ws.aggregated);
    }
    std::swap(emb, alt);
  }
  const Matrix& logits =
      fc_head(*emb, *alt, cache != nullptr ? &cache->fc_inputs : nullptr);
  scatter_compute_rows(graph, logits, out);
}

Matrix GcnModel::forward(const GraphTensors& graph) {
  Matrix out;
  run_forward(graph, nullptr, &cache_, ws_, out);
  return out;
}

Matrix GcnModel::infer(const GraphTensors& graph) const {
  Matrix out;
  run_forward(graph, nullptr, nullptr, ws_, out);
  return out;
}

void GcnModel::infer(const GraphTensors& graph, ForwardWorkspace& ws,
                     Matrix& out) const {
  run_forward(graph, nullptr, nullptr, ws, out);
}

void GcnModel::infer_embeddings(const GraphTensors& graph,
                                ForwardWorkspace& ws, Matrix& out,
                                std::vector<Matrix>& embeddings) const {
  run_forward(graph, &embeddings, nullptr, ws, out);
}

void GcnModel::backward(const GraphTensors& graph, const Matrix& dlogits) {
  TraceSpan span("gcn.backward");
  if (cache_.fc_inputs.size() != fc_.size()) {
    throw std::logic_error("GcnModel::backward without matching forward");
  }
  // FC head, in reverse. Cached activations are in compute row order, so
  // the incoming node-order logit gradients gather through the
  // permutation first (identity copy when not reordered).
  Matrix grad;
  gather_compute_rows(graph, dlogits, grad);
  for (std::size_t i = fc_.size(); i-- > 0;) {
    Matrix dinput;
    fc_[i].backward(cache_.fc_inputs[i], grad, dinput);
    if (i > 0) {
      // Undo the ReLU that produced fc_inputs[i].
      Matrix masked;
      Relu::backward(cache_.fc_inputs[i], dinput, masked);
      grad = std::move(masked);
    } else {
      grad = std::move(dinput);
    }
  }

  // Aggregation/encoder stack, in reverse. `grad` is now dE_D.
  const float wp = w_pr();
  const float ws = w_su();
  for (std::size_t d = encoders_.size(); d-- > 0;) {
    // E_d = ReLU(Z), Z = G_d * W_d + b.
    Matrix dz;
    Relu::backward(cache_.embeddings[d + 1], grad, dz);
    Matrix dg;
    encoders_[d].backward(cache_.aggregated[d], dz, dg);

    // dw_pr += sum((P*E_{d-1}) .* dG); same for w_su. With tied weights
    // both contributions flow into the single shared scalar.
    w_pr_.grad.at(0, 0) += cache_.pred_sums[d].dot(dg);
    if (config_.tied_aggregation) {
      w_pr_.grad.at(0, 0) += cache_.succ_sums[d].dot(dg);
    } else {
      w_su_.grad.at(0, 0) += cache_.succ_sums[d].dot(dg);
    }

    // dE_{d-1} = dG + w_pr * P^T * dG + w_su * S^T * dG.
    Matrix dprev = dg;
    graph.pred_t.spmm(dg, dprev, wp, 1.0f);
    graph.succ_t.spmm(dg, dprev, ws, 1.0f);
    grad = std::move(dprev);
  }
}

std::vector<float> GcnModel::predict_positive_probability(
    const GraphTensors& graph) const {
  return positive_probability(infer(graph));
}

std::vector<Param*> GcnModel::params() {
  std::vector<Param*> all;
  if (!config_.frozen_aggregation) {
    all.push_back(&w_pr_);
    if (!config_.tied_aggregation) all.push_back(&w_su_);
  }
  for (Linear& layer : encoders_) {
    for (Param* p : layer.params()) all.push_back(p);
  }
  for (Linear& layer : fc_) {
    for (Param* p : layer.params()) all.push_back(p);
  }
  return all;
}

void GcnModel::zero_grad() {
  for (Param* p : params()) p->zero_grad();
}

std::vector<const Param*> GcnModel::params() const {
  std::vector<const Param*> all;
  if (!config_.frozen_aggregation) {
    all.push_back(&w_pr_);
    if (!config_.tied_aggregation) all.push_back(&w_su_);
  }
  for (const Linear& layer : encoders_) {
    all.push_back(&layer.weight);
    all.push_back(&layer.bias);
  }
  for (const Linear& layer : fc_) {
    all.push_back(&layer.weight);
    all.push_back(&layer.bias);
  }
  return all;
}

void GcnModel::copy_params_from(const GcnModel& other) {
  auto mine = params();
  auto theirs = other.params();
  if (mine.size() != theirs.size()) {
    throw std::invalid_argument("copy_params_from: config mismatch");
  }
  for (std::size_t i = 0; i < mine.size(); ++i) {
    mine[i]->value = theirs[i]->value;
  }
}

std::vector<float> positive_probability(const Matrix& logits) {
  const Matrix probabilities = softmax(logits);
  std::vector<float> positive(probabilities.rows());
  for (std::size_t r = 0; r < probabilities.rows(); ++r) {
    positive[r] = probabilities.at(r, 1);
  }
  return positive;
}

}  // namespace gcnt
