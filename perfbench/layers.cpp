#include "layers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/artifact.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "data/labeler.h"
#include "dft/impact.h"
#include "gcn/serialize.h"
#include "gcn/trainer.h"
#include "netlist/bench_io.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace perfbench {

using gcnt::CsrMatrix;
using gcnt::GcnModel;
using gcnt::GraphTensors;
using gcnt::Matrix;
using gcnt::Netlist;
using gcnt::NodeId;

// Cone cap for edit targets and the OPI flow's impact cone limit
// (GcnOpiOptions defaults).
constexpr std::size_t kTargetConeLimit = 256;
constexpr std::size_t kImpactConeLimit = 96;

void write_design(const Netlist& netlist, const std::string& path) {
  gcnt::atomic_write_file(
      path, [&](std::ostream& out) { gcnt::write_bench(netlist, out); });
}

Netlist read_design(const std::string& path, OpTrace* trace) {
  Netlist netlist;
  {
    Phase p(trace, "netlist.read_s");
    std::ifstream in(path);
    netlist = gcnt::read_bench(in, path);
  }
  if (trace) {
    const double mb =
        static_cast<double>(std::filesystem::file_size(path)) / 1e6;
    trace->add_value("netlist.read_mb_per_s",
                     mb / trace->seconds["netlist.read_s"]);
  }
  return netlist;
}

void EditState::build(Netlist design, const GcnModel& model, OpTrace* trace) {
  netlist = std::move(design);
  {
    Phase p(trace, "scoap.compute_s");
    scoap = gcnt::compute_scoap(netlist);
  }
  {
    Phase p(trace, "netlist.levels_s");
    levels = netlist.logic_levels();
  }
  {
    Phase p(trace, "gcn.tensors_s");
    tensors = gcnt::build_graph_tensors(netlist, scoap, levels);
    tensors.standardize_features();
  }
  engine = std::make_unique<gcnt::IncrementalGcnEngine>(
      model, gcnt::IncrementalGcnOptions{});
  tracker.clear();
}

bool valid_target(const Netlist& netlist, NodeId v) {
  const gcnt::CellType t = netlist.type(v);
  if (gcnt::is_sink(t) || t == gcnt::CellType::kInput) return false;
  for (NodeId g : netlist.fanouts(v)) {
    if (netlist.type(g) == gcnt::CellType::kObserve) return false;
  }
  return true;
}

std::vector<NodeId> pick_edit_targets(const Netlist& netlist,
                                      std::uint64_t seed, std::size_t count) {
  gcnt::Rng rng(seed);
  std::vector<char> taken(netlist.size(), 0);
  std::vector<NodeId> targets;
  // Bounded so a tiny design cannot spin forever; the caller checks the
  // count it got.
  for (std::size_t attempt = 0;
       targets.size() < count && attempt < 64 * count + 1024; ++attempt) {
    const auto v = static_cast<NodeId>(rng.below(netlist.size()));
    if (taken[v] || !valid_target(netlist, v)) continue;
    if (netlist.fanin_cone(v, kTargetConeLimit).size() >= kTargetConeLimit) {
      continue;
    }
    taken[v] = 1;
    targets.push_back(v);
  }
  return targets;
}

void insert_op(EditState& s, NodeId target, OpTrace* trace) {
  NodeId op = 0;
  {
    Phase p(trace, "netlist.insert_op_s");
    op = s.netlist.insert_observe_point(target);
  }
  {
    Phase p(trace, "scoap.observe_update_s");
    gcnt::update_observability_after_observe(s.netlist, target, s.scoap);
  }
  s.levels.resize(s.netlist.size(), 0);
  s.levels[op] = s.levels[target] + 1;
  std::vector<NodeId> cone;
  {
    Phase p(trace, "netlist.fanin_cone_s");
    cone = s.netlist.fanin_cone(target);
  }
  Phase p(trace, "gcn.append_op_s");
  std::vector<NodeId> changed_rows;
  gcnt::append_observe_point(s.tensors, s.netlist, target, op, s.scoap, cone,
                             &changed_rows);
  s.tracker.record_new_node(op);
  s.tracker.record_edge(target, op);
  for (NodeId v : changed_rows) s.tracker.record_feature(v);
}

void rebuild(EditState& s, OpTrace* trace) {
  Phase p(trace, "gcn.rebuild_csr_s");
  s.tensors.rebuild_csr();
}

void update(EditState& s, OpTrace* trace) {
  std::vector<NodeId> dirty;
  {
    Phase p(trace, "gcn.affected_s");
    dirty = s.tracker.affected(s.tensors, s.engine->model().config().depth);
  }
  {
    Phase p(trace, "gcn.update_s");
    s.engine->update(s.tensors, dirty);
  }
  s.tracker.clear();
  if (trace) {
    trace->add_value("gcn.dirty_rows",
                     static_cast<double>(s.engine->last_dirty_rows()));
    trace->add_value("gcn.full_fallbacks", s.engine->last_was_full() ? 1 : 0);
  }
}

std::vector<std::int32_t> engine_predictions(const EditState& s) {
  const std::vector<float> positive = s.engine->positive_probability();
  std::vector<std::int32_t> predictions(positive.size(), 1);
  for (std::size_t v = 0; v < positive.size(); ++v) {
    if (positive[v] < 0.5f) predictions[v] = 0;
  }
  return predictions;
}

std::vector<NodeId> opi_candidates(
    const Netlist& netlist, const std::vector<std::int32_t>& predictions) {
  std::vector<NodeId> candidates;
  for (NodeId v = 0; v < predictions.size(); ++v) {
    if (predictions[v] == 1 && valid_target(netlist, v)) {
      candidates.push_back(v);
    }
  }
  return candidates;
}

std::vector<std::pair<int, NodeId>> rank_candidates(
    const EditState& s, const GcnModel& model,
    const std::vector<NodeId>& candidates,
    const std::vector<std::int32_t>& predictions, OpTrace* trace) {
  Phase p(trace, "dft.rank_s");
  const gcnt::ImpactEvaluator evaluator({&model}, s.netlist, s.tensors,
                                        s.scoap, s.levels);
  std::vector<std::pair<int, NodeId>> ranked;
  ranked.reserve(candidates.size());
  for (NodeId v : candidates) {
    ranked.emplace_back(
        evaluator.impact_of(v, predictions, kImpactConeLimit), v);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first > b.first;
  });
  if (trace) {
    trace->add_value("dft.impact_calls",
                     static_cast<double>(candidates.size()));
  }
  return ranked;
}

std::vector<NodeId> plan_insertions(
    const std::vector<std::pair<int, NodeId>>& ranked) {
  // GcnOpiOptions defaults: insert_fraction 0.3, at least 8, min_impact 1.
  std::size_t budget = std::max<std::size_t>(
      8, static_cast<std::size_t>(0.3 * static_cast<double>(ranked.size())));
  budget = std::min(budget, ranked.size());
  std::vector<NodeId> planned;
  for (const auto& [impact, target] : ranked) {
    if (planned.size() >= budget) break;
    if (impact < 1 && !planned.empty()) break;
    planned.push_back(target);
  }
  return planned;
}

bool all_finite(const Matrix& m) {
  const float* d = m.data();
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (!std::isfinite(d[i])) return false;
  }
  return true;
}

double train_step(GcnModel& model, gcnt::Optimizer& optimizer,
                  const GraphTensors& graph, float positive_weight,
                  OpTrace* trace) {
  model.zero_grad();
  Matrix logits;
  {
    Phase p(trace, "train.forward_s");
    logits = model.forward(graph);
  }
  Matrix dlogits;
  double loss = 0.0;
  {
    Phase p(trace, "train.loss_s");
    loss = gcnt::softmax_cross_entropy(
        logits, graph.labels, {1.0f, positive_weight}, nullptr, dlogits);
  }
  {
    Phase p(trace, "train.backward_s");
    model.backward(graph, dlogits);
  }
  {
    Phase p(trace, "train.optimizer_s");
    optimizer.step(model.params());
  }
  {
    Phase p(trace, "train.eval_s");
    gcnt::Trainer::evaluate_accuracy(model, {&graph, {}});
  }
  return loss;
}

namespace {

/// Per-layer metric names, built once per replay.
struct LayerNames {
  std::string spmm_pred, spmm_succ, aggregate, gemm, gflops, gbps, zero;
  std::string dw, dx, spmm_t;
  explicit LayerNames(const std::string& layer)
      : spmm_pred("layer." + layer + ".spmm_pred_s"),
        spmm_succ("layer." + layer + ".spmm_succ_s"),
        aggregate("layer." + layer + ".aggregate_s"),
        gemm("layer." + layer + ".gemm_s"),
        gflops("layer." + layer + ".gemm_gflops"),
        gbps("layer." + layer + ".spmm_gbps"),
        zero("layer." + layer + ".relu_zero_frac"),
        dw("train.layer." + layer + ".dw_gemm_s"),
        dx("train.layer." + layer + ".dx_gemm_s"),
        spmm_t("train.layer." + layer + ".spmm_t_s") {}
};

/// Names of layers kind0 .. kind<count-1> (enc for encoders, fc for the
/// FC head).
std::vector<LayerNames> layer_names(const std::string& kind,
                                    std::size_t count) {
  std::vector<LayerNames> names;
  for (std::size_t i = 0; i < count; ++i) {
    names.emplace_back(kind + std::to_string(i));
  }
  return names;
}

double zero_fraction(const Matrix& m) {
  if (m.size() == 0) return 0.0;
  std::size_t zeros = 0;
  const float* d = m.data();
  for (std::size_t i = 0; i < m.size(); ++i) zeros += d[i] == 0.0f;
  return static_cast<double>(zeros) / static_cast<double>(m.size());
}

/// Bytes one CSR SpMM over k dense columns moves, computed from the
/// tensor sizes (not measured): the CSR arrays once, one gathered dense
/// row per nonzero, one written output row per CSR row.
double spmm_bytes(const CsrMatrix& a, std::size_t k) {
  const double nnz = static_cast<double>(a.nnz());
  const double rows = static_cast<double>(a.rows());
  return nnz * 8.0 + (rows + 1.0) * 4.0 + (nnz + rows) * 4.0 *
                                              static_cast<double>(k);
}

double gemm_gflops(std::size_t rows, std::size_t k, std::size_t n,
                   double seconds) {
  return 2.0 * static_cast<double>(rows) * static_cast<double>(k) *
         static_cast<double>(n) / seconds / 1e9;
}

/// Activations a backward replay needs, in compute row order.
struct Activations {
  std::vector<Matrix> enc_in;   ///< G_1..G_D, the encoder GEMM inputs
  std::vector<Matrix> enc_out;  ///< E_1..E_D
  std::vector<Matrix> fc_out;   ///< hidden FC outputs, then the logits
};

struct ReplayBuffers {
  Matrix emb, alt, pred, succ, agg;
};

/// GcnModel::infer replayed layer by layer through the same public calls
/// in the same order (the fp32 path of GcnModel::run_forward), so `out`
/// must equal GcnModel::infer bit for bit. Times every layer into
/// `trace` when given; keeps the activations when `keep` is given.
void replay_forward(const GcnModel& model, const GraphTensors& g,
                    ReplayBuffers& b, Matrix& out, OpTrace* trace,
                    Activations* keep) {
  const std::vector<LayerNames> enc =
      layer_names("enc", model.encoders().size());
  const std::vector<LayerNames> fc =
      layer_names("fc", model.fc_layers().size());
  const float wp = model.w_pr();
  const float wsu = model.w_su();
  const std::size_t rows = g.node_count();
  gcnt::gather_compute_rows(g, g.features, b.emb);
  for (std::size_t d = 0; d < model.encoders().size(); ++d) {
    const gcnt::Linear& layer = model.encoders()[d];
    {
      Phase p(trace, enc[d].spmm_pred);
      g.pred.spmm(b.emb, b.pred);
    }
    {
      Phase p(trace, enc[d].spmm_succ);
      g.succ.spmm(b.emb, b.succ);
    }
    {
      Phase p(trace, enc[d].aggregate);
      b.agg.copy_from(b.emb);
      b.agg.axpy(wp, b.pred);
      b.agg.axpy(wsu, b.succ);
    }
    {
      Phase p(trace, enc[d].gemm);
      layer.forward_relu(b.agg, b.alt);
    }
    if (trace) {
      const std::size_t k = b.emb.cols();
      trace->add_value(enc[d].gflops,
                       gemm_gflops(rows, layer.in_features(),
                                   layer.out_features(),
                                   trace->seconds[enc[d].gemm]));
      trace->add_value(enc[d].gbps,
                       (spmm_bytes(g.pred, k) + spmm_bytes(g.succ, k)) /
                           (trace->seconds[enc[d].spmm_pred] +
                            trace->seconds[enc[d].spmm_succ]) /
                           1e9);
      trace->add_value(enc[d].zero, zero_fraction(b.alt));
    }
    if (keep) {
      keep->enc_in[d].copy_from(b.agg);
      keep->enc_out[d].copy_from(b.alt);
    }
    std::swap(b.emb, b.alt);
  }
  for (std::size_t i = 0; i < model.fc_layers().size(); ++i) {
    const gcnt::Linear& layer = model.fc_layers()[i];
    const bool last = i + 1 == model.fc_layers().size();
    {
      Phase p(trace, fc[i].gemm);
      if (!last) {
        layer.forward_relu(b.emb, b.alt);
      } else {
        layer.forward(b.emb, b.alt);
      }
    }
    if (trace) {
      trace->add_value(fc[i].gflops,
                       gemm_gflops(rows, layer.in_features(),
                                   layer.out_features(),
                                   trace->seconds[fc[i].gemm]));
      if (!last) trace->add_value(fc[i].zero, zero_fraction(b.alt));
    }
    if (keep) keep->fc_out[i].copy_from(b.alt);
    std::swap(b.emb, b.alt);
  }
  // The last layer's output sits in b.emb, in compute order.
  gcnt::scatter_compute_rows(g, b.emb, out);
}

/// GcnModel::backward's GEMMs and transposed SpMMs replayed per layer on
/// the kept activations, timed into `trace` (weights are not updated).
void replay_backward(const GcnModel& model, const GraphTensors& g,
                     const Activations& act, const Matrix& dlogits,
                     OpTrace* trace) {
  const std::vector<LayerNames> enc =
      layer_names("enc", model.encoders().size());
  const std::vector<LayerNames> fc =
      layer_names("fc", model.fc_layers().size());
  Matrix grad;
  gcnt::gather_compute_rows(g, dlogits, grad);
  Matrix dw, dx, masked;
  for (std::size_t i = model.fc_layers().size(); i-- > 0;) {
    const gcnt::Linear& layer = model.fc_layers()[i];
    const Matrix& x = i == 0 ? act.enc_out.back() : act.fc_out[i - 1];
    dw.resize(layer.in_features(), layer.out_features());
    {
      Phase p(trace, fc[i].dw);
      gcnt::gemm(x, grad, dw, true, false, 1.0f, 1.0f);
    }
    {
      Phase p(trace, fc[i].dx);
      gcnt::gemm(grad, layer.weight.value, dx, false, true);
    }
    if (i > 0) {
      gcnt::Relu::backward(act.fc_out[i - 1], dx, masked);
      std::swap(grad, masked);
    } else {
      std::swap(grad, dx);
    }
  }
  const float wp = model.w_pr();
  const float wsu = model.w_su();
  Matrix dz, dprev;
  for (std::size_t d = model.encoders().size(); d-- > 0;) {
    const gcnt::Linear& layer = model.encoders()[d];
    gcnt::Relu::backward(act.enc_out[d], grad, dz);
    dw.resize(layer.in_features(), layer.out_features());
    {
      Phase p(trace, enc[d].dw);
      gcnt::gemm(act.enc_in[d], dz, dw, true, false, 1.0f, 1.0f);
    }
    {
      Phase p(trace, enc[d].dx);
      gcnt::gemm(dz, layer.weight.value, dx, false, true);
    }
    dprev.copy_from(dx);
    {
      Phase p(trace, enc[d].spmm_t);
      g.pred_t.spmm(dx, dprev, wp, 1.0f);
      g.succ_t.spmm(dx, dprev, wsu, 1.0f);
    }
    std::swap(grad, dprev);
  }
}

}  // namespace

void probe_design(const std::string& bench_path, const std::string& model_path,
                  const GcnModel& model, std::uint64_t seed,
                  const Scale& scale, Recorder& rec, Checks& checks) {
  Recorder local;

  // Netlist I/O, SCOAP, tensors and model load: one pass each.
  OpTrace io;
  EditState state;
  state.build(read_design(bench_path, &io), model, &io);
  {
    Phase p(&io, "netlist.write_s");
    write_design(state.netlist, bench_path + ".probe");
  }
  std::remove((bench_path + ".probe").c_str());
  {
    Phase p(&io, "gcn.model_load_s");
    const GcnModel loaded = gcnt::load_model_file(model_path);
  }
  io.commit(local);
  const GraphTensors& g = state.tensors;
  local.add("shape.nodes", static_cast<double>(g.node_count()));
  local.add("shape.edges", static_cast<double>(state.netlist.edge_count()));
  local.add("shape.nnz", static_cast<double>(g.pred.nnz() + g.succ.nnz()));

  // Whole-graph forwards: cold (fresh workspace), warm, one thread.
  Matrix logits;
  {
    gcnt::ForwardWorkspace ws;
    double t0 = now_s();
    model.infer(g, ws, logits);
    local.add("gcn.forward_cold_s", now_s() - t0);
    for (int rep = 0; rep < 3; ++rep) {
      t0 = now_s();
      model.infer(g, ws, logits);
      local.add("gcn.forward_warm_s", now_s() - t0);
    }
    const std::size_t threads = gcnt::kernel_threads();
    gcnt::set_kernel_threads(1);
    Matrix one_thread;
    t0 = now_s();
    model.infer(g, ws, one_thread);
    local.add("gcn.forward_1t_s", now_s() - t0);
    gcnt::set_kernel_threads(threads);
    checks.expect("forward_threads_bitwise", one_thread == logits,
                  "1-thread forward differs from the multi-thread forward");
  }
  const double warm_s = median_of(local.samples("gcn.forward_warm_s"));
  local.add("gcn.parallel_speedup",
            median_of(local.samples("gcn.forward_1t_s")) / warm_s);
  checks.expect("logits_finite", all_finite(logits));

  // Layer replay of the forward, checked bitwise against GcnModel::infer.
  {
    ReplayBuffers buffers;
    Matrix out;
    replay_forward(model, g, buffers, out, nullptr, nullptr);  // warm-up
    for (int rep = 0; rep < 3; ++rep) {
      OpTrace t;
      replay_forward(model, g, buffers, out, &t, nullptr);
      const bool bitwise = out == logits;
      checks.expect("layer_replay_bitwise", bitwise,
                    "layer replay differs from GcnModel::infer");
      t.add_value("layer.replay_bitwise", bitwise ? 1.0 : 0.0);
      t.add_value("layer.coverage", t.total_seconds() / warm_s);
      t.commit(local);
    }
  }

  // Backward replay per layer and one training step, on COP labels.
  gcnt::LabelerOptions cop;
  cop.oracle = gcnt::LabelerOptions::Oracle::kCopThreshold;
  state.tensors.labels = gcnt::label_difficult_to_observe(state.netlist, cop);
  {
    Activations act;
    act.enc_in.resize(model.encoders().size());
    act.enc_out.resize(model.encoders().size());
    act.fc_out.resize(model.fc_layers().size());
    ReplayBuffers buffers;
    Matrix out, dlogits;
    replay_forward(model, g, buffers, out, nullptr, &act);
    gcnt::softmax_cross_entropy(out, g.labels, {1.0f, kPositiveWeight},
                                nullptr, dlogits);
    replay_backward(model, g, act, dlogits, nullptr);  // warm-up
    OpTrace t;
    replay_backward(model, g, act, dlogits, &t);
    t.commit(local);
  }
  {
    GcnModel trained = model;
    gcnt::AdamOptimizer optimizer(kLearningRate);
    OpTrace t;
    const double loss = train_step(trained, optimizer, g, kPositiveWeight, &t);
    checks.expect("train_loss_finite", std::isfinite(loss));
    t.commit(local);
  }

  // One OPI ranking pass over the first candidates, on the pristine design.
  {
    OpTrace t;
    {
      Phase p(&t, "gcn.predict_s");
      state.engine->refresh(g);
    }
    const std::vector<std::int32_t> predictions = engine_predictions(state);
    std::vector<NodeId> candidates = opi_candidates(state.netlist, predictions);
    t.add_value("dft.candidates", static_cast<double>(candidates.size()));
    if (candidates.size() > scale.dft_probe_candidates) {
      candidates.resize(scale.dft_probe_candidates);
    }
    const auto ranked =
        rank_candidates(state, model, candidates, predictions, &t);
    t.add_value("opi.inserted",
                static_cast<double>(plan_insertions(ranked).size()));
    t.commit(local);
  }

  // Edit rounds: eight OPs, then the incremental re-prediction.
  const std::vector<NodeId> targets =
      pick_edit_targets(state.netlist, seed, 8 * scale.probe_edit_rounds);
  checks.expect("edit_targets_found",
                targets.size() == 8 * scale.probe_edit_rounds);
  for (std::size_t r = 0; r + 1 <= targets.size() / 8; ++r) {
    OpTrace t;
    for (std::size_t k = 0; k < 8; ++k) {
      insert_op(state, targets[8 * r + k], &t);
    }
    rebuild(state, &t);
    update(state, &t);
    t.commit(local);
  }
  rec.merge_missing(local);
}

}  // namespace perfbench
