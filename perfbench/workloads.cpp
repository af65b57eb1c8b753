// The four workloads. Each operation calls the library the way the CLI
// command or serve path it stands for does:
//
//   infer-216k  gcnt infer --out on the ~216k-node design
//   opi-10k     gcnt opi (3 iterations, standardized features) on 10k gates
//   edit-216k   one serve-style edit round: 8 OPs, rebuild, dirty update
//   train-20k   one Trainer epoch (Adam, all rows) on a COP-labelled design
//
// All share one set-up model: the paper's dims trained for 30 epochs on a
// 5k-gate design with COP-threshold labels, balanced rows and positive
// weight 8. A model trained on all rows predicts no positives (OPI would
// have nothing to do) and a random one has unrealistic post-ReLU zero
// shares, which the GEMM's zero skip depends on. The model's inputs do
// not depend on --seed: OPI work grows with the predicted positives, and
// a per-seed model would move it by 2x between seeds. The seed varies the
// designs the model runs on and the edit targets.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "common/artifact.h"
#include "data/dataset.h"
#include "dft/gcn_opi.h"
#include "gcn/serialize.h"
#include "gcn/trainer.h"
#include "gen/generator.h"
#include "layers.h"
#include "nn/loss.h"

namespace perfbench {

using gcnt::GcnModel;
using gcnt::Matrix;
using gcnt::Netlist;
using gcnt::NodeId;

namespace {

/// Per-role generator seeds derived from the run seed.
enum class Role : std::uint64_t { kBig = 2, kOpi = 3, kTrain = 4 };

/// Generator, initialisation and row-sampling seeds of the set-up model.
constexpr std::uint64_t kModelSeed = 1;

std::uint64_t role_seed(std::uint64_t seed, Role role) {
  return seed * 8 + static_cast<std::uint64_t>(role);
}

/// `gcnt generate --gates N --seed S` (its default shape parameters).
Netlist generate(std::size_t gates, std::uint64_t seed) {
  gcnt::GeneratorConfig config;
  config.target_gates = gates;
  config.seed = seed;
  config.primary_inputs = 64;
  config.primary_outputs = 32;
  config.flip_flops = gates / 24;
  config.trap_fraction = 0.02;
  return gcnt::generate_circuit(config);
}

gcnt::GcnConfig model_config(std::uint64_t seed) {
  gcnt::GcnConfig config;  // paper dims: embed 32/64/128, FC 64/64/128/2
  config.seed = seed;
  return config;
}

std::uint32_t params_crc(const GcnModel& model) {
  std::uint32_t crc = 0;
  for (const gcnt::Param* p : model.params()) {
    crc = gcnt::crc32c(p->value.data(), p->value.size() * sizeof(float), crc);
  }
  return crc;
}

std::uint32_t file_crc(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  const std::string bytes = text.str();
  return gcnt::crc32c(bytes.data(), bytes.size());
}

bool same_params(const GcnModel& a, const GcnModel& b) {
  const auto pa = a.params();
  const auto pb = b.params();
  if (pa.size() != pb.size()) return false;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if (!(pa[i]->value == pb[i]->value)) return false;
  }
  return true;
}

/// State every workload shares: the trained model, its file, the run's
/// seed and work directory, and the workload's design file.
class BaseWorkload : public Workload {
 public:
  void setup(const Options& options) override {
    options_ = options;
    model_path_ = options.workdir + "/model.txt";
    Netlist design = generate(options.scale.model_gates, kModelSeed);
    gcnt::LabelerOptions cop;
    cop.oracle = gcnt::LabelerOptions::Oracle::kCopThreshold;
    gcnt::Dataset dataset = gcnt::make_dataset(std::move(design), cop);
    dataset.tensors.standardize_features();
    model_ = std::make_unique<GcnModel>(model_config(kModelSeed));
    gcnt::TrainerOptions train;
    train.epochs = options.scale.model_epochs;
    train.learning_rate = kLearningRate;
    train.positive_class_weight = kPositiveWeight;
    train.eval_interval = train.epochs;
    gcnt::Trainer trainer(*model_, train);
    trainer.train({gcnt::TrainGraph{&dataset.tensors,
                                    gcnt::balanced_rows(dataset, kModelSeed)}},
                  nullptr);
    gcnt::save_model_file(*model_, model_path_);
    setup_design();
  }

  std::string setup_digest() const override {
    return "model " + std::to_string(params_crc(*model_)) + " design " +
           std::to_string(file_crc(design_path_));
  }

  void probe(Recorder& rec, Checks& checks) override {
    probe_design(design_path_, model_path_, *model_, options_.seed,
                 options_.scale, rec, checks);
  }

 protected:
  /// Generates the workload's design and writes it to design_path_.
  virtual void setup_design() = 0;

  Options options_;
  std::string model_path_;
  std::string design_path_;
  std::unique_ptr<GcnModel> model_;
};

class InferWorkload final : public BaseWorkload {
 public:
  void op(OpTrace* trace, Checks& checks) override {
    const Netlist netlist = read_design(design_path_, trace);
    gcnt::ScoapMeasures scoap;
    {
      Phase p(trace, "scoap.compute_s");
      scoap = gcnt::compute_scoap(netlist);
    }
    std::vector<std::uint32_t> levels;
    {
      Phase p(trace, "netlist.levels_s");
      levels = netlist.logic_levels();
    }
    gcnt::GraphTensors tensors;
    {
      Phase p(trace, "gcn.tensors_s");
      tensors = gcnt::build_graph_tensors(netlist, scoap, levels);
      tensors.standardize_features();
    }
    std::unique_ptr<GcnModel> model;
    {
      Phase p(trace, "gcn.model_load_s");
      model = std::make_unique<GcnModel>(gcnt::load_model_file(model_path_));
    }
    Matrix logits;
    {
      Phase p(trace, "gcn.forward_cold_s");
      gcnt::ForwardWorkspace ws;
      model->infer(tensors, ws, logits);
    }
    // Softmax and the predictions file carry no timer: they are what
    // trace.untraced_s shows.
    const Matrix probabilities = gcnt::softmax(logits);
    std::size_t positives = 0;
    for (std::size_t v = 0; v < probabilities.rows(); ++v) {
      if (probabilities.at(v, 1) >= 0.5f) ++positives;
    }
    gcnt::atomic_write_file(predictions_path_, [&](std::ostream& os) {
      os << "# node p(positive) predicted\n";
      for (NodeId v = 0; v < netlist.size(); ++v) {
        const float p = probabilities.at(v, 1);
        os << netlist.node_name(v) << " " << p << " " << (p >= 0.5f ? 1 : 0)
           << "\n";
      }
    });

    checks.expect("logits_finite", all_finite(logits));
    if (first_positives_ < 0) first_positives_ = static_cast<long>(positives);
    checks.expect("positives_repeat",
                  static_cast<long>(positives) == first_positives_,
                  "predicted-positive count changed between operations");
    shape_ = {{"nodes", static_cast<double>(netlist.size())},
              {"edges", static_cast<double>(netlist.edge_count())},
              {"nnz", static_cast<double>(tensors.pred.nnz() +
                                          tensors.succ.nnz())},
              {"positives", static_cast<double>(positives)}};
  }

  void shape(RunResult& result) const override { result.shape = shape_; }
  const char* op_alias() const override { return "infer_s"; }

 private:
  void setup_design() override {
    design_path_ = options_.workdir + "/design216k.bench";
    predictions_path_ = options_.workdir + "/predictions.txt";
    write_design(generate(options_.scale.big_gates,
                          role_seed(options_.seed, Role::kBig)),
                 design_path_);
  }

  std::string predictions_path_;
  long first_positives_ = -1;
  std::map<std::string, double> shape_;
};

class OpiWorkload final : public BaseWorkload {
 public:
  void op(OpTrace* trace, Checks& checks) override {
    Netlist netlist = read_design(design_path_, trace);
    const std::size_t original = netlist.size();
    std::vector<NodeId> inserted =
        trace ? replay(std::move(netlist), trace) : run(netlist);
    if (!trace) {
      checks.expect("opi_netlist_grew",
                    netlist.size() == original + inserted.size(),
                    "modified netlist size does not match the OP count");
    }
    if (reference_.empty()) reference_ = inserted;
    checks.expect("opi_inserted_repeat", inserted == reference_,
                  trace ? "OPI replay inserted a different list than "
                          "run_gcn_opi"
                        : "inserted list changed between operations");
    shape_["nodes"] = static_cast<double>(original);
    shape_["inserted"] = static_cast<double>(inserted.size());
  }

  void shape(RunResult& result) const override { result.shape = shape_; }
  const char* op_alias() const override { return "opi_s"; }

 private:
  static constexpr std::size_t kIterations = 3;

  void setup_design() override {
    design_path_ = options_.workdir + "/design10k.bench";
    out_path_ = options_.workdir + "/opi_modified.bench";
    write_design(generate(options_.scale.opi_gates,
                          role_seed(options_.seed, Role::kOpi)),
                 design_path_);
  }

  /// `gcnt opi`: the library flow in one call, then the netlist write.
  std::vector<NodeId> run(Netlist& netlist) {
    gcnt::GcnOpiOptions options;
    options.max_iterations = kIterations;
    options.incremental = true;
    // Matches training; gcnt opi leaves this false today (a known defect
    // outside the benchmark's scope).
    options.standardize_features = true;
    const gcnt::OpiResult result =
        gcnt::run_gcn_opi(netlist, {model_.get()}, options);
    write_design(netlist, out_path_);
    return result.inserted;
  }

  /// run_gcn_opi replayed through public calls with every phase timed;
  /// its inserted list must equal run_gcn_opi's.
  std::vector<NodeId> replay(Netlist netlist, OpTrace* trace) {
    EditState state;
    state.build(std::move(netlist), *model_, trace);
    std::vector<NodeId> inserted;
    for (std::size_t iteration = 0; iteration < kIterations; ++iteration) {
      if (iteration == 0) {
        Phase p(trace, "gcn.predict_s");
        state.engine->refresh(state.tensors);
        state.tracker.clear();
      } else {
        update(state, trace);
      }
      std::vector<std::int32_t> predictions;
      {
        Phase p(trace, "gcn.predict_s");
        predictions = engine_predictions(state);
      }
      const std::vector<NodeId> candidates =
          opi_candidates(state.netlist, predictions);
      if (iteration == 0) {
        trace->add_value("dft.candidates",
                         static_cast<double>(candidates.size()));
        shape_["candidates"] = static_cast<double>(candidates.size());
      }
      if (candidates.empty()) break;
      const auto ranked =
          rank_candidates(state, *model_, candidates, predictions, trace);
      for (NodeId target : plan_insertions(ranked)) {
        insert_op(state, target, trace);
        inserted.push_back(target);
      }
      rebuild(state, trace);
    }
    trace->add_value("opi.inserted", static_cast<double>(inserted.size()));
    {
      Phase p(trace, "netlist.write_s");
      write_design(state.netlist, out_path_);
    }
    return inserted;
  }

  std::string out_path_;
  std::vector<NodeId> reference_;
  std::map<std::string, double> shape_;
};

class EditWorkload final : public BaseWorkload {
 public:
  void op(OpTrace* trace, Checks& checks) override {
    for (std::size_t k = 0; k < 8; ++k) {
      insert_op(state_, targets_[next_++], trace);
    }
    rebuild(state_, trace);
    update(state_, trace);
    dirty_rows_.push_back(
        static_cast<double>(state_.engine->last_dirty_rows()));
    checks.expect("logits_finite", all_finite(state_.engine->logits()));
  }

  bool exhausted() const override { return next_ + 8 > targets_.size(); }

  void finish(Checks& checks) override {
    gcnt::ForwardWorkspace ws;
    Matrix fresh;
    model_->infer(state_.tensors, ws, fresh);
    checks.expect("edit_matches_fresh_infer",
                  fresh == state_.engine->logits(),
                  "incremental logits differ from a fresh GcnModel::infer");
  }

  void shape(RunResult& result) const override {
    result.shape = {
        {"nodes", static_cast<double>(nodes_)},
        {"edges", static_cast<double>(edges_)},
        {"nnz", static_cast<double>(nnz_)},
        {"inserted_per_round", 8.0},
        {"rounds", static_cast<double>(next_ / 8)},
    };
    if (!dirty_rows_.empty()) {
      std::vector<double> sorted = dirty_rows_;
      std::sort(sorted.begin(), sorted.end());
      result.shape["dirty_rows_median"] = sorted[sorted.size() / 2];
    }
  }
  const char* op_alias() const override { return "edit_p50_ms"; }

 private:
  // Pre-picked targets for 1024 rounds; a 216k-node round takes ~0.4 s,
  // so only tiny designs use them up before --seconds ends.
  static constexpr std::size_t kTargetPool = 8 * 1024;

  void setup_design() override {
    state_ = EditState();  // the previous repetition's design, before a new one
    design_path_ = options_.workdir + "/design216k.bench";
    Netlist design = generate(options_.scale.big_gates,
                              role_seed(options_.seed, Role::kBig));
    write_design(design, design_path_);
    nodes_ = design.size();
    edges_ = design.edge_count();
    targets_ = pick_edit_targets(
        design, role_seed(options_.seed, Role::kBig), kTargetPool);
    // A run needs two rounds (one untraced, one traced) at the least.
    if (targets_.size() < 16) {
      throw std::runtime_error("edit-216k: design has too few edit targets");
    }
    next_ = 0;
    dirty_rows_.clear();
    state_.build(std::move(design), *model_, nullptr);
    nnz_ = state_.tensors.pred.nnz() + state_.tensors.succ.nnz();
    state_.engine->refresh(state_.tensors);
  }

  EditState state_;
  std::vector<NodeId> targets_;
  std::size_t next_ = 0;
  std::size_t nodes_ = 0, edges_ = 0, nnz_ = 0;
  std::vector<double> dirty_rows_;
};

class TrainWorkload final : public BaseWorkload {
 public:
  void op(OpTrace* trace, Checks& checks) override {
    GcnModel model(model_config(kModelSeed));
    double loss = 0.0;
    if (trace) {
      gcnt::AdamOptimizer optimizer(kLearningRate);
      loss = train_step(model, optimizer, dataset_->tensors, kPositiveWeight,
                        trace);
    } else {
      gcnt::TrainerOptions options;
      options.epochs = 1;
      options.learning_rate = kLearningRate;
      options.positive_class_weight = kPositiveWeight;
      gcnt::Trainer trainer(model, options);
      loss = trainer.train({gcnt::TrainGraph{&dataset_->tensors, {}}}, nullptr)
                 .front()
                 .loss;
    }
    checks.expect("loss_finite", std::isfinite(loss));
    if (!reference_) {
      reference_ = std::make_unique<GcnModel>(model);
      reference_loss_ = loss;
    }
    checks.expect("epoch0_loss_repeat", loss == reference_loss_,
                  trace ? "replayed epoch loss differs from Trainer's"
                        : "epoch-0 loss changed between operations");
    checks.expect("epoch_params_repeat", same_params(model, *reference_),
                  trace ? "replayed epoch weights differ from Trainer's"
                        : "epoch weights changed between operations");
  }

  void shape(RunResult& result) const override {
    result.shape = {
        {"nodes", static_cast<double>(dataset_->netlist.size())},
        {"edges", static_cast<double>(dataset_->netlist.edge_count())},
        {"nnz", static_cast<double>(dataset_->tensors.pred.nnz() +
                                    dataset_->tensors.succ.nnz())},
        {"positives", static_cast<double>(dataset_->positives())},
    };
  }
  const char* op_alias() const override { return "epoch_s"; }

  /// One thread: at ~22k nodes each kernel call is too small to split.
  /// On a 4-core shared host 4 threads gave the same median epoch as 1
  /// (0.517 s vs 0.508 s over six interleaved pairs) but nearly three
  /// times the run-to-run spread (0.154 vs 0.059).
  std::size_t kernel_threads(std::size_t) const override { return 1; }

 private:
  void setup_design() override {
    design_path_ = options_.workdir + "/design20k.bench";
    Netlist design = generate(options_.scale.train_gates,
                              role_seed(options_.seed, Role::kTrain));
    write_design(design, design_path_);
    gcnt::LabelerOptions cop;
    cop.oracle = gcnt::LabelerOptions::Oracle::kCopThreshold;
    dataset_ = std::make_unique<gcnt::Dataset>(
        gcnt::make_dataset(std::move(design), cop));
    dataset_->tensors.standardize_features();
    reference_.reset();
  }

  std::unique_ptr<gcnt::Dataset> dataset_;
  std::unique_ptr<GcnModel> reference_;
  double reference_loss_ = 0.0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"infer-216k", "opi-10k",
                                                 "edit-216k", "train-20k"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "infer-216k") return std::make_unique<InferWorkload>();
  if (name == "opi-10k") return std::make_unique<OpiWorkload>();
  if (name == "edit-216k") return std::make_unique<EditWorkload>();
  if (name == "train-20k") return std::make_unique<TrainWorkload>();
  return nullptr;
}

}  // namespace perfbench
