#pragma once
// Layer-level building blocks shared by the workloads: the CLI's netlist
// read and write, the OPI edit step (one observation point through
// netlist, scoap and the incremental GCN), candidate ranking, a
// layer-by-layer replay of the GCN forward and backward through public
// calls, and the probe that measures every layer on a workload's design.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "gcn/graph_tensors.h"
#include "gcn/incremental.h"
#include "gcn/model.h"
#include "netlist/netlist.h"
#include "nn/optimizer.h"
#include "scoap/scoap.h"

namespace perfbench {

/// gcnt train's settings: Adam at learning rate 1e-2, positive-class
/// weight 8.
constexpr float kLearningRate = 1e-2f;
constexpr float kPositiveWeight = 8.0f;

/// The CLI's netlist write: .bench text through atomic_write_file
/// (temp file, fsync, rename).
void write_design(const gcnt::Netlist& netlist, const std::string& path);

/// The CLI's netlist read, timed with its throughput when `trace` is given.
gcnt::Netlist read_design(const std::string& path, OpTrace* trace);

/// A netlist with the state the OPI flow keeps next to it.
struct EditState {
  gcnt::Netlist netlist;
  gcnt::ScoapMeasures scoap;
  std::vector<std::uint32_t> levels;
  gcnt::GraphTensors tensors;
  std::unique_ptr<gcnt::IncrementalGcnEngine> engine;
  gcnt::DirtyConeTracker tracker;

  /// SCOAP, levels and standardized tensors of `netlist`; a fresh engine.
  void build(gcnt::Netlist design, const gcnt::GcnModel& model,
             OpTrace* trace);
};

/// The OPI flow's target rule: a driven signal that feeds no OP yet.
bool valid_target(const gcnt::Netlist& netlist, gcnt::NodeId v);

/// `count` distinct valid targets, drawn with a seeded RNG, each with a
/// fan-in cone under 256 nodes.
std::vector<gcnt::NodeId> pick_edit_targets(const gcnt::Netlist& netlist,
                                            std::uint64_t seed,
                                            std::size_t count);

/// Inserts one observation point at `target` the way run_gcn_opi does and
/// records the perturbation in the tracker.
void insert_op(EditState& state, gcnt::NodeId target, OpTrace* trace);

/// rebuild_csr after a batch of insertions.
void rebuild(EditState& state, OpTrace* trace);

/// The dirty closure of the recorded insertions and the incremental
/// update; clears the tracker.
void update(EditState& state, OpTrace* trace);

/// Candidates ranked by impact, highest first, as run_gcn_opi ranks them.
std::vector<std::pair<int, gcnt::NodeId>> rank_candidates(
    const EditState& state, const gcnt::GcnModel& model,
    const std::vector<gcnt::NodeId>& candidates,
    const std::vector<std::int32_t>& predictions, OpTrace* trace);

/// Positive predictions (p >= 0.5) from the engine's cached logits.
std::vector<std::int32_t> engine_predictions(const EditState& state);

/// Valid targets among the positive predictions.
std::vector<gcnt::NodeId> opi_candidates(
    const gcnt::Netlist& netlist, const std::vector<std::int32_t>& predictions);

/// The OPI flow's insertion budget for one ranked list.
std::vector<gcnt::NodeId> plan_insertions(
    const std::vector<std::pair<int, gcnt::NodeId>>& ranked);

/// True when every logit is finite.
bool all_finite(const gcnt::Matrix& m);

/// One training epoch on one graph (all rows) through public calls, in
/// the order Trainer::train runs it: forward, loss, backward, optimizer
/// step, then the epoch's accuracy evaluation. Returns the loss.
double train_step(gcnt::GcnModel& model, gcnt::Optimizer& optimizer,
                  const gcnt::GraphTensors& graph, float positive_weight,
                  OpTrace* trace);

/// Measures, on the design in `bench_path`, every per-layer metric that
/// `rec` does not hold yet: netlist I/O, SCOAP, tensor build, model load,
/// cold/warm/one-thread forwards, the layer replay (checked bitwise
/// against GcnModel::infer), the backward replay, one training step, an
/// OPI ranking pass and a few edit rounds.
void probe_design(const std::string& bench_path, const std::string& model_path,
                  const gcnt::GcnModel& model, std::uint64_t seed,
                  const Scale& scale, Recorder& rec, Checks& checks);

}  // namespace perfbench
