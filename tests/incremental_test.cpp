// Incremental dirty-cone inference (gcn/incremental.h): the equivalence
// suite pinning the bit-identity claim — incremental logits must equal a
// full GcnModel::infer after 1, 8, and 64 OP insertions, across thread
// counts and SpMM tile widths — plus DirtyConeTracker unit tests and the
// OPI/CPI end-to-end incremental-vs-full comparison.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/parallel.h"
#include "common/stats.h"
#include "cop/cop.h"
#include "data/labeler.h"
#include "dft/gcn_cpi.h"
#include "dft/gcn_opi.h"
#include "gcn/graph_tensors.h"
#include "gcn/incremental.h"
#include "gcn/model.h"
#include "gcn/trainer.h"
#include "gen/generator.h"
#include "netlist/netlist.h"
#include "scoap/scoap.h"
#include "tensor/sparse.h"

namespace gcnt {
namespace {

Netlist test_netlist(std::uint64_t seed, std::size_t gates = 2000) {
  GeneratorConfig config;
  config.seed = seed;
  config.target_gates = gates;
  config.primary_inputs = 30;
  config.primary_outputs = 12;
  config.flip_flops = 32;
  return generate_circuit(config);
}

GcnConfig small_config(int depth = 3) {
  GcnConfig config;
  config.depth = depth;
  config.embed_dims = {8, 12, 16};
  config.embed_dims.resize(depth);
  config.fc_dims = {16};
  config.seed = 77;
  return config;
}

/// Valid OP targets in the OPI sense: drive a real signal and do not
/// already feed an observation point.
std::vector<NodeId> op_targets(const Netlist& netlist, std::size_t count) {
  std::vector<NodeId> targets;
  for (NodeId v = 0; v < netlist.size() && targets.size() < count; ++v) {
    const CellType t = netlist.type(v);
    if (is_sink(t) || t == CellType::kInput) continue;
    targets.push_back(v);
  }
  return targets;
}

/// Applies `count` OP insertions exactly as run_gcn_opi does (netlist
/// mutation, SCOAP repair, append_observe_point, tracker records) and
/// returns the rebuilt tensors ready for prediction.
void insert_ops(Netlist& netlist, GraphTensors& tensors, ScoapMeasures& scoap,
                std::vector<std::uint32_t>& levels,
                const std::vector<NodeId>& targets, DirtyConeTracker& tracker) {
  for (const NodeId target : targets) {
    const NodeId op = netlist.insert_observe_point(target);
    update_observability_after_observe(netlist, target, scoap);
    levels.resize(netlist.size(), 0);
    levels[op] = levels[target] + 1;
    const std::vector<NodeId> cone = netlist.fanin_cone(target);
    std::vector<NodeId> changed_rows;
    append_observe_point(tensors, netlist, target, op, scoap, cone,
                         &changed_rows);
    tracker.record_new_node(op);
    tracker.record_edge(target, op);
    for (NodeId v : changed_rows) tracker.record_feature(v);
  }
  tensors.rebuild_csr();
}

TEST(DirtyCone, AffectedIsSortedClosureOverBothDirections) {
  const Netlist netlist = test_netlist(11, 300);
  const GraphTensors tensors = build_graph_tensors(netlist);
  // Pick a gate with both fanins and fanouts as the seed.
  NodeId seed = kInvalidNode;
  for (NodeId v = 0; v < netlist.size(); ++v) {
    if (!netlist.fanins(v).empty() && !netlist.fanouts(v).empty()) {
      seed = v;
      break;
    }
  }
  ASSERT_NE(seed, kInvalidNode);

  DirtyConeTracker tracker;
  tracker.record_feature(seed);
  const auto zero_hop = tracker.affected(tensors, 0);
  EXPECT_EQ(zero_hop, std::vector<NodeId>{seed});

  const auto one_hop = tracker.affected(tensors, 1);
  EXPECT_TRUE(std::is_sorted(one_hop.begin(), one_hop.end()));
  // Exactly the seed plus its immediate fanins and fanouts.
  std::vector<NodeId> expected{seed};
  for (NodeId u : netlist.fanins(seed)) expected.push_back(u);
  for (NodeId w : netlist.fanouts(seed)) expected.push_back(w);
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()),
                 expected.end());
  EXPECT_EQ(one_hop, expected);

  // Deeper closures are supersets and monotone in depth.
  const auto two_hop = tracker.affected(tensors, 2);
  EXPECT_GE(two_hop.size(), one_hop.size());
  EXPECT_TRUE(std::includes(two_hop.begin(), two_hop.end(), one_hop.begin(),
                            one_hop.end()));
}

TEST(DirtyCone, SeedOutOfRangeThrows) {
  const Netlist netlist = test_netlist(12, 100);
  const GraphTensors tensors = build_graph_tensors(netlist);
  DirtyConeTracker tracker;
  tracker.record_feature(static_cast<NodeId>(netlist.size()));
  EXPECT_THROW(tracker.affected(tensors, 2), std::out_of_range);
}

TEST(DirtyCone, StaleCsrThrows) {
  const Netlist netlist = test_netlist(13, 100);
  GraphTensors tensors = build_graph_tensors(netlist);
  // Grow the COO beyond the built CSR without rebuilding.
  tensors.features.resize(netlist.size() + 1, kNodeFeatureDim);
  DirtyConeTracker tracker;
  tracker.record_feature(0);
  EXPECT_THROW(tracker.affected(tensors, 1), std::invalid_argument);
}

TEST(DirtyCone, ClearForgetsSeeds) {
  DirtyConeTracker tracker;
  tracker.record_edge(1, 2);
  EXPECT_FALSE(tracker.empty());
  EXPECT_EQ(tracker.seed_count(), 2u);
  tracker.clear();
  EXPECT_TRUE(tracker.empty());
}

TEST(Incremental, RefreshMatchesInferBitwise) {
  const Netlist netlist = test_netlist(21);
  const GraphTensors tensors = build_graph_tensors(netlist);
  const GcnModel model(small_config());
  IncrementalGcnEngine engine(model);
  const Matrix& logits = engine.refresh(tensors);
  EXPECT_EQ(logits, model.infer(tensors));  // bitwise, not approximate
  EXPECT_EQ(engine.positive_probability(),
            model.predict_positive_probability(tensors));
}

/// The core equivalence matrix from the issue: incremental logits ==
/// full-infer logits after 1, 8, and 64 OP insertions, for GCNT_THREADS in
/// {1, 8} and SpMM tile widths {one tile, many tiles}.
TEST(Incremental, UpdateMatchesFullInferAcrossThreadsAndTiles) {
  for (const std::size_t insertions : {1u, 8u, 64u}) {
    for (const int threads : {1, 8}) {
      for (const std::size_t tile :
           {std::numeric_limits<std::size_t>::max(), std::size_t{3}}) {
        set_kernel_threads(threads);
        set_spmm_tile_cols(tile);

        Netlist netlist = test_netlist(31);
        ScoapMeasures scoap = compute_scoap(netlist);
        std::vector<std::uint32_t> levels = netlist.logic_levels();
        GraphTensors tensors = build_graph_tensors(netlist, scoap, levels);
        const GcnModel model(small_config());
        // Fallback disabled: force the incremental path even at 64
        // insertions so the subset kernels themselves are what is tested.
        IncrementalGcnEngine engine(model, IncrementalGcnOptions{2.0});
        engine.refresh(tensors);

        DirtyConeTracker tracker;
        const auto targets = op_targets(netlist, insertions);
        ASSERT_EQ(targets.size(), insertions);
        insert_ops(netlist, tensors, scoap, levels, targets, tracker);

        const auto dirty = tracker.affected(tensors, model.config().depth);
        engine.update(tensors, dirty);
        EXPECT_FALSE(engine.last_was_full());
        EXPECT_EQ(engine.last_dirty_rows(), dirty.size());
        EXPECT_EQ(engine.logits(), model.infer(tensors))
            << "insertions=" << insertions << " threads=" << threads
            << " tile=" << tile;

        set_kernel_threads(0);
        set_spmm_tile_cols(0);
      }
    }
  }
}

TEST(Incremental, RepeatedUpdateBatchesStayIdentical) {
  // Several update() rounds in sequence (as the OPI loop performs) must
  // keep the cache exact: compare against a full infer after each batch.
  Netlist netlist = test_netlist(41);
  ScoapMeasures scoap = compute_scoap(netlist);
  std::vector<std::uint32_t> levels = netlist.logic_levels();
  GraphTensors tensors = build_graph_tensors(netlist, scoap, levels);
  const GcnModel model(small_config(2));
  IncrementalGcnEngine engine(model, IncrementalGcnOptions{2.0});
  engine.refresh(tensors);

  auto all_targets = op_targets(netlist, 24);
  ASSERT_EQ(all_targets.size(), 24u);
  for (int round = 0; round < 3; ++round) {
    DirtyConeTracker tracker;
    const std::vector<NodeId> batch(all_targets.begin() + round * 8,
                                    all_targets.begin() + (round + 1) * 8);
    insert_ops(netlist, tensors, scoap, levels, batch, tracker);
    engine.update(tensors, tracker.affected(tensors, model.config().depth));
    EXPECT_FALSE(engine.last_was_full());
    EXPECT_EQ(engine.logits(), model.infer(tensors)) << "round=" << round;
  }
}

TEST(Incremental, FallsBackAboveDirtyFractionThreshold) {
  const Netlist netlist = test_netlist(51, 400);
  const GraphTensors tensors = build_graph_tensors(netlist);
  const GcnModel model(small_config(2));
  IncrementalGcnEngine engine(model, IncrementalGcnOptions{0.0});
  engine.refresh(tensors);
  // Any non-empty dirty set exceeds a 0.0 threshold -> full fallback.
  engine.update(tensors, {0});
  EXPECT_TRUE(engine.last_was_full());
  EXPECT_EQ(engine.logits(), model.infer(tensors));
}

TEST(Incremental, UpdateWithoutCacheRunsFullForward) {
  const Netlist netlist = test_netlist(52, 300);
  const GraphTensors tensors = build_graph_tensors(netlist);
  const GcnModel model(small_config(2));
  IncrementalGcnEngine engine(model);
  engine.update(tensors, {1, 2, 3});
  EXPECT_TRUE(engine.last_was_full());
  EXPECT_EQ(engine.logits(), model.infer(tensors));
}

TEST(Incremental, UpdateValidatesInputs) {
  const Netlist netlist = test_netlist(53, 300);
  GraphTensors tensors = build_graph_tensors(netlist);
  const GcnModel model(small_config(2));
  IncrementalGcnEngine engine(model, IncrementalGcnOptions{2.0});
  engine.refresh(tensors);
  EXPECT_THROW(
      engine.update(tensors, {static_cast<NodeId>(netlist.size())}),
      std::out_of_range);
  // Grown features without rebuild_csr -> stale CSR must be rejected.
  Matrix grown(tensors.features.rows() + 1, kNodeFeatureDim);
  for (std::size_t r = 0; r < tensors.features.rows(); ++r) {
    for (std::size_t c = 0; c < kNodeFeatureDim; ++c) {
      grown.at(r, c) = tensors.features.at(r, c);
    }
  }
  tensors.features = std::move(grown);
  EXPECT_THROW(engine.update(tensors, {0}), std::invalid_argument);
}

TEST(Incremental, OpiFlowIdenticalWithAndWithoutIncremental) {
  // End-to-end pin: the full OPI loop makes exactly the same decisions
  // whether predictions come from the incremental engine or from scratch.
  const GcnModel model(small_config());
  GcnOpiOptions options;
  options.max_iterations = 3;
  options.insert_fraction = 0.2;

  Netlist full_netlist = test_netlist(61, 600);
  Netlist incremental_netlist = full_netlist;
  options.incremental = false;
  const OpiResult full = run_gcn_opi(full_netlist, {&model}, options);
  options.incremental = true;
  const OpiResult incremental =
      run_gcn_opi(incremental_netlist, {&model}, options);

  EXPECT_EQ(full.inserted, incremental.inserted);
  EXPECT_EQ(full.iterations, incremental.iterations);
  EXPECT_EQ(full.final_positive_predictions,
            incremental.final_positive_predictions);
  EXPECT_GT(incremental.inserted.size(), 0u);
}

TEST(Incremental, CpiFlowIdenticalWithAndWithoutIncremental) {
  Netlist full_netlist = test_netlist(62, 500);
  Netlist incremental_netlist = full_netlist;

  // A briefly trained difficult-to-control classifier: an untrained model
  // may predict no positives at all, which would make this test vacuous.
  GraphTensors train_tensors = build_graph_tensors(full_netlist);
  train_tensors.labels = label_difficult_to_control(
      full_netlist, compute_cop(full_netlist), 0.02);
  GcnModel model(small_config(2));
  TrainerOptions trainer_options;
  trainer_options.epochs = 60;
  trainer_options.learning_rate = 1e-2f;
  trainer_options.positive_class_weight = 6.0f;
  trainer_options.eval_interval = trainer_options.epochs;
  Trainer trainer(model, trainer_options);
  const TrainGraph data{&train_tensors, {}};
  trainer.train({data}, nullptr);

  GcnCpiOptions options;
  options.max_iterations = 2;
  options.insert_fraction = 0.2;
  options.incremental = false;
  const GcnCpiResult full = run_gcn_cpi(full_netlist, {&model}, options);
  options.incremental = true;
  const GcnCpiResult incremental =
      run_gcn_cpi(incremental_netlist, {&model}, options);

  EXPECT_GT(full.inserted.size(), 0u);
  ASSERT_EQ(full.inserted.size(), incremental.inserted.size());
  for (std::size_t i = 0; i < full.inserted.size(); ++i) {
    EXPECT_EQ(full.inserted[i].control, incremental.inserted[i].control);
    EXPECT_EQ(full.inserted[i].gate, incremental.inserted[i].gate);
    EXPECT_EQ(full.inserted[i].inverter, incremental.inserted[i].inverter);
  }
  EXPECT_EQ(full.iterations, incremental.iterations);
  EXPECT_EQ(full.final_positive_predictions,
            incremental.final_positive_predictions);
}

TEST(Incremental, RcmReorderingKeepsIncrementalBitIdentical) {
  // Under RCM reordering the cached embeddings live in compute row order
  // and appended nodes extend the permutation with an identity tail; the
  // incremental path must stay bit-identical to a full infer, which in
  // turn must match a never-reordered run.
  set_graph_reorder(GraphReorder::kRcm);
  Netlist netlist = test_netlist(51, 1200);
  ScoapMeasures scoap = compute_scoap(netlist);
  std::vector<std::uint32_t> levels = netlist.logic_levels();
  GraphTensors tensors = build_graph_tensors(netlist, scoap, levels);
  reset_graph_reorder();
  ASSERT_TRUE(tensors.reordered());

  const GcnModel model(small_config(2));
  IncrementalGcnEngine engine(model, IncrementalGcnOptions{2.0});
  engine.refresh(tensors);
  EXPECT_EQ(engine.logits(), model.infer(tensors));

  DirtyConeTracker tracker;
  const auto targets = op_targets(netlist, 12);
  ASSERT_EQ(targets.size(), 12u);
  insert_ops(netlist, tensors, scoap, levels, targets, tracker);
  ASSERT_TRUE(tensors.reordered());  // identity-tail extension survived

  const auto dirty = tracker.affected(tensors, model.config().depth);
  engine.update(tensors, dirty);
  EXPECT_FALSE(engine.last_was_full());
  EXPECT_EQ(engine.logits(), model.infer(tensors));

  // Same graph rebuilt without any reordering: logits agree bitwise.
  GraphTensors plain = tensors;
  plain.compute_row.clear();
  plain.compute_node.clear();
  set_graph_reorder(GraphReorder::kOff);
  plain.rebuild_csr();
  reset_graph_reorder();
  ASSERT_FALSE(plain.reordered());
  EXPECT_EQ(engine.logits(), model.infer(plain));
}

/// Bitwise comparison of two CSR matrices (shape, row_ptr, col_index and
/// the bits of every value).
void expect_same_csr(const CsrMatrix& got, const CsrMatrix& want,
                     const char* form) {
  SCOPED_TRACE(form);
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  EXPECT_EQ(got.row_ptr(), want.row_ptr());
  EXPECT_EQ(got.col_index(), want.col_index());
  ASSERT_EQ(got.nnz(), want.nnz());
  EXPECT_EQ(std::memcmp(got.values().data(), want.values().data(),
                        got.nnz() * sizeof(float)),
            0);
}

/// All four CSR forms against from_coo + transpose of the full COO lists,
/// mapped into the tensors' compute order.
void expect_full_build(const GraphTensors& tensors) {
  const auto full = [&](const CooMatrix& coo) {
    CooMatrix mapped(coo.rows, coo.cols);
    for (std::size_t k = 0; k < coo.nnz(); ++k) {
      mapped.add(tensors.row_of(coo.row_index[k]),
                 tensors.row_of(coo.col_index[k]), coo.values[k]);
    }
    return CsrMatrix::from_coo(mapped);
  };
  const CsrMatrix pred = full(tensors.pred_coo);
  const CsrMatrix succ = full(tensors.succ_coo);
  expect_same_csr(tensors.pred, pred, "pred");
  expect_same_csr(tensors.succ, succ, "succ");
  expect_same_csr(tensors.pred_t, pred.transpose(), "pred_t");
  expect_same_csr(tensors.succ_t, succ.transpose(), "succ_t");
}

std::uint64_t full_rebuilds() {
  return StatsRegistry::instance().counter("graph.csr_full_rebuilds").value();
}

class CsrAppend
    : public ::testing::TestWithParam<std::tuple<GraphReorder, std::size_t>> {
 protected:
  void SetUp() override {
    set_graph_reorder(std::get<0>(GetParam()));
    set_kernel_threads(std::get<1>(GetParam()));
    stats_were_on_ = stats_enabled();
    set_stats_enabled(true);
  }
  void TearDown() override {
    set_stats_enabled(stats_were_on_);
    set_kernel_threads(0);
    reset_graph_reorder();
  }

 private:
  bool stats_were_on_ = false;
};

TEST_P(CsrAppend, OpRoundsMatchFullBuild) {
  Netlist netlist = test_netlist(41, 1500);
  ScoapMeasures scoap = compute_scoap(netlist);
  std::vector<std::uint32_t> levels = netlist.logic_levels();
  GraphTensors tensors = build_graph_tensors(netlist, scoap, levels);
  ASSERT_EQ(tensors.reordered(),
            std::get<0>(GetParam()) == GraphReorder::kRcm);
  expect_full_build(tensors);

  const std::uint64_t full_before = full_rebuilds();
  const auto targets = op_targets(netlist, 40);
  ASSERT_EQ(targets.size(), 40u);
  for (std::size_t round = 0; round < 5; ++round) {
    DirtyConeTracker tracker;
    insert_ops(netlist, tensors, scoap, levels,
               {targets.begin() + 8 * round, targets.begin() + 8 * round + 8},
               tracker);
    expect_full_build(tensors);
  }
  EXPECT_EQ(full_rebuilds(), full_before);
}

TEST_P(CsrAppend, RawTailsMergeLikeFromCoo) {
  Netlist netlist = test_netlist(42, 800);
  GraphTensors tensors = build_graph_tensors(netlist);
  const std::uint64_t full_before = full_rebuilds();

  // Find a node with a fanin and no self-loop to aim the tuples at.
  NodeId v = 0;
  while (netlist.fanins(v).empty()) ++v;
  const NodeId u = netlist.fanins(v).front();
  const NodeId w = static_cast<NodeId>(netlist.size() - 1);

  // Repeat an existing coordinate, add a self-loop, repeat a coordinate
  // new in this tail, and touch the first and the last row. Each 3e-8 is
  // below half an ulp of 1, so 1 + 3e-8 + 3e-8 keeps 1 only when summed
  // left to right: the summation order shows in the bits.
  tensors.pred_coo.add(v, u, 3e-8f);
  tensors.pred_coo.add(v, v, 1.0f);
  tensors.pred_coo.add(v, u, 3e-8f);
  tensors.pred_coo.add(v, v, 3e-8f);
  tensors.pred_coo.add(v, v, 3e-8f);
  tensors.pred_coo.add(0, w, 0.2f);
  tensors.pred_coo.add(w, 0, 0.6f);
  tensors.succ_coo.add(u, v, 0.3f);
  tensors.succ_coo.add(w, w, 1.5f);
  tensors.succ_coo.add(w, w, 1e-7f);
  tensors.rebuild_csr();
  expect_full_build(tensors);

  // An empty round and a second tail on the grown rows.
  tensors.rebuild_csr();
  tensors.pred_coo.add(v, v, 0.9f);
  tensors.succ_coo.add(0, w, 0.4f);
  tensors.rebuild_csr();
  expect_full_build(tensors);
  EXPECT_EQ(full_rebuilds(), full_before);
}

TEST_P(CsrAppend, AnythingButAnAppendTakesTheFullBuild) {
  Netlist netlist = test_netlist(43, 800);
  ScoapMeasures scoap = compute_scoap(netlist);
  std::vector<std::uint32_t> levels = netlist.logic_levels();
  GraphTensors tensors = build_graph_tensors(netlist, scoap, levels);
  const auto targets = op_targets(netlist, 16);
  DirtyConeTracker tracker;
  insert_ops(netlist, tensors, scoap, levels,
             {targets.begin(), targets.begin() + 8}, tracker);

  // A COO list shorter than at the last build.
  std::uint64_t full_before = full_rebuilds();
  tensors.succ_coo.row_index.pop_back();
  tensors.succ_coo.col_index.pop_back();
  tensors.succ_coo.values.pop_back();
  tensors.rebuild_csr();
  EXPECT_EQ(full_rebuilds(), full_before + 1);
  expect_full_build(tensors);

  // The permutation cleared: a reordered graph is rebuilt whole, in a
  // recomputed order or unreordered (clearing an identity order changes
  // nothing).
  for (const GraphReorder reorder :
       {std::get<0>(GetParam()), GraphReorder::kOff}) {
    full_before = full_rebuilds();
    const bool was_reordered = tensors.reordered();
    tensors.compute_row.clear();
    tensors.compute_node.clear();
    set_graph_reorder(reorder);
    tensors.rebuild_csr();
    EXPECT_EQ(tensors.reordered(), reorder == GraphReorder::kRcm);
    EXPECT_EQ(full_rebuilds(), full_before + (was_reordered ? 1 : 0));
    expect_full_build(tensors);
  }
  set_graph_reorder(std::get<0>(GetParam()));

  // A fresh tensor assigned: its own build is the only full one, and the
  // rounds after it append again.
  tensors = build_graph_tensors(netlist);
  full_before = full_rebuilds();
  insert_ops(netlist, tensors, scoap, levels,
             {targets.begin() + 8, targets.end()}, tracker);
  EXPECT_EQ(full_rebuilds(), full_before);
  expect_full_build(tensors);
}

INSTANTIATE_TEST_SUITE_P(
    ReorderThreads, CsrAppend,
    ::testing::Combine(
        ::testing::Values(GraphReorder::kOff, GraphReorder::kRcm),
        ::testing::Values(std::size_t{1}, std::size_t{4})),
    [](const auto& info) {
      const bool rcm = std::get<0>(info.param) == GraphReorder::kRcm;
      return std::string(rcm ? "Rcm" : "Off") + "Threads" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace gcnt
