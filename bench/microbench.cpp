// Kernel microbenchmarks (google-benchmark): the primitives whose speed
// the paper's "high performance" claim rests on — SpMM aggregation, dense
// encoding GEMM, whole-graph GCN inference, bit-parallel logic/fault
// simulation, and SCOAP/COP analysis passes.
//
// The parallel kernels (SpMM, GEMM, full inference, fault sim, COO->CSR)
// sweep the kernel-pool thread count (the trailing `threads` argument) so
// scaling is measured alongside absolute throughput. With GCNT_BENCH_JSON
// set, every result is also written as a flat JSON object (via
// bench_common) for the CI bench-regression gate (tools/bench_gate).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "common/trace.h"
#include "cop/cop.h"
#include "gcn/graph_tensors.h"
#include "gcn/model.h"
#include "gen/generator.h"
#include "nn/layers.h"
#include "scoap/scoap.h"
#include "sim/fault_sim.h"
#include "sim/logic_sim.h"
#include "tensor/simd/simd.h"
#include "tensor/sparse.h"

namespace {

using namespace gcnt;

const std::vector<std::int64_t> kThreadSweep{1, 2, 4, 8};

const Netlist& shared_netlist(std::size_t gates) {
  static std::map<std::size_t, Netlist> cache;
  auto it = cache.find(gates);
  if (it == cache.end()) {
    GeneratorConfig config;
    config.seed = 0xBE;
    config.target_gates = gates;
    config.primary_inputs = 64;
    config.primary_outputs = 32;
    config.flip_flops = gates / 24;
    it = cache.emplace(gates, generate_circuit(config)).first;
  }
  return it->second;
}

void BM_SpmmAggregation(benchmark::State& state) {
  const auto gates = static_cast<std::size_t>(state.range(0));
  set_kernel_threads(static_cast<std::size_t>(state.range(1)));
  const Netlist& netlist = shared_netlist(gates);
  const GraphTensors tensors = build_graph_tensors(netlist);
  Matrix embedding(tensors.node_count(), 64, 0.5f);
  Matrix out;
  for (auto _ : state) {
    tensors.pred.spmm(embedding, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tensors.pred.nnz()));
}
BENCHMARK(BM_SpmmAggregation)
    ->ArgsProduct({{10000, 100000}, kThreadSweep})
    ->ArgNames({"gates", "threads"});

/// Cache-blocked SpMM: the column-tile sweep (tile 0 = untiled default).
/// A wide dense operand makes the tiling effect visible; the result is
/// bitwise identical at every width (tensor_test pins this).
void BM_SpmmTiled(benchmark::State& state) {
  set_kernel_threads(static_cast<std::size_t>(state.range(1)));
  set_spmm_tile_cols(static_cast<std::size_t>(state.range(0)));
  const Netlist& netlist = shared_netlist(100000);
  const GraphTensors tensors = build_graph_tensors(netlist);
  Matrix embedding(tensors.node_count(), 128, 0.5f);
  Matrix out;
  for (auto _ : state) {
    tensors.pred.spmm(embedding, out);
    benchmark::DoNotOptimize(out.data());
  }
  set_spmm_tile_cols(0);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tensors.pred.nnz()));
}
BENCHMARK(BM_SpmmTiled)
    ->ArgsProduct({{0, 16, 32, 64}, {1, 8}})
    ->ArgNames({"tile", "threads"});

/// Its `x` is all zeros, so every A row is empty and this times the
/// GEMM's zero skip, not its multiply-adds (BM_GemmLayer times real
/// post-ReLU inputs).
void BM_EncoderGemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  set_kernel_threads(static_cast<std::size_t>(state.range(1)));
  Rng rng(3);
  Matrix x(n, 64);
  Matrix w(64, 128);
  w.xavier_init(rng);
  Matrix out;
  for (auto _ : state) {
    gemm(x, w, out, false, false);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_EncoderGemm)
    ->ArgsProduct({{10000, 50000}, kThreadSweep})
    ->ArgNames({"rows", "threads"});

/// Nonnegative activations with about 60% exact zeros, the post-ReLU zero
/// share of the traced training run (0.53-0.73 per layer).
Matrix post_relu(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  for (std::size_t i = 0; i < m.size(); ++i) {
    const float v = static_cast<float>(rng.normal()) - 0.25f;
    m.data()[i] = v > 0.0f ? v : 0.0f;
  }
  return m;
}

/// One GEMM of the paper model on ~20k rows, on one thread: a layer's
/// forward (gemm_bias_act), its input gradient dx = dy * W^T, or its
/// weight gradient dW += x^T * dy. Registered per case in main() as
/// BM_GemmLayer/<layer>.<op>; reported, not gated.
struct GemmLayerCase {
  const char* name;
  std::size_t in;
  std::size_t out;
  char op;  // 'f' forward, 'x' dx, 'w' dW
};
constexpr GemmLayerCase kGemmLayerCases[] = {
    {"enc0.fwd", 4, 32, 'f'},   {"enc1.fwd", 32, 64, 'f'},
    {"enc2.fwd", 64, 128, 'f'}, {"fc0.fwd", 128, 64, 'f'},
    {"fc1.fwd", 64, 64, 'f'},   {"fc2.fwd", 64, 128, 'f'},
    {"fc3.fwd", 128, 2, 'f'},   {"fc0.dx", 128, 64, 'x'},
    {"fc0.dw", 128, 64, 'w'},   {"fc3.dx", 128, 2, 'x'},
    {"fc3.dw", 128, 2, 'w'},
};

void BM_GemmLayer(benchmark::State& state, GemmLayerCase c) {
  constexpr std::size_t kRows = 20000;
  set_kernel_threads(1);
  Rng rng(3);
  Linear layer(c.in, c.out, rng);
  const Matrix x = post_relu(kRows, c.in, 5);
  // The classifier's gradient (softmax) is dense; inner ones are masked.
  Matrix dy = post_relu(kRows, c.out, 7);
  if (c.out == 2) {
    for (std::size_t i = 0; i < dy.size(); ++i) dy.data()[i] -= 0.5f;
  }
  Matrix out(c.in, c.out);
  for (auto _ : state) {
    if (c.op == 'f') {
      gemm_bias_act(x, layer.weight.value, layer.bias.value, out,
                    /*relu=*/c.out != 2);
    } else if (c.op == 'x') {
      gemm(dy, layer.weight.value, out, false, true);
    } else {
      gemm(x, dy, out, true, false, 1.0f, 1.0f);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  set_kernel_threads(0);
}

/// Single-thread GEMM per SIMD dispatch target (simd 0 = scalar,
/// 1 = avx2). The scalar/avx2 pair feeds the "SimdSpeedup.gemm" ratio
/// entry written by main(); the AVX2 leg skips on hosts without AVX2+FMA.
void BM_GemmSimd(benchmark::State& state) {
  const auto target = static_cast<SimdTarget>(state.range(0));
  if (!set_simd_target(target)) {
    state.SkipWithError("SIMD target unavailable on this host");
    return;
  }
  set_kernel_threads(1);
  Rng rng(3);
  Matrix x(20000, 64);
  x.xavier_init(rng);
  Matrix w(64, 128);
  w.xavier_init(rng);
  Matrix out;
  for (auto _ : state) {
    gemm(x, w, out, false, false);
    benchmark::DoNotOptimize(out.data());
  }
  reset_simd_target();
}
BENCHMARK(BM_GemmSimd)->ArgsProduct({{0, 1}})->ArgNames({"simd"});

/// Single-thread SpMM aggregation per SIMD dispatch target; pairs into
/// the "SimdSpeedup.spmm" ratio entry.
void BM_SpmmSimd(benchmark::State& state) {
  const auto target = static_cast<SimdTarget>(state.range(0));
  if (!set_simd_target(target)) {
    state.SkipWithError("SIMD target unavailable on this host");
    return;
  }
  set_kernel_threads(1);
  const Netlist& netlist = shared_netlist(100000);
  const GraphTensors tensors = build_graph_tensors(netlist);
  Matrix embedding(tensors.node_count(), 64, 0.5f);
  Matrix out;
  for (auto _ : state) {
    tensors.pred.spmm(embedding, out);
    benchmark::DoNotOptimize(out.data());
  }
  reset_simd_target();
  // No SetItemsProcessed: both legs must record real_time_ns so the
  // scalar/avx2 ratio in main() is a plain time quotient.
}
BENCHMARK(BM_SpmmSimd)->ArgsProduct({{0, 1}})->ArgNames({"simd"});

/// Dense layer with the bias+ReLU epilogue either fused into the GEMM
/// output pass (gemm_bias_act) or applied as separate passes afterwards.
void BM_LinearForward(benchmark::State& state) {
  const bool fused = state.range(0) != 0;
  set_kernel_threads(1);
  Rng rng(3);
  Matrix x(20000, 128);
  x.xavier_init(rng);
  Matrix w(128, 128);
  w.xavier_init(rng);
  const Matrix bias(1, 128, 0.1f);
  Matrix out;
  for (auto _ : state) {
    if (fused) {
      gemm_bias_act(x, w, bias, out, /*relu=*/true);
    } else {
      gemm(x, w, out, false, false);
      const SimdOps& ops = simd_ops();
      for (std::size_t r = 0; r < out.rows(); ++r) {
        ops.bias_add(out.row(r), bias.row(0), out.cols());
      }
      ops.relu(out.data(), out.rows() * out.cols());
    }
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_LinearForward)->ArgsProduct({{0, 1}})->ArgNames({"fused"});

/// Whole-graph inference with the CSR forms in node order (reorder 0)
/// versus RCM compute order (reorder 1). Results are bitwise identical;
/// only the SpMM gather locality changes.
void BM_GcnInferenceReorder(benchmark::State& state) {
  set_kernel_threads(8);
  set_graph_reorder(state.range(0) != 0 ? GraphReorder::kRcm
                                        : GraphReorder::kOff);
  const Netlist& netlist = shared_netlist(100000);
  const GraphTensors tensors = build_graph_tensors(netlist);
  reset_graph_reorder();
  GcnConfig config;
  config.embed_dims = {32, 64, 128};
  config.fc_dims = {64, 64, 128};
  GcnModel model(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.infer(tensors));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(netlist.size()));
}
BENCHMARK(BM_GcnInferenceReorder)
    ->ArgsProduct({{0, 1}})
    ->ArgNames({"reorder"});

void BM_GcnFullInference(benchmark::State& state) {
  const auto gates = static_cast<std::size_t>(state.range(0));
  set_kernel_threads(static_cast<std::size_t>(state.range(1)));
  const Netlist& netlist = shared_netlist(gates);
  const GraphTensors tensors = build_graph_tensors(netlist);
  GcnConfig config;
  config.embed_dims = {32, 64, 128};
  config.fc_dims = {64, 64, 128};
  GcnModel model(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.infer(tensors));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(netlist.size()));
}
BENCHMARK(BM_GcnFullInference)
    ->ArgsProduct({{10000, 100000}, {1, 8}})
    ->ArgNames({"gates", "threads"});

void BM_LogicSimBatch(benchmark::State& state) {
  const Netlist& netlist = shared_netlist(50000);
  LogicSimulator sim(netlist);
  Rng rng(5);
  const PatternBatch batch = sim.random_batch(rng);
  std::vector<std::uint64_t> values;
  for (auto _ : state) {
    sim.simulate(batch, values);
    benchmark::DoNotOptimize(values.data());
  }
  // 64 patterns per run.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_LogicSimBatch);

void BM_FaultSimBatch(benchmark::State& state) {
  set_kernel_threads(static_cast<std::size_t>(state.range(0)));
  const Netlist& netlist = shared_netlist(10000);
  LogicSimulator sim(netlist);
  ParallelFaultSimulator fault_sim(sim);
  Rng rng(7);
  const auto faults = sample_faults(netlist, 512, 9);
  for (auto _ : state) {
    std::vector<bool> detected(faults.size(), false);
    std::vector<std::uint64_t> words;
    const PatternBatch batch = sim.random_batch(rng);
    benchmark::DoNotOptimize(
        fault_sim.run_batch(batch, faults, detected, words));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(faults.size()));
}
BENCHMARK(BM_FaultSimBatch)->ArgsProduct({kThreadSweep})->ArgNames({"threads"});

void BM_ScoapFull(benchmark::State& state) {
  const Netlist& netlist = shared_netlist(100000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_scoap(netlist));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(netlist.size()));
}
BENCHMARK(BM_ScoapFull);

void BM_ScoapIncrementalObserve(benchmark::State& state) {
  Netlist netlist = shared_netlist(50000);  // copy: we mutate it
  ScoapMeasures measures = compute_scoap(netlist);
  NodeId target = 0;
  for (NodeId v = netlist.size() / 2; v < netlist.size(); ++v) {
    if (is_logic(netlist.type(v))) {
      target = v;
      break;
    }
  }
  netlist.insert_observe_point(target);
  for (auto _ : state) {
    update_observability_after_observe(netlist, target, measures);
    benchmark::DoNotOptimize(measures.co.data());
  }
}
BENCHMARK(BM_ScoapIncrementalObserve);

void BM_CopFull(benchmark::State& state) {
  const Netlist& netlist = shared_netlist(100000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_cop(netlist));
  }
}
BENCHMARK(BM_CopFull);

void BM_CooToCsr(benchmark::State& state) {
  set_kernel_threads(static_cast<std::size_t>(state.range(0)));
  const Netlist& netlist = shared_netlist(100000);
  const GraphTensors tensors = build_graph_tensors(netlist);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CsrMatrix::from_coo(tensors.pred_coo));
  }
}
BENCHMARK(BM_CooToCsr)->ArgsProduct({{1, 8}})->ArgNames({"threads"});

/// Bytes the in-place append shifts in `m` when `first_row` is its first
/// touched row: the col_index/values entries and row_ptr slots after it.
double shifted_bytes(const CsrMatrix& m, std::uint32_t first_row) {
  if (first_row >= m.rows()) return 0.0;
  const std::size_t entries = m.nnz() - m.row_ptr()[first_row];
  return static_cast<double>(entries * (sizeof(std::uint32_t) + sizeof(float)) +
                             (m.rows() - first_row) * sizeof(std::uint32_t));
}

/// One OP edit round on a resident 100k-gate design: 8 OPs at small-cone
/// targets (insertion, SCOAP repair and COO append run untimed), then the
/// timed rebuild_csr, which applies the 16 appended tuples to the four CSR
/// forms in place. bytes_per_round is what that shifts.
void BM_RebuildCsrAppend(benchmark::State& state) {
  Netlist netlist = shared_netlist(100000);
  ScoapMeasures scoap = compute_scoap(netlist);
  GraphTensors tensors = build_graph_tensors(netlist);
  const auto original = static_cast<NodeId>(netlist.size());
  NodeId cursor = 0;
  const auto next_target = [&] {
    for (;;) {
      cursor = (cursor + 7919) % original;
      if (is_logic(netlist.type(cursor)) &&
          netlist.fanin_cone(cursor, 256).size() < 256) {
        return cursor;
      }
    }
  };
  double bytes = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    std::uint32_t first_target_row = std::numeric_limits<std::uint32_t>::max();
    for (int i = 0; i < 8; ++i) {
      const NodeId target = next_target();
      const NodeId op = netlist.insert_observe_point(target);
      const std::vector<NodeId> cone =
          update_observability_after_observe(netlist, target, scoap);
      append_observe_point(tensors, netlist, target, op, scoap, cone);
      first_target_row = std::min(first_target_row, tensors.row_of(target));
    }
    // New OP rows land past the end of pred/succ_t; succ and pred_t gain
    // an entry in each target's row.
    bytes += shifted_bytes(tensors.succ, first_target_row) +
             shifted_bytes(tensors.pred_t, first_target_row);
    state.ResumeTiming();
    tensors.rebuild_csr();
  }
  state.counters["bytes_per_round"] =
      benchmark::Counter(bytes / static_cast<double>(state.iterations()));
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_RebuildCsrAppend)->Unit(benchmark::kMillisecond);

/// Console output as usual, plus a flat (name, value) record per run for
/// the CI regression gate: items/s when the benchmark reports it,
/// adjusted real time otherwise.
class JsonRecorder : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) {
        entries_.emplace_back(run.benchmark_name() + ".items_per_second",
                              static_cast<double>(it->second));
      } else {
        entries_.emplace_back(run.benchmark_name() + ".real_time_ns",
                              run.GetAdjustedRealTime());
      }
    }
  }
  const std::vector<std::pair<std::string, double>>& entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, double>> entries_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  gcnt::trace_set_thread_name("main");
  for (const GemmLayerCase& c : kGemmLayerCases) {
    benchmark::RegisterBenchmark(
        (std::string("BM_GemmLayer/") + c.name).c_str(), BM_GemmLayer, c);
  }
  JsonRecorder reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  publish_kernel_pool_stats();
  set_kernel_threads(0);
  // Derived entries: single-thread AVX2-over-scalar speedups from the
  // BM_*Simd dispatch pairs (scalar time / avx2 time, so >= 1 means AVX2
  // wins). Committed to the baseline JSON, these put the vectorization
  // win under the same regression gate as every other number.
  std::vector<std::pair<std::string, double>> entries = reporter.entries();
  const auto find_entry = [&](const std::string& needle) -> const double* {
    for (const auto& entry : entries) {
      if (entry.first.find(needle) != std::string::npos) return &entry.second;
    }
    return nullptr;
  };
  const struct {
    const char* key;
    const char* scalar;
    const char* avx2;
  } kSpeedups[] = {
      {"SimdSpeedup.gemm", "BM_GemmSimd/simd:0", "BM_GemmSimd/simd:1"},
      {"SimdSpeedup.spmm", "BM_SpmmSimd/simd:0", "BM_SpmmSimd/simd:1"},
  };
  for (const auto& speedup : kSpeedups) {
    const double* scalar_ns = find_entry(speedup.scalar);
    const double* avx2_ns = find_entry(speedup.avx2);
    if (scalar_ns != nullptr && avx2_ns != nullptr && *avx2_ns > 0.0) {
      entries.emplace_back(speedup.key, *scalar_ns / *avx2_ns);
    }
  }
  if (const char* path = std::getenv("GCNT_BENCH_JSON")) {
    if (!bench::write_bench_json(path, entries)) {
      std::cerr << "microbench: failed to write GCNT_BENCH_JSON to " << path
                << "\n";
      return 1;
    }
  }
  // With GCNT_STATS=1 the per-kernel calls/latency registry narrates where
  // the benchmark time went (spans go to GCNT_TRACE's atexit writer).
  if (stats_enabled()) StatsRegistry::instance().write_text(std::cerr);
  benchmark::Shutdown();
  return 0;
}
