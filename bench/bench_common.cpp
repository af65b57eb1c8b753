#include "bench_common.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/artifact.h"
#include "common/error.h"
#include "common/log.h"
#include "common/table.h"
#include "common/timer.h"
#include "gcn/graph_tensors.h"
#include "gen/generator.h"
#include "netlist/bench_io.h"
#include "tensor/simd/simd.h"

namespace gcnt::bench {

namespace {

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  return static_cast<std::size_t>(std::strtoull(raw, nullptr, 10));
}

std::filesystem::path cache_dir() {
  return std::filesystem::path("gcnt_bench_cache");
}

/// Cache layout per design: <dir>/<gates>_<name>.bench + .labels (one
/// label per line, node order).
bool load_cached(std::size_t gates, const std::string& name,
                 Netlist& netlist, std::vector<std::int32_t>& labels) {
  const auto base = cache_dir() / (std::to_string(gates) + "_" + name);
  std::ifstream bench_in(base.string() + ".bench");
  std::ifstream labels_in(base.string() + ".labels");
  if (!bench_in || !labels_in) return false;
  try {
    netlist = read_bench(bench_in, name);
  } catch (const std::exception&) {
    return false;
  }
  labels.clear();
  int label = 0;
  while (labels_in >> label) labels.push_back(label);
  return labels.size() == netlist.size();
}

void store_cache(std::size_t gates, const Dataset& dataset) {
  std::error_code ec;
  std::filesystem::create_directories(cache_dir(), ec);
  if (ec) return;
  const auto base =
      cache_dir() / (std::to_string(gates) + "_" + dataset.name());
  // Atomic writes keep a killed bench run from leaving a torn cache that
  // the next run would half-load; a cache miss is always safe.
  try {
    atomic_write_file(base.string() + ".bench", [&](std::ostream& out) {
      write_bench(dataset.netlist, out);
    });
    atomic_write_file(base.string() + ".labels", [&](std::ostream& out) {
      for (std::int32_t label : dataset.tensors.labels) {
        out << label << "\n";
      }
    });
  } catch (const Error&) {
    // The cache is an optimization; benches run fine without it.
  }
}

}  // namespace

std::size_t bench_gates() { return env_size("GCNT_BENCH_GATES", 8000); }
std::size_t bench_epochs() { return env_size("GCNT_BENCH_EPOCHS", 150); }
std::size_t bench_max_nodes() {
  return env_size("GCNT_BENCH_MAX_NODES", 1000000);
}

GcnConfig paper_model_config(int depth, std::uint64_t seed) {
  GcnConfig config;
  config.depth = depth;
  config.embed_dims = {32, 64, 128};
  config.fc_dims = {64, 64, 128};
  config.num_classes = 2;
  config.seed = seed;
  return config;
}

std::vector<Dataset> load_suite() {
  const std::size_t gates = bench_gates();
  std::vector<Dataset> suite;
  suite.reserve(4);
  for (int i = 0; i < 4; ++i) {
    const std::string name = "B" + std::to_string(i + 1);
    Netlist cached;
    std::vector<std::int32_t> labels;
    if (load_cached(gates, name, cached, labels)) {
      Dataset dataset;
      dataset.netlist = std::move(cached);
      dataset.scoap = compute_scoap(dataset.netlist);
      dataset.levels = dataset.netlist.logic_levels();
      dataset.tensors = build_graph_tensors(dataset.netlist, dataset.scoap,
                                            dataset.levels);
      dataset.tensors.labels = std::move(labels);
      for (std::uint32_t v = 0; v < dataset.netlist.size(); ++v) {
        (dataset.tensors.labels[v] == 1 ? dataset.positive_rows
                                        : dataset.negative_rows)
            .push_back(v);
      }
      suite.push_back(std::move(dataset));
      continue;
    }
    Timer timer;
    LabelerOptions labeler;  // empirical oracle, default budget
    Dataset dataset = make_dataset(generate_benchmark_design(i, gates), labeler);
    log_info("built + labeled ", dataset.name(), " (", dataset.netlist.size(),
             " nodes) in ", Table::num(timer.seconds(), 1), "s");
    store_cache(gates, dataset);
    suite.push_back(std::move(dataset));
  }
  // All benches train/evaluate on standardized features (stored affine, so
  // incremental OPI updates stay consistent).
  for (Dataset& dataset : suite) dataset.tensors.standardize_features();
  return suite;
}

bool write_bench_json(
    const std::string& path,
    const std::vector<std::pair<std::string, double>>& entries) {
  try {
    atomic_write_file(path, [&](std::ostream& out) {
      out << "{\n";
      // v3 added SIMD dispatch + graph reordering provenance; v4 the
      // serve daemon's loadgen keys ("serve.qps", "serve.p99_ms" — see
      // bench/loadgen.cpp); v5 the sharded out-of-core keys ("shard.*" —
      // see bench/fig10_sharded.cpp); v6 the numeric "simd.target"
      // gauge (and an int8-tier precision pair); v7 drops the precision
      // pair with the int8 tier; v8 drops "schema.reorder" with graph
      // reordering. String-valued "schema." entries are metadata;
      // bench_gate ignores them when comparing.
      out << "  \"schema.version\": 8,\n";
      out << "  \"schema.simd\": \"" << simd_target_name() << "\",\n";
      // The numeric gauge uses the stats-registry encoding
      // ("simd.target": 0 scalar / 1 avx2 / 2 avx512).
      out << "  \"simd.target\": " << static_cast<int>(simd_target())
          << (entries.empty() ? "\n" : ",\n");
      for (std::size_t i = 0; i < entries.size(); ++i) {
        out << "  \"" << entries[i].first << "\": " << entries[i].second
            << (i + 1 < entries.size() ? ",\n" : "\n");
      }
      out << "}\n";
    });
  } catch (const Error&) {
    return false;
  }
  return true;
}

std::vector<TrainGraph> balanced_training_set(
    const std::vector<Dataset>& suite, std::size_t held_out) {
  std::vector<TrainGraph> training;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    if (i == held_out) continue;
    training.push_back(
        TrainGraph{&suite[i].tensors, balanced_rows(suite[i], 7000 + i)});
  }
  return training;
}

}  // namespace gcnt::bench
