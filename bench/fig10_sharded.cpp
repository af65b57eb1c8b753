// Figure 10, sharded out-of-core leg: whole-graph inference runtime and
// peak resident set vs graph size with the sharded engine (gcn/shard.h)
// holding one shard's working set at a time. This is the scale tier the
// per-push CI cannot reach — the nightly workflow drives the sweep to
// 10^7 nodes under a pinned peak-RSS budget, while the per-push
// scale-smoke job runs the small sizes plus the bit-identity sweep.
//
// Sizes sweep 3*10^4..10^7 gates capped by GCNT_BENCH_MAX_NODES (so the
// CI smoke cap of 3*10^4 and the nightly cap share JSON key prefixes).
//
// Flags (each takes a value; any other argument exits 64):
//   --shards K                shard count              (default 8)
//   --halo D                  halo depth               (default 2)
//   --spill-dir DIR           spill off-shard blocks to disk under DIR
//   --check-max-nodes N       run the monolithic engine and assert
//                             bitwise logit identity up to this size
//                             (default 200000; the whole point of
//                             sharding is that the monolithic engine
//                             does not fit at the top sizes)
//   --shard-sweep K1,K2,...   shard counts — runs a K x D bit-identity
//   --halo-sweep D1,D2,...    sweep at the smallest size (halo default 1)
//
// Any identity violation makes the binary exit 1. With
// GCNT_BENCH_JSON=<path> a flat record is written for tools/bench_gate
// (schema v5 adds these shard.* keys):
//
//   shard.fig10/nodes:N.sharded_infer.real_time_ns  (gated, lower better)
//   shard.identical                                 (gated, 1 = all checks
//                                                    passed)
//   shard_rss/nodes:N.peak_kb                       (context only)
//   shard_blocks/nodes:N.count                      (context only)

#include <sys/resource.h>

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/timer.h"
#include "common/trace.h"
#include "gcn/shard.h"
#include "gen/generator.h"

namespace {

using namespace gcnt;

struct Flags {
  std::size_t shards = 8;
  int halo = 2;
  std::string spill_root;
  std::size_t check_cap = 200000;
  std::vector<std::size_t> shard_sweep;
  std::vector<std::size_t> halo_sweep;
};

std::size_t parse_size(const std::string& text) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] == '-' || *end != '\0') {
    throw std::invalid_argument("bad number '" + text + "'");
  }
  return static_cast<std::size_t>(value);
}

std::vector<std::size_t> parse_list(const std::string& text) {
  std::vector<std::size_t> values;
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) values.push_back(parse_size(item));
  }
  return values;
}

/// Parses `--flag value` pairs; throws std::invalid_argument naming the
/// first unknown flag, missing value or malformed number.
Flags parse_flags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[i + 1];
    if (flag == "--shards") {
      flags.shards = parse_size(value);
    } else if (flag == "--halo") {
      flags.halo = static_cast<int>(parse_size(value));
    } else if (flag == "--spill-dir") {
      flags.spill_root = value;
    } else if (flag == "--check-max-nodes") {
      flags.check_cap = parse_size(value);
    } else if (flag == "--shard-sweep") {
      flags.shard_sweep = parse_list(value);
    } else if (flag == "--halo-sweep") {
      flags.halo_sweep = parse_list(value);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  return flags;
}

/// Process peak resident set in KB (ru_maxrss is KB on Linux). Monotone
/// across the sweep — the budget gate cares about the final peak.
double peak_rss_kb() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

GraphTensors make_tensors(std::size_t gates, Netlist& netlist) {
  GeneratorConfig config;
  config.seed = 0xF16;  // same designs as fig10_scalability
  config.target_gates = gates;
  config.primary_inputs = 64;
  config.primary_outputs = 32;
  config.flip_flops = gates / 24;
  config.trap_fraction = 0.0;  // timing only
  netlist = generate_circuit(config);
  return build_graph_tensors(netlist);
}

ShardedGcnOptions engine_options(std::size_t shards, int halo,
                                 const std::string& spill_root,
                                 const std::string& tag) {
  ShardedGcnOptions options;
  options.shards = shards;
  options.halo = halo;
  if (!spill_root.empty()) options.spill_dir = spill_root + "/" + tag;
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  try {
    flags = parse_flags(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::cerr << "fig10_sharded: " << e.what()
              << "\nusage: fig10_sharded [--shards K] [--halo D] "
                 "[--spill-dir DIR] [--check-max-nodes N] "
                 "[--shard-sweep K1,K2,...] [--halo-sweep D1,D2,...]\n";
    return 64;
  }
  trace_set_thread_name("main");
  const std::size_t cap = bench::bench_max_nodes();
  const std::size_t shards = flags.shards;
  const int halo = flags.halo;
  const std::size_t check_cap = flags.check_cap;
  const std::string& spill_root = flags.spill_root;
  GcnModel model(bench::paper_model_config());

  std::cout << "# Figure 10 (sharded): out-of-core inference, K=" << shards
            << " halo=" << halo
            << (spill_root.empty() ? " (in-memory blocks)"
                                   : " (spill: " + spill_root + ")")
            << "\nnodes,edges,sharded_s,peak_rss_kb,blocks,identical\n";
  Table table("Figure 10 sharded: inference runtime / peak RSS",
              {"#Nodes", "Sharded (s)", "Peak RSS (KB)", "Blocks",
               "Identical"});

  std::vector<std::pair<std::string, double>> entries;
  bool all_identical = true;
  bool any_check = false;
  std::size_t smallest = 0;

  for (std::size_t gates :
       {30000ul, 100000ul, 300000ul, 1000000ul, 3000000ul, 10000000ul}) {
    if (gates > cap) break;
    if (smallest == 0) smallest = gates;
    Netlist netlist;
    const GraphTensors tensors = make_tensors(gates, netlist);
    const std::size_t n = tensors.node_count();
    TraceSpan size_span("fig10.shard.size");
    size_span.arg("nodes", static_cast<double>(n));
    size_span.arg("shards", static_cast<double>(shards));

    ShardedGcnEngine engine(
        model, engine_options(shards, halo, spill_root,
                              "n" + std::to_string(gates)));
    Timer timer;
    const Matrix& logits = engine.refresh(tensors);
    const double seconds = timer.seconds();
    const double rss_kb = peak_rss_kb();
    const std::size_t blocks = engine.store().block_count();

    // Bitwise identity vs the monolithic forward, where it still fits.
    std::string identical = "(skipped)";
    if (n <= check_cap) {
      any_check = true;
      const bool match = logits == model.infer(tensors);
      identical = match ? "yes" : "NO";
      if (!match) all_identical = false;
    }

    std::cout << n << "," << netlist.edge_count() << ","
              << Table::num(seconds, 4) << "," << rss_kb << "," << blocks
              << "," << identical << "\n";
    table.add_row({std::to_string(n), Table::num(seconds, 4),
                   Table::num(rss_kb, 0), std::to_string(blocks), identical});

    const std::string key = "shard.fig10/nodes:" + std::to_string(n);
    entries.emplace_back(key + ".sharded_infer.real_time_ns",
                         seconds * 1e9);
    entries.emplace_back("shard_rss/nodes:" + std::to_string(n) + ".peak_kb",
                         rss_kb);
    entries.emplace_back("shard_blocks/nodes:" + std::to_string(n) + ".count",
                         static_cast<double>(blocks));
  }

  // K x D bit-identity sweep at the smallest swept size: every combination
  // must reproduce the monolithic logits exactly.
  const std::vector<std::size_t>& sweep_shards = flags.shard_sweep;
  const std::vector<std::size_t>& sweep_halos = flags.halo_sweep;
  if (!sweep_shards.empty() && smallest > 0) {
    Netlist netlist;
    const GraphTensors tensors = make_tensors(smallest, netlist);
    const Matrix reference = model.infer(tensors);
    std::cout << "\n# bit-identity sweep at " << tensors.node_count()
              << " nodes\nshards,halo,identical\n";
    for (std::size_t k : sweep_shards) {
      for (std::size_t d :
           (sweep_halos.empty() ? std::vector<std::size_t>{1} : sweep_halos)) {
        any_check = true;
        ShardedGcnEngine engine(
            model, engine_options(k, static_cast<int>(d), spill_root,
                                  "sweep_k" + std::to_string(k) + "_d" +
                                      std::to_string(d)));
        const bool match = engine.refresh(tensors) == reference;
        if (!match) all_identical = false;
        std::cout << k << "," << d << "," << (match ? "yes" : "NO") << "\n";
      }
    }
  }

  if (any_check) {
    entries.emplace_back("shard.identical", all_identical ? 1.0 : 0.0);
  }

  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\nfinal peak RSS: " << peak_rss_kb() << " KB\n";

  if (const char* path = std::getenv("GCNT_BENCH_JSON")) {
    if (!bench::write_bench_json(path, entries)) {
      std::cerr << "fig10_sharded: failed to write GCNT_BENCH_JSON to "
                << path << "\n";
      return 1;
    }
  }
  publish_kernel_pool_stats();
  if (stats_enabled()) StatsRegistry::instance().write_text(std::cerr);

  if (!all_identical) {
    std::cerr << "fig10_sharded: sharded logits DIVERGED from the "
                 "monolithic forward\n";
    return 1;
  }
  return 0;
}
