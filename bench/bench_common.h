#pragma once
// Shared configuration for the table/figure reproduction harnesses.
//
// Knobs (environment variables):
//   GCNT_BENCH_GATES      gate budget per benchmark design (default 8000)
//   GCNT_BENCH_EPOCHS     GCN training epochs              (default 150)
//   GCNT_BENCH_MAX_NODES  size cap for the Fig. 10 sweep   (default 1000000)
//
// The labeled suite is cached under ./gcnt_bench_cache/ keyed by the gate
// budget, so consecutive bench binaries don't re-run the labeling oracle.

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "gcn/model.h"
#include "gcn/trainer.h"

namespace gcnt::bench {

std::size_t bench_gates();
std::size_t bench_epochs();
std::size_t bench_max_nodes();

/// The paper's architecture: D=3, K=(32,64,128), FC=(64,64,128,2).
GcnConfig paper_model_config(int depth = 3, std::uint64_t seed = 2019);

/// The four Table-1 designs at bench_gates(), labeled (cached on disk).
std::vector<Dataset> load_suite();

/// Leave-one-design-out balanced training set excluding `held_out`.
std::vector<TrainGraph> balanced_training_set(
    const std::vector<Dataset>& suite, std::size_t held_out);

/// Writes a flat {"name": value, ...} JSON object — the format the
/// tools/bench_gate regression checker consumes (e.g. BENCH_ci.json in the
/// CI bench smoke gate). A "schema.version": 7 metadata key is prepended
/// (v3 added SIMD/reorder provenance, v4 the serve.* loadgen keys, v5 the
/// shard.* out-of-core keys, v6 the resolved "simd.target" numeric gauge,
/// v7 dropped the int8 tier's precision keys); bench_gate skips
/// "schema." keys, so files from any schema version compare
/// interchangeably. Returns false on I/O failure.
bool write_bench_json(
    const std::string& path,
    const std::vector<std::pair<std::string, double>>& entries);

}  // namespace gcnt::bench
