// CI bench-regression gate: compares a flat {"name": value} JSON produced
// by `microbench` (GCNT_BENCH_JSON=... — see bench/bench_common.h) against
// a committed baseline and fails when throughput regresses beyond the
// allowed fraction.
//
//   bench_gate <baseline.json> <current.json> [max_regression] [key_prefix]
//
// max_regression defaults to 0.25 (fail when current < 75% of baseline);
// key_prefix defaults to "BM_Spmm" and may be a comma-separated list
// ("BM_Spmm,BM_EncoderGemm,BM_CooToCsr") for a per-kernel breakdown —
// entries matching none of the prefixes are reported for context but
// never fail. Keys are "<benchmark name>.items_per_second" (higher is
// better); keys ending in ".real_time_ns" or "_ms" compare inverted
// (lower is better — the latter covers the serve loadgen's latency
// percentiles, e.g. "serve.p99_ms"; "serve.qps" stays higher-is-better).
// Keys starting with "schema." are metadata, never compared.
// Baseline keys missing from the current run are skipped with a note, so
// a filtered CI run gates only what it measured.

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

/// Parses a flat JSON object of string->number pairs. Tolerates arbitrary
/// whitespace; no nesting, arrays, or escaped quotes (the writer never
/// emits them).
bool parse_flat_json(const std::string& path,
                     std::map<std::string, double>& out) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "bench_gate: cannot open " << path << "\n";
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  std::size_t pos = 0;
  while ((pos = text.find('"', pos)) != std::string::npos) {
    const std::size_t key_end = text.find('"', pos + 1);
    if (key_end == std::string::npos) break;
    const std::string key = text.substr(pos + 1, key_end - pos - 1);
    std::size_t cursor = key_end + 1;
    while (cursor < text.size() &&
           (std::isspace(static_cast<unsigned char>(text[cursor])) ||
            text[cursor] == ':')) {
      ++cursor;
    }
    char* end = nullptr;
    const double value = std::strtod(text.c_str() + cursor, &end);
    if (end != text.c_str() + cursor) out[key] = value;
    pos = end != nullptr && end > text.c_str() + cursor
              ? static_cast<std::size_t>(end - text.c_str())
              : key_end + 1;
  }
  return true;
}

bool lower_is_better(const std::string& key) {
  // Latency-style keys compare inverted: google-benchmark "...real_time_ns"
  // and the serve loadgen's millisecond percentiles ("serve.p99_ms").
  for (const std::string suffix : {".real_time_ns", "_ms"}) {
    if (key.size() >= suffix.size() &&
        key.compare(key.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      return true;
    }
  }
  return false;
}

std::vector<std::string> split_prefixes(const std::string& list) {
  std::vector<std::string> prefixes;
  std::size_t begin = 0;
  while (begin <= list.size()) {
    const std::size_t comma = list.find(',', begin);
    const std::size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > begin) prefixes.push_back(list.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return prefixes;
}

bool matches_any(const std::string& key,
                 const std::vector<std::string>& prefixes) {
  for (const std::string& prefix : prefixes) {
    if (key.compare(0, prefix.size(), prefix) == 0) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::cerr << "usage: bench_gate <baseline.json> <current.json>"
                 " [max_regression=0.25] [key_prefix=BM_Spmm]\n";
    return 2;
  }
  const double max_regression = argc > 3 ? std::atof(argv[3]) : 0.25;
  const std::vector<std::string> gate_prefixes =
      split_prefixes(argc > 4 ? argv[4] : "BM_Spmm");

  std::map<std::string, double> baseline;
  std::map<std::string, double> current;
  if (!parse_flat_json(argv[1], baseline) ||
      !parse_flat_json(argv[2], current)) {
    return 2;
  }

  int failures = 0;
  std::size_t gated = 0;
  for (const auto& [key, base_value] : baseline) {
    if (key.compare(0, 7, "schema.") == 0) continue;  // format metadata
    const auto it = current.find(key);
    if (it == current.end()) {
      std::cout << "skip  " << key << " (not in current run)\n";
      continue;
    }
    if (base_value == 0.0) continue;
    // Normalize to "higher is better" for a single comparison path.
    const double ratio = lower_is_better(key) ? base_value / it->second
                                              : it->second / base_value;
    const bool gates = matches_any(key, gate_prefixes);
    const bool regressed = ratio < 1.0 - max_regression;
    gated += gates ? 1 : 0;
    std::cout << (regressed ? (gates ? "FAIL  " : "warn  ") : "ok    ")
              << key << "  baseline=" << base_value
              << " current=" << it->second << " ratio=" << ratio << "\n";
    if (gates && regressed) ++failures;
  }
  if (gated == 0) {
    std::cerr << "bench_gate: no gated keys (prefixes '"
              << (argc > 4 ? argv[4] : "BM_Spmm")
              << "') were compared — treating as failure\n";
    return 1;
  }
  if (failures > 0) {
    std::cerr << "bench_gate: " << failures << " gated benchmark(s) regressed"
              << " more than " << max_regression * 100 << "%\n";
    return 1;
  }
  std::cout << "bench_gate: " << gated << " gated benchmark(s) within "
            << max_regression * 100 << "% of baseline\n";
  return 0;
}
