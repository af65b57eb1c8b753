// gcnt_perfbench: benchmark program for the netlist -> GCN -> OPI loop.
//
//   gcnt_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --workdir <dir> [--commit <id>] [--scale full|smoke]
//
// Sets the workload up --seed-deterministically several times (setup_s is
// the median), then runs its operation for --seconds. With --trace 0 the
// operations run bare and the result holds the end-to-end metrics; with
// --trace 1 untraced and traced operations alternate and, after the loop,
// a probe measures every remaining layer on the workload's design; the
// result holds the per-layer metrics. The last stdout line is the JSON
// result; the lines before it are the human-readable report.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>

#include "bench.h"
#include "common/parallel.h"
#include "gcn/quant.h"
#include "tensor/simd/simd.h"

namespace perfbench {

Scale full_scale() { return Scale{}; }

Scale smoke_scale() {
  Scale s;
  s.big_gates = 3000;
  s.opi_gates = 1500;
  s.train_gates = 2000;
  s.model_gates = 1500;
  s.model_epochs = 5;
  s.setup_repeats = 2;
  s.probe_edit_rounds = 2;
  s.dft_probe_candidates = 32;
  return s;
}

std::string unit_of(const std::string& name) {
  const auto ends = [&](const char* suffix) {
    const std::string s(suffix);
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (ends("_mb_per_s")) return "MB/s";
  if (ends("_gflops")) return "GFLOP/s";
  if (ends("_gbps")) return "GB/s";
  if (ends("_ms_per_call") || ends("_ms")) return "ms";
  if (ends("_mb")) return "MB";
  if (ends("_s")) return "s";
  if (ends("_frac") || ends("coverage") || ends("_vs_full") ||
      ends("speedup") || ends("bitwise")) {
    return "ratio";
  }
  return "count";
}

void Recorder::add(const std::string& name, double value) {
  samples_[name].push_back(value);
}

void Recorder::merge_missing(const Recorder& other) {
  for (const auto& [name, values] : other.samples_) {
    samples_.try_emplace(name, values);
  }
}

double median_of(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Recorder::median(const std::string& name) const {
  return median_of(samples(name));
}

const std::vector<double>& Recorder::samples(const std::string& name) const {
  static const std::vector<double> empty;
  const auto it = samples_.find(name);
  return it == samples_.end() ? empty : it->second;
}

std::vector<std::string> Recorder::names() const {
  std::vector<std::string> out;
  for (const auto& entry : samples_) out.push_back(entry.first);
  return out;
}

double OpTrace::total_seconds() const {
  double total = 0.0;
  for (const auto& entry : seconds) total += entry.second;
  return total;
}

void OpTrace::commit(Recorder& rec) const {
  for (const auto& [name, s] : seconds) rec.add(name, s);
  for (const auto& [name, v] : values) rec.add(name, v);
}

void Checks::expect(const std::string& name, bool ok,
                    const std::string& detail) {
  auto& counts = results_[name];
  if (ok) {
    ++counts.first;
  } else {
    if (counts.second == 0) {
      std::cerr << "check " << name << " failed"
                << (detail.empty() ? "" : ": " + detail) << "\n";
    }
    ++counts.second;
  }
}

std::size_t Checks::failed() const {
  std::size_t n = 0;
  for (const auto& entry : results_) n += entry.second.second;
  return n;
}

namespace {

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "gcnt_perfbench: " << message << "\n"
            << "usage: gcnt_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --workdir <dir> "
               "[--commit <id>] [--scale full|smoke]\n";
  std::exit(64);
}

Options parse(int argc, char** argv) {
  Options o;
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) usage("bad argument " + key);
    const std::string value = argv[++i];
    seen.insert(key);
    try {
      if (key == "--workload") {
        o.workload = value;
      } else if (key == "--seed") {
        o.seed = std::stoull(value);
      } else if (key == "--seconds") {
        o.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace must be 0 or 1");
        o.trace = value == "1";
      } else if (key == "--workdir") {
        o.workdir = value;
      } else if (key == "--commit") {
        o.commit = value;
      } else if (key == "--scale") {
        if (value != "full" && value != "smoke") usage("bad --scale");
        o.scale = value == "smoke" ? smoke_scale() : full_scale();
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key);
    }
  }
  for (const char* required :
       {"--workload", "--seed", "--seconds", "--trace", "--workdir"}) {
    if (!seen.count(required)) usage(std::string("missing ") + required);
  }
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

/// CPU model, ISA flags, cores, resolved SIMD target, precision, kernel
/// threads and commit: what a result must carry to be attributable.
std::string host_fingerprint(const Options& o) {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line, model = "unknown", flags;
  while (std::getline(cpuinfo, line)) {
    const auto value = [&] {
      const auto colon = line.find(':');
      return colon == std::string::npos ? std::string()
                                        : line.substr(colon + 2);
    };
    if (model == "unknown" && line.rfind("model name", 0) == 0) model = value();
    if (flags.empty() && line.rfind("flags", 0) == 0) {
      flags = " " + value() + " ";
    }
  }
  std::string isa;
  for (const char* flag :
       {"avx2", "avx512f", "avx512_vnni", "amx_tile", "amx_int8", "amx_bf16"}) {
    if (flags.find(std::string(" ") + flag + " ") != std::string::npos) {
      isa += std::string(isa.empty() ? "" : ",") + "\"" + flag + "\"";
    }
  }
  std::ostringstream out;
  out << "{\"cpu\": \"" << json_escape(model) << "\", \"isa\": [" << isa
      << "], \"nproc\": " << online_cpus() << ", \"simd\": \""
      << gcnt::simd_target_name() << "\", \"precision\": \""
      << gcnt::precision_name(gcnt::resolve_precision())
      << "\", \"kernel_threads\": " << gcnt::kernel_threads()
      << ", \"commit\": \"" << json_escape(o.commit) << "\"}";
  return out.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Percentile p (0..100) of sorted samples, linear between ranks.
double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_metric(const std::string& name, double value,
                  const std::string& unit, const std::string& note = {}) {
  std::cout << "metric " << name << " " << num(value) << " " << unit
            << (note.empty() ? "" : "  # " + note) << "\n";
}

int run(const Options& o) {
  std::unique_ptr<Workload> workload = make_workload(o.workload);
  if (!workload) usage("unknown workload " + o.workload);
  gcnt::set_kernel_threads(workload->kernel_threads(online_cpus()));
  std::cout << "host " << host_fingerprint(o) << "\n";
  std::cout << "run workload=" << o.workload << " seed=" << o.seed
            << " seconds=" << o.seconds << " trace=" << (o.trace ? 1 : 0)
            << "\n";

  Checks checks;
  std::vector<double> setup_seconds;
  std::string digest;
  for (std::size_t i = 0; i < o.scale.setup_repeats; ++i) {
    const double t0 = now_s();
    workload->setup(o);
    setup_seconds.push_back(now_s() - t0);
    const std::string d = workload->setup_digest();
    if (i == 0) digest = d;
    checks.expect("setup_repeat", d == digest,
                  "set-up outputs differ between repetitions");
  }

  Recorder rec;
  RunResult result;
  std::vector<double> traced_seconds;
  const double deadline = now_s() + o.seconds;
  for (std::size_t i = 0;; ++i) {
    const bool traced = o.trace && i % 2 == 1;
    const bool done = now_s() >= deadline || workload->exhausted();
    if (i > 0 && done && (!o.trace || !traced_seconds.empty())) break;
    OpTrace trace;
    const double t0 = now_s();
    workload->op(traced ? &trace : nullptr, checks);
    const double dt = now_s() - t0;
    ++result.attempted;
    if (!traced) {
      result.op_seconds.push_back(dt);
      continue;
    }
    traced_seconds.push_back(dt);
    rec.add("trace.op_s", dt);
    rec.add("trace.untraced_s", dt - trace.total_seconds());
    trace.commit(rec);
  }
  workload->finish(checks);
  workload->shape(result);

  if (o.trace) {
    workload->probe(rec, checks);
    rec.add("trace.overhead_s",
            median_of(traced_seconds) - median_of(result.op_seconds));
    // Derived from the medians of the metrics they relate.
    const double calls = rec.median("dft.impact_calls");
    rec.add("dft.impact_ms_per_call",
            calls > 0 ? 1e3 * rec.median("dft.rank_s") / calls : 0.0);
    rec.add("gcn.update_vs_full",
            rec.median("gcn.update_s") / rec.median("gcn.forward_warm_s"));
  }

  // Report.
  std::cout << "shape";
  for (const auto& [name, value] : result.shape) {
    std::cout << " " << name << "=" << num(value);
  }
  std::cout << "\n";
  std::cout << "samples op_s";
  for (double v : result.op_seconds) std::cout << " " << num(v);
  std::cout << "\n";
  const std::size_t failed = checks.failed();
  const double op_s = median_of(result.op_seconds);
  const std::size_t n = result.op_seconds.size();
  std::vector<std::pair<std::string, double>> metrics;
  if (!o.trace) {
    metrics = {{"setup_s", median_of(setup_seconds)},
               {"peak_rss_mb", peak_rss_mb()},
               {"op_s", op_s}};
    for (const auto& [name, value] : metrics) {
      print_metric(name, value, unit_of(name));
    }
    const std::string alias = workload->op_alias();
    if (alias == "edit_p50_ms") {
      print_metric("edit_p50_ms", 1e3 * op_s, "ms",
                   "median of " + std::to_string(n) + " rounds");
      // The highest percentile up to p90 that leaves ten rounds beyond it.
      if (n > 10) {
        const double p = std::min(90.0, std::floor(100.0 * (n - 10) / n));
        print_metric("edit_p" + std::to_string(static_cast<int>(p)) + "_ms",
                     1e3 * percentile(result.op_seconds, p), "ms",
                     std::to_string(n) + " rounds");
      }
    } else {
      print_metric(alias, op_s, "s",
                   "median of " + std::to_string(n) + " operations");
    }
  } else {
    for (const std::string& name : rec.names()) {
      metrics.emplace_back(name, rec.median(name));
      print_metric(name, rec.median(name), unit_of(name),
                   std::to_string(rec.samples(name).size()) + " samples");
    }
  }
  const double attempted =
      static_cast<double>(std::max<std::size_t>(1, result.attempted));
  print_metric("failed_frac", static_cast<double>(failed) / attempted,
               "ratio");
  for (const auto& [name, counts] : checks.all()) {
    std::cout << "check " << name << " " << (counts.second ? "FAIL" : "pass")
              << " " << counts.first << "/" << counts.first + counts.second
              << "\n";
  }

  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << "\"" << metrics[i].first
              << "\": {\"value\": " << num(metrics[i].second)
              << ", \"unit\": \"" << unit_of(metrics[i].first) << "\"}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options options = perfbench::parse(argc, argv);
  try {
    return perfbench::run(options);
  } catch (const std::exception& e) {
    std::cerr << "gcnt_perfbench: " << e.what() << "\n";
    return 1;
  }
}
