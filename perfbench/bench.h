#pragma once
// Shared pieces of the benchmark program: run options, the metric recorder,
// per-operation phase timers and the output-check ledger.
//
// Timing is taken from outside the library: every phase timer wraps one
// public call (or a short run of them). An operation runs with a null
// OpTrace when untraced, so the untraced path carries no timers at all.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Design sizes and training length: full_scale() is the benchmark,
/// smoke_scale() the self-test's tiny variant of the same pipeline.
struct Scale {
  std::size_t big_gates = 200000;    ///< infer-216k / edit-216k design
  std::size_t opi_gates = 10000;     ///< opi-10k design
  std::size_t train_gates = 20000;   ///< train-20k design
  std::size_t model_gates = 5000;    ///< set-up model's training design
  std::size_t model_epochs = 30;
  std::size_t setup_repeats = 3;     ///< set-ups per run; setup_s = median
  std::size_t probe_edit_rounds = 3; ///< edit rounds in the layer probe
  std::size_t dft_probe_candidates = 256;  ///< impact calls in the probe
};
Scale full_scale();
Scale smoke_scale();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
  std::string commit = "unknown";
  Scale scale = full_scale();
};

/// Median of the samples (NaN when empty).
double median_of(std::vector<double> v);

/// Unit of a metric, from its name's suffix (_s seconds, _ms, _mb,
/// _mb_per_s, _gflops, _gbps; ratios and counts otherwise).
std::string unit_of(const std::string& name);

/// Samples per metric name.
class Recorder {
 public:
  void add(const std::string& name, double value);
  /// Copies every metric of `other` that this recorder lacks (probes fill
  /// in the layers an operation did not exercise).
  void merge_missing(const Recorder& other);
  double median(const std::string& name) const;
  const std::vector<double>& samples(const std::string& name) const;
  std::vector<std::string> names() const;

 private:
  std::map<std::string, std::vector<double>> samples_;
};

/// Per-operation totals of one traced operation: phase times (per-layer
/// metric names in seconds) and other per-layer values (counts, ratios).
struct OpTrace {
  std::map<std::string, double> seconds;
  std::map<std::string, double> values;
  void add_time(std::string_view name, double s) {
    seconds[std::string(name)] += s;
  }
  void add_value(std::string_view name, double v) {
    values[std::string(name)] += v;
  }
  double total_seconds() const;
  /// Pushes every total into `rec` as one sample.
  void commit(Recorder& rec) const;
};

/// Times its scope into `trace` under `name`; free when `trace` is null.
class Phase {
 public:
  /// `name` must outlive the phase.
  Phase(OpTrace* trace, std::string_view name)
      : trace_(trace), name_(name), start_(trace ? now_s() : 0.0) {}
  ~Phase() {
    if (trace_) trace_->add_time(name_, now_s() - start_);
  }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  OpTrace* trace_;
  std::string_view name_;
  double start_;
};

/// Output checks: each named check counts passes and failures.
class Checks {
 public:
  void expect(const std::string& name, bool ok, const std::string& detail = {});
  std::size_t failed() const;
  /// name -> (passed, failed)
  const std::map<std::string, std::pair<std::size_t, std::size_t>>& all()
      const {
    return results_;
  }

 private:
  std::map<std::string, std::pair<std::size_t, std::size_t>> results_;
};

/// What one workload run reports besides its metrics.
struct RunResult {
  std::size_t attempted = 0;        ///< operations run (untraced + traced)
  std::vector<double> op_seconds;   ///< untraced per-operation times
  /// Workload shape: nodes, edges, nnz, candidates, inserted, dirty rows.
  std::map<std::string, double> shape;
};

class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Builds the workload's inputs from the seed (timed as setup_s).
  virtual void setup(const Options& options) = 0;
  /// Fingerprint of the set-up's outputs; every set-up repetition in a
  /// run must produce the same one.
  virtual std::string setup_digest() const = 0;
  /// One operation. `trace` is null on the untraced path.
  virtual void op(OpTrace* trace, Checks& checks) = 0;
  /// Checks that need the whole run (e.g. the final edit round against a
  /// fresh forward), after the timed loop.
  virtual void finish(Checks& checks) { (void)checks; }
  /// Traced runs only: measures, on this workload's design, every layer
  /// the operation itself did not exercise.
  virtual void probe(Recorder& rec, Checks& checks) = 0;
  /// True when the operation cannot run again (its pre-picked inputs
  /// are used up); the timed loop then ends early.
  virtual bool exhausted() const { return false; }
  virtual void shape(RunResult& result) const = 0;
  /// Kernel threads for the whole run, given the CPUs the process may use.
  /// Half of them by default: a kernel call waits for its slowest thread,
  /// and on a shared host the spare CPUs absorb the host's interference.
  /// On a 4-core shared host, six interleaved triples of infer-216k runs
  /// spread 0.12 on 4 threads, 0.07 on 2 and 0.07 on 1 (medians 1.57,
  /// 1.73 and 1.94 s).
  virtual std::size_t kernel_threads(std::size_t online) const {
    return std::max<std::size_t>(1, online / 2);
  }
  /// Name of the end-to-end metric op_s stands for on this workload.
  virtual const char* op_alias() const = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name);
const std::vector<std::string>& workload_names();

}  // namespace perfbench
