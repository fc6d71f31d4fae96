#pragma once

// Shared plumbing of the repository benchmark: command-line arguments, the
// result line, robust statistics, process resource readings, and the
// benchmark-side span tracer whose spans wrap every call into a program
// layer (serve, ovt_store, core, llm, compress, cim, tensor).

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "nvcim/cim/crossbar.hpp"
#include "nvcim/obs/trace.hpp"
#include "nvcim/serve/stats.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;  ///< where a traced run writes its Chrome trace
};

/// The run's outcome: operation counts, correctness verdict and the named
/// metrics, printed as the last line of standard output.
class Report {
 public:
  void metric(const std::string& name, const std::string& unit, double value);
  /// Record a correctness check; a failed check fails the whole run.
  void check(bool ok, const std::string& what);
  bool correct() const { return errors_.empty(); }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Prepended to every metric name (the traced run names each per-layer
  /// metric after the workload that measured it).
  std::string prefix;

  /// Print diagnostics to stderr and the JSON result line to stdout. A run
  /// that failed a check reports no numbers.
  void print() const;

 private:
  struct Metric {
    std::string name, unit;
    double value;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
};

double now_s();
/// Median (the mean of the middle two for an even count); 0 when empty.
double median(std::vector<double> v);
/// Peak resident set size of this process, in MB.
double peak_rss_mb();
/// User + system CPU seconds consumed by this process so far.
double process_cpu_s();
/// CPU seconds consumed by the calling thread so far.
double thread_cpu_s();

// ---- Benchmark-side tracing ----

/// The run's tracer, or nullptr for an untraced run (spans then cost one
/// branch).
nvcim::obs::Tracer* tracer();
void enable_tracing();

/// Span around one call into a program layer. `layer` is the span category
/// used for self-time accounting; both arguments must be string literals.
#define PB_CONCAT2(a, b) a##b
#define PB_CONCAT(a, b) PB_CONCAT2(a, b)
#define PB_SPAN(layer, name) \
  ::nvcim::obs::Span PB_CONCAT(pb_span_, __LINE__)(::perfbench::tracer(), name, layer)

/// Self time per layer (span category), in milliseconds: each span's
/// duration minus the part covered by spans nested in it on the same thread.
std::map<std::string, double> layer_self_ms(const nvcim::obs::Tracer& t);

/// Write the run's spans as Chrome trace_event JSON and report each layer's
/// self time as `<layer>.self_ms`.
void finish_trace(const Args& args, Report& report);

/// Per-layer numbers the serving engine keeps itself, over one timed phase
/// (`after` minus `before`): stage wall-clock per 1000 requests and the
/// decode-LRU hit rate.
void report_engine_stages(const nvcim::serve::StatsSnapshot& before,
                          const nvcim::serve::StatsSnapshot& after, Report& report);

/// Op counters accumulated between two readings.
nvcim::cim::OpCounters counters_delta(const nvcim::cim::OpCounters& before,
                                      const nvcim::cim::OpCounters& after);

/// Repeatedly time `fn` (one call per sample) until `min_samples` samples
/// and `min_seconds` have both passed; returns the median seconds per call.
template <typename Fn>
double median_call_s(Fn&& fn, std::size_t min_samples, double min_seconds) {
  std::vector<double> samples;
  const double start = now_s();
  while (samples.size() < min_samples || now_s() - start < min_seconds) {
    const double t0 = now_s();
    fn();
    samples.push_back(now_s() - t0);
  }
  return median(std::move(samples));
}

// ---- Workloads ----

void run_serve_zipf(const Args& args, Report& report);
void run_edge_retune(const Args& args, Report& report);
void run_paper_grid(const Args& args, Report& report);

}  // namespace perfbench
