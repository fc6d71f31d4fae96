#include "harness.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

void Report::metric(const std::string& name, const std::string& unit, double value) {
  check(std::isfinite(value), "metric " + name + " is not finite");
  metrics_.push_back({prefix + name, unit, value});
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) errors_.push_back(what);
}

void Report::print() const {
  for (const std::string& e : errors_) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  for (const Metric& m : metrics_)
    std::fprintf(stderr, "  %-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct() ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  if (correct()) {
    for (std::size_t i = 0; i < metrics_.size(); ++i)
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  metrics_[i].name.c_str(), metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB on Linux
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void report_engine_stages(const nvcim::serve::StatsSnapshot& before,
                          const nvcim::serve::StatsSnapshot& after, Report& report) {
  const double kreq = static_cast<double>(after.requests - before.requests) / 1000.0;
  report.metric("serve.encode_ms_per_kreq", "ms", (after.encode_ms - before.encode_ms) / kreq);
  report.metric("serve.retrieve_ms_per_kreq", "ms",
                (after.retrieve_ms - before.retrieve_ms) / kreq);
  report.metric("serve.decode_ms_per_kreq", "ms", (after.decode_ms - before.decode_ms) / kreq);
  report.metric("serve.classify_ms_per_kreq", "ms",
                (after.classify_ms - before.classify_ms) / kreq);
  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double misses = static_cast<double>(after.cache_misses - before.cache_misses);
  report.metric("serve.cache_hit_rate", "ratio", hits / (hits + misses));
}

nvcim::cim::OpCounters counters_delta(const nvcim::cim::OpCounters& before,
                                      const nvcim::cim::OpCounters& after) {
  nvcim::cim::OpCounters d;
  d.subarray_activations = after.subarray_activations - before.subarray_activations;
  d.adc_conversions = after.adc_conversions - before.adc_conversions;
  d.cells_programmed = after.cells_programmed - before.cells_programmed;
  d.write_pulses = after.write_pulses - before.write_pulses;
  return d;
}

namespace {
std::unique_ptr<nvcim::obs::Tracer> g_tracer;
}  // namespace

nvcim::obs::Tracer* tracer() { return g_tracer.get(); }

void enable_tracing() {
  nvcim::obs::TracerConfig cfg;
  cfg.enabled = true;
  cfg.ring_capacity = 1 << 17;
  g_tracer = std::make_unique<nvcim::obs::Tracer>(cfg);
}

std::map<std::string, double> layer_self_ms(const nvcim::obs::Tracer& t) {
  std::map<std::uint32_t, std::vector<nvcim::obs::TraceEvent>> by_thread;
  for (const nvcim::obs::TraceEvent& e : t.events()) by_thread[e.tid].push_back(e);
  std::map<std::string, double> self_us;
  for (auto& [tid, events] : by_thread) {
    // Parents first: earlier start, and the longer span on a tied start.
    std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
      return a.ts_us != b.ts_us ? a.ts_us < b.ts_us : a.dur_us > b.dur_us;
    });
    std::vector<const nvcim::obs::TraceEvent*> open;
    for (const nvcim::obs::TraceEvent& e : events) {
      while (!open.empty() && open.back()->ts_us + open.back()->dur_us <= e.ts_us)
        open.pop_back();
      if (!open.empty()) self_us[open.back()->cat] -= e.dur_us;
      self_us[e.cat] += e.dur_us;
      open.push_back(&e);
    }
  }
  std::map<std::string, double> out;
  for (const auto& [cat, us] : self_us) out[cat] = us / 1000.0;
  return out;
}

void finish_trace(const Args& args, Report& report) {
  const nvcim::obs::Tracer& t = *tracer();
  const std::string path = args.trace_dir + "/trace-" + args.workload + ".json";
  report.check(t.write_chrome_trace_file(path), "cannot write " + path);
  report.check(t.dropped() == 0, "trace ring overflowed");
  for (const auto& [layer, ms] : layer_self_ms(t)) report.metric(layer + ".self_ms", "ms", ms);
}

}  // namespace perfbench
