// Repository benchmark entry point:
//
//   perfbench --workload <serve-zipf|edge-retune|paper-grid> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Every input is generated from --seed; the program under test receives only
// those inputs. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics: the named workload's
// end-to-end metrics with --trace 0. With --trace 1 it holds every per-layer
// metric: a traced run runs the traced path of every workload, with
// benchmark-side spans, and names each metric `<workload>.<metric>`. A run
// whose correctness checks fail prints no numbers and exits with code 1. A
// traced run also writes each workload's spans as a Chrome trace next to the
// executable.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>

#include "harness.hpp"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: perfbench --workload <serve-zipf|edge-retune|paper-grid> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') return usage("bad --seed");
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(args.seconds > 0.0) || args.seconds > 600.0)
        return usage("bad --seconds");
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return usage("bad --trace");
      args.trace = val == "1";
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("arguments come in --key value pairs");
  const std::string self = argv[0];
  const std::size_t slash = self.rfind('/');
  args.trace_dir = slash == std::string::npos ? "." : self.substr(0, slash);

  using Run = void (*)(const perfbench::Args&, perfbench::Report&);
  const std::pair<const char*, Run> workloads[] = {
      {"serve-zipf", perfbench::run_serve_zipf},
      {"edge-retune", perfbench::run_edge_retune},
      {"paper-grid", perfbench::run_paper_grid}};
  Run run = nullptr;
  for (const auto& [name, fn] : workloads)
    if (args.workload == name) run = fn;
  if (run == nullptr) return usage("unknown --workload");

  perfbench::Report report;
  try {
    if (!args.trace) {
      run(args, report);
    } else {
      for (const auto& [name, fn] : workloads) {
        perfbench::Args traced = args;
        traced.workload = name;
        report.prefix = std::string(name) + ".";
        perfbench::enable_tracing();  // a fresh tracer: self times per workload
        fn(traced, report);
      }
    }
  } catch (const std::exception& e) {
    report.check(false, std::string("exception: ") + e.what());
  }
  report.print();
  return report.correct() ? 0 : 1;
}
