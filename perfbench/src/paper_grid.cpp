// paper-grid: a reduced Table I. 2 LLM profiles × 2 datasets of
// ExperimentContext, 2 devices × all six table1_methods() per context at
// σ = 0.1, every call through ExperimentContext and evaluate(). It is the
// only workload that runs the mitigation methods (SWV, CxDNN, CorrectNet),
// MIPS retrieval and eval, and it touches no serve code.
//
// A request here is one (method, device) cell. The first device of a context
// trains the users' OVTs (plain and noise-aware); later devices reuse them.
// One repetition builds fresh contexts and evaluates the whole grid (about
// 9 s on a 4-vCPU host); a run makes one repetition per 10 s of --seconds,
// at least three, and every repetition must reproduce every cell value
// exactly. setup_s is the
// median repetition's context builds; throughput and latency cover every
// cell evaluation of every repetition.

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "nvcim/core/experiment.hpp"

namespace perfbench {

namespace {

constexpr double kSigma = 0.1;
constexpr std::size_t kDevices = 2;
constexpr std::size_t kMinReps = 3;

struct GridInputs {
  std::vector<nvcim::llm::LlmProfile> profiles;
  std::vector<nvcim::data::LampConfig> datasets;
  std::vector<nvcim::nvm::DeviceModel> devices;
  std::vector<nvcim::core::MethodSpec> methods;
  nvcim::core::ExperimentOptions opts;
};

GridInputs make_inputs(std::uint64_t seed) {
  GridInputs in;
  for (nvcim::llm::LlmProfile p : {nvcim::llm::gemma2b_sim(), nvcim::llm::phi2_sim()}) {
    p.pretrain.steps = 100;  // reduced backbone pretraining
    in.profiles.push_back(p);
  }
  // The datasets are fixed; the seed draws the experiment's randomness
  // (backbone and autoencoder initialisation, clustering, tuning and device
  // noise streams).
  in.datasets = {nvcim::data::lamp1_config(), nvcim::data::lamp3_config()};
  const auto devices = nvcim::nvm::table2_devices();
  in.devices.assign(devices.begin(), devices.begin() + kDevices);
  in.methods = nvcim::core::table1_methods();
  in.opts.n_users = 4;
  in.opts.n_test = 12;
  in.opts.buffer_size = 15;
  in.opts.tuner_steps = 10;
  in.opts.pretrain_corpus = 600;
  in.opts.autoencoder_samples = 32;
  in.opts.seed = seed ^ 0x9A9E11ull;
  return in;
}

/// Span name per method in table1_methods() order (string literals, as the
/// tracer requires); the per-layer metric names use the part after the dot.
const char* const kCellSpan[] = {"evaluate.swv",        "evaluate.cxdnn",
                                 "evaluate.correctnet", "evaluate.nomiti_mips",
                                 "evaluate.nvp_mips",   "evaluate.nvcim_pt"};

}  // namespace

void run_paper_grid(const Args& args, Report& report) {
  const GridInputs in = make_inputs(args.seed);
  const std::size_t n_methods = in.methods.size();
  if (n_methods != std::size(kCellSpan))
    throw std::runtime_error("table1_methods() no longer has one span name per method");
  const std::size_t n_cells =
      in.profiles.size() * in.datasets.size() * in.devices.size() * n_methods;

  std::vector<double> build_s, ctx_build_s, cell_ms;
  std::vector<double> first_values;
  double grid_s = 0.0;
  const std::size_t reps =
      std::max(kMinReps, static_cast<std::size_t>(std::ceil(args.seconds / 10)));
  for (std::size_t rep = 0; rep < reps; ++rep) {
    std::vector<std::unique_ptr<nvcim::core::ExperimentContext>> contexts;
    const double b0 = now_s();
    for (const auto& profile : in.profiles)
      for (const auto& dataset : in.datasets) {
        const double c0 = now_s();
        PB_SPAN("core", "ExperimentContext");
        contexts.push_back(
            std::make_unique<nvcim::core::ExperimentContext>(profile, dataset, in.opts));
        ctx_build_s.push_back(now_s() - c0);
      }
    build_s.push_back(now_s() - b0);

    std::vector<double> values;
    for (auto& ctx : contexts)
      for (std::size_t d = 0; d < in.devices.size(); ++d)
        for (std::size_t m = 0; m < n_methods; ++m) {
          ++report.attempted;
          const double t0 = now_s();
          {
            PB_SPAN("core", kCellSpan[m]);
            values.push_back(ctx->evaluate(in.methods[m], in.devices[d], kSigma));
          }
          cell_ms.push_back(1000.0 * (now_s() - t0));
          grid_s += now_s() - t0;
        }

    if (rep == 0) {
      first_values = values;
    } else {
      for (std::size_t i = 0; i < n_cells; ++i)
        if (values[i] != first_values[i]) {
          report.check(false, "paper-grid cell " + std::to_string(i) +
                                  " did not repeat exactly across repetitions");
          break;
        }
    }
  }

  double accuracy = 0.0;
  for (const double v : first_values) accuracy += v;
  accuracy /= static_cast<double>(n_cells);
  report.check(accuracy > 0.0, "paper-grid mean accuracy is zero");

  if (!args.trace) {
    report.metric("setup_s", "s", median(build_s));
    report.metric("peak_rss_mb", "MB", peak_rss_mb());
    report.metric("throughput_rps", "1/s", static_cast<double>(cell_ms.size()) / grid_s);
    report.metric("latency_p50_ms", "ms", median(cell_ms));
    report.metric("accuracy", "ratio", accuracy);
    return;
  }
  report.metric("core.context_build_s", "s", median(ctx_build_s));
  // Cells run context by context, device by device, method by method.
  for (std::size_t m = 0; m < n_methods; ++m) {
    std::vector<double> first, later;
    for (std::size_t i = m; i < cell_ms.size(); i += n_methods)
      ((i / n_methods) % in.devices.size() == 0 ? first : later).push_back(cell_ms[i]);
    const std::string span = kCellSpan[m];
    const std::string base = "core.cell_ms." + span.substr(span.find('.') + 1);
    report.metric(base + ".first_device", "ms", median(first));
    report.metric(base + ".later_devices", "ms", median(later));
  }
  finish_trace(args, report);
}

}  // namespace perfbench
