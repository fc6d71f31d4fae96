// Table I: average LLM performance of NVCiM-PT vs five baselines on
// 5 LaMP datasets × 3 edge LLMs × 5 NVM devices (buffer 25, σ = 0.1).
// Under each cell's metric it prints the mechanism columns: retrieval match
// (fraction of queries whose retrieved OVT has the query's domain) and
// payload error (mean relative error of the restored prompts).
// Also prints Table II (the device non-ideality presets) for reference.
#include "bench_common.hpp"

using namespace nvcim;

int main() {
  bench::print_header("Table I — methods × devices × LLMs × datasets (σ=0.1, buffer 25)");

  // Table II reference.
  std::printf("\nTable II — device non-ideality presets\n");
  std::printf("%-8s %-7s %7s %7s %7s %7s\n", "name", "paper", "L0", "L1", "L2", "L3");
  for (const auto& d : nvm::table2_devices())
    std::printf("%-8s %-7s %7.4f %7.4f %7.4f %7.4f\n", d.name.c_str(), d.paper_id.c_str(),
                d.sigma_per_level[0], d.sigma_per_level[1], d.sigma_per_level[2],
                d.sigma_per_level[3]);

  core::ExperimentOptions opts = bench::scaled_options();
  opts.buffer_size = 25;
  const double sigma = 0.1;
  const auto methods = core::table1_methods();
  const auto devices = nvm::table2_devices();
  const auto models = llm::edge_llm_profiles();
  const auto tasks = data::all_lamp_configs();

  // metric[device][method] aggregated per model/task below; also track the
  // cross-table average per method for the summary line.
  std::vector<eval::MeanAccumulator> method_avg(methods.size());

  for (const auto& model : models) {
    std::printf("\n===== LLM: %s =====\n", model.name.c_str());
    for (const auto& task : tasks) {
      core::ExperimentContext ctx(model, task, opts);
      const char* metric =
          task.kind == data::TaskKind::Classification ? "Acc" : "Rouge-1";
      std::printf("\n  Dataset %s (%s)\n", task.name.c_str(), metric);
      std::printf("  %-7s", "device");
      for (const auto& m : methods) std::printf(" %13s", m.name.c_str());
      std::printf("\n");
      for (const auto& dev : devices) {
        std::printf("  %-7s", dev.paper_id.c_str());
        double best = -1.0;
        std::size_t best_i = 0;
        std::vector<core::ExperimentContext::CellResult> row(methods.size());
        for (std::size_t mi = 0; mi < methods.size(); ++mi) {
          row[mi] = ctx.evaluate_detailed(methods[mi], dev, sigma);
          method_avg[mi].add(row[mi].metric);
          if (row[mi].metric > best) {
            best = row[mi].metric;
            best_i = mi;
          }
          std::printf(" %13.3f", row[mi].metric);
        }
        std::printf("  << %s\n", methods[best_i].name.c_str());
        // Mechanism columns under each cell: retrieval match, payload error.
        std::printf("  %7s", "match");
        for (const auto& r : row) std::printf(" %13.3f", r.retrieval_match);
        std::printf("\n  %7s", "p.err");
        for (const auto& r : row) std::printf(" %13.3f", r.payload_rel_err);
        std::printf("\n");
      }
    }
  }

  std::printf("\n===== Cross-table method averages =====\n");
  for (std::size_t mi = 0; mi < methods.size(); ++mi)
    std::printf("%-14s %.3f\n", methods[mi].name.c_str(), method_avg[mi].mean());
  std::printf("\nExpected shape (paper): NVCiM-PT leads the average; NVP*(MIPS)\n"
              "shows the value of noise-aware training, mitigation+SSA beats\n"
              "No-Miti(MIPS).\n");
  return 0;
}
