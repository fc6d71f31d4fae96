// Fig. 5: latency and energy of the scaled search on RRAM / FeFET NVCiM vs
// the Jetson-Orin-class CPU, as a function of the number of stored data
// samples (OVTs). Two parts:
//   1. google-benchmark timings of the *functional* crossbar retrieval
//      kernel vs a CPU dot-product scan (small scales — what fits the
//      cycle-free simulator);
//   2. the analytical NeuroSim-lite sweep that reproduces the figure's
//      series out to 1e7 samples.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "nvcim/cim/accelerator.hpp"
#include "nvcim/cim/perf.hpp"

using namespace nvcim;

namespace {

constexpr std::size_t kKeyLen = 384;  // one 8-token OVT code (8 × 48)

Matrix make_keys(std::size_t n, Rng& rng) { return Matrix::randn(n, kKeyLen, rng); }

void BM_CrossbarRetrieval(benchmark::State& state) {
  const std::size_t n_keys = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  cim::Accelerator acc(cim::CrossbarConfig{}, {nvm::fefet3(), 0.1});
  Rng store_rng(2);
  acc.store(make_keys(n_keys, rng), store_rng);
  const Matrix q = Matrix::randn(1, kKeyLen, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(acc.query_batch(q));
  }
  state.SetComplexityN(state.range(0));
}

void BM_CpuScanRetrieval(benchmark::State& state) {
  const std::size_t n_keys = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  const Matrix keys = make_keys(n_keys, rng);
  const Matrix q = Matrix::randn(1, kKeyLen, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul_nt(q, keys));
  }
  state.SetComplexityN(state.range(0));
}

BENCHMARK(BM_CrossbarRetrieval)->Arg(64)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CpuScanRetrieval)->Arg(64)->Arg(128)->Arg(256)->Unit(benchmark::kMicrosecond);

void print_analytical_sweep() {
  std::printf("\n=== Fig. 5 — analytical NeuroSim-lite sweep (22 nm) ===\n");
  std::printf("%-16s %12s %12s %12s | %12s %12s %12s\n", "#samples(x100)", "RRAM ns",
              "FeFET ns", "CPU ns", "RRAM pJ", "FeFET pJ", "CPU pJ");
  const auto rram = cim::rram_perf_22nm();
  const auto fefet = cim::fefet_perf_22nm();
  const auto cpu = cim::jetson_orin_cpu();
  const cim::CrossbarConfig cfg;
  double max_lat_ratio = 0.0, max_e_ratio = 0.0;
  for (double n100 : {2e2, 5e2, 1e3, 5e3, 1e4, 2e4, 5e4, 1e5}) {
    const auto n = static_cast<std::size_t>(n100 * 100.0);
    const auto r = cim_retrieval_cost(rram, cfg, n, kKeyLen);
    const auto f = cim_retrieval_cost(fefet, cfg, n, kKeyLen);
    const auto c = cpu_retrieval_cost(cpu, n, kKeyLen);
    std::printf("%-16.0f %12.0f %12.0f %12.0f | %12.3g %12.3g %12.3g\n", n100, r.latency_ns,
                f.latency_ns, c.latency_ns, r.energy_pj, f.energy_pj, c.energy_pj);
    max_lat_ratio = std::max(max_lat_ratio, c.latency_ns / f.latency_ns);
    max_e_ratio = std::max(max_e_ratio, c.energy_pj / f.energy_pj);
  }
  std::printf("\nMax CPU/NVCiM improvement in sweep: %.0fx latency, %.0fx energy\n",
              max_lat_ratio, max_e_ratio);
  std::printf("Paper reports: up to 120x latency, up to 60x energy vs Jetson Orin CPU.\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_analytical_sweep();
  return 0;
}
