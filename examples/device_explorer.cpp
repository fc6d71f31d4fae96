// Device explorer: inspect how each Table-II NVM device distorts a stored
// OVT payload, how the mitigation baselines reduce that distortion, and
// what retrieval over each device's crossbars costs (NeuroSim-lite model).
//
// A hardware engineer's view of the stack: no LLM in the loop, just the
// storage/retrieval substrate.

#include <cstdio>

#include "nvcim/cim/accelerator.hpp"
#include "nvcim/cim/perf.hpp"
#include "nvcim/mitigation/methods.hpp"

using namespace nvcim;

int main() {
  Rng rng(42);
  // A representative OVT payload: 8 virtual tokens × 48-wide int16 code.
  const Matrix payload = Matrix::rand_uniform(8, 48, rng, -1.0f, 1.0f);
  const cim::CrossbarConfig xbar;  // 384×128, 2-bit cells, int16, 8b ADC

  std::printf("=== Payload round-trip error by device and mitigation (σ=0.1) ===\n");
  std::printf("%-8s %-7s", "device", "paper");
  const mitigation::Kind kinds[] = {mitigation::Kind::None, mitigation::Kind::SWV,
                                    mitigation::Kind::CxDNN, mitigation::Kind::CorrectNet};
  for (auto k : kinds) std::printf(" %12s", mitigation::make_mitigation(k)->name().c_str());
  std::printf("\n");

  for (const auto& dev : nvm::table2_devices()) {
    std::printf("%-8s %-7s", dev.name.c_str(), dev.paper_id.c_str());
    for (auto k : kinds) {
      auto method = mitigation::make_mitigation(k);
      // Average over several independent stores.
      double err = 0.0;
      const int reps = 5;
      for (int r = 0; r < reps; ++r) {
        Rng srng(100 + r);
        const Matrix restored =
            method->store_and_restore(payload, xbar, {dev, 0.1}, srng);
        err += (restored - payload).frobenius_norm() / payload.frobenius_norm();
      }
      std::printf(" %12.4f", err / reps);
    }
    std::printf("\n");
  }

  std::printf("\n=== In-memory search sanity: does the right key win? ===\n");
  std::printf("%-8s %10s %14s\n", "device", "hits/24", "ideal-score-gap");
  for (const auto& dev : nvm::table2_devices()) {
    cim::Accelerator acc(xbar, {dev, 0.1});
    // 12 random keys; queries are noisy copies of a chosen key.
    const Matrix keys = Matrix::randn(12, 384, rng);
    Rng store_rng(7);
    acc.store(keys, store_rng);
    int hits = 0;
    double gap = 0.0;
    Rng qr(9);
    for (int t = 0; t < 24; ++t) {
      const std::size_t target = qr.uniform_index(12);
      Matrix q = keys.row_slice(target, target + 1);
      for (std::size_t i = 0; i < q.size(); ++i)
        q.at_flat(i) += static_cast<float>(qr.normal(0.0, 0.2));
      const Matrix s = acc.query_batch(q);
      std::size_t best = 0;
      for (std::size_t i = 1; i < 12; ++i)
        if (s(0, i) > s(0, best)) best = i;
      hits += best == target ? 1 : 0;
      const Matrix ideal = acc.query_ideal(q);
      gap += std::abs(s(0, target) - ideal(0, target)) /
             std::max(1e-6f, std::abs(ideal(0, target)));
    }
    std::printf("%-8s %7d/24 %14.4f\n", dev.name.c_str(), hits, gap / 24.0);
  }

  std::printf("\n=== Retrieval cost at scale (NeuroSim-lite, 22 nm) ===\n");
  std::printf("%-12s %12s %12s %12s\n", "#OVTs", "RRAM (us)", "FeFET (us)", "CPU (us)");
  for (std::size_t n : {1000u, 10000u, 100000u, 1000000u}) {
    const auto r = cim::cim_retrieval_cost(cim::rram_perf_22nm(), xbar, n, 384);
    const auto f = cim::cim_retrieval_cost(cim::fefet_perf_22nm(), xbar, n, 384);
    const auto c = cim::cpu_retrieval_cost(cim::jetson_orin_cpu(), n, 384);
    std::printf("%-12zu %12.1f %12.1f %12.1f\n", n, r.latency_ns / 1e3, f.latency_ns / 1e3,
                c.latency_ns / 1e3);
  }
  return 0;
}
