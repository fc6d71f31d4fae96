#pragma once

#include <cstddef>
#include <string>

#include "nvcim/cim/crossbar.hpp"

namespace nvcim::cim {

/// First-order analytical latency/energy model in the spirit of
/// DNN+NeuroSim v2.0 at the 22 nm node. Constants are calibrated so that the
/// CiM-vs-CPU improvement envelope matches the paper's reported "up to 120×
/// latency / 60× energy vs Jetson Orin CPU", so reproducing that envelope
/// (bench_fig5) is a consistency check of the calibration, not independent
/// evidence; the model captures the first-order terms — subarray read time,
/// ADC cost, peripheral overhead, bank-level parallelism — not circuit-level
/// detail.
struct CimPerfParams {
  std::string name;
  double t_subarray_ns = 60.0;     ///< one slice-plane MVM (DAC+array+ADC pipeline)
  double e_cell_read_fj = 2.0;     ///< per cell per activation
  double e_adc_pj = 2.0;           ///< per 8-bit conversion
  double peripheral_overhead = 0.2;///< shift-add, mux, buffers (fraction of array+ADC)
  std::size_t parallel_banks = 8;  ///< subarrays operating concurrently
};

CimPerfParams rram_perf_22nm();
CimPerfParams fefet_perf_22nm();

/// Jetson-Orin-class CPU cost model: MAC throughput bound and DRAM streaming
/// bound, plus SSD paging once the OVT store exceeds the DRAM budget.
struct CpuPerfParams {
  std::string name = "Jetson Orin CPU";
  double mac_rate_gmacs = 4.0;      ///< effective sustained GMAC/s
  double dram_bw_gbps = 8.0;        ///< GB/s
  double dram_capacity_gb = 8.0;    ///< budget for the OVT store (Orin-class)
  double ssd_bw_gbps = 0.2;         ///< effective random-read GB/s
  double e_mac_pj = 2.0;
  double e_byte_dram_pj = 3.0;
  double e_byte_ssd_pj = 30.0;
};

CpuPerfParams jetson_orin_cpu();

struct PerfEstimate {
  double latency_ns = 0.0;
  double energy_pj = 0.0;
};

/// Cost of one in-memory similarity search over n_keys stored keys of
/// key_len int16 elements (analytical tile/slice counting — usable for key
/// counts far beyond what the functional simulator can hold).
PerfEstimate cim_retrieval_cost(const CimPerfParams& p, const CrossbarConfig& cfg,
                                std::size_t n_keys, std::size_t key_len);

/// Same cost derived from measured OpCounters of a functional run.
PerfEstimate cim_cost_from_counters(const CimPerfParams& p, const CrossbarConfig& cfg,
                                    const OpCounters& counters);

/// Cost of the same search on the CPU (streaming all keys from DRAM, paging
/// from SSD beyond the DRAM budget).
PerfEstimate cpu_retrieval_cost(const CpuPerfParams& p, std::size_t n_keys,
                                std::size_t key_len, std::size_t bytes_per_value = 2);

// ---- OVT storage sizing (Fig. 2) ----
// Paper-scale dimensions: a real edge-LLM OVT is ~20 virtual tokens × 2048
// hidden dim in fp16.
struct OvtSizingModel {
  std::size_t n_tokens = 20;
  std::size_t hidden_dim = 2048;
  std::size_t bytes_per_value = 2;  ///< fp16

  double bytes_per_ovt() const {
    return static_cast<double>(n_tokens * hidden_dim * bytes_per_value);
  }
  double total_bytes(std::size_t n_ovts) const {
    return bytes_per_ovt() * static_cast<double>(n_ovts);
  }
};

/// SSD→DRAM transfer seconds for a store of the given size (Fig. 2b).
double ssd_transfer_seconds(double bytes, const CpuPerfParams& p);

}  // namespace nvcim::cim
