// Scalar test oracle for the crossbar MVM.
//
// Recomputes y = x · W from the crossbar's public per-cell readback
// (Crossbar::cell_level), one output element at a time: slice-major, a
// separate double accumulator per polarity summing rows in ascending order,
// per-polarity ADC quantization against the input-referred full scale
// (Σ|x_i| · (levels − 1)), then the 2^(s·bits_per_cell) shift. That is the
// arithmetic the fused kernel must reproduce bit for bit, written without
// any of its tiling, interleaving or zero-slice elision — so it also sees
// every stuck, drifted or killed cell exactly as the kernel must.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "nvcim/cim/crossbar.hpp"

namespace nvcim::test {

inline Matrix crossbar_oracle(const cim::Crossbar& xb, const Matrix& x) {
  const cim::CrossbarConfig& cfg = xb.config();
  const std::size_t S = cfg.n_slices();
  const std::size_t R = xb.active_rows();
  const std::size_t C = xb.active_cols();
  const double denorm = static_cast<double>(cfg.levels() - 1);
  const double n_codes = static_cast<double>((1ull << cfg.adc_bits) - 1);
  Matrix y(x.rows(), C, 0.0f);
  for (std::size_t m = 0; m < x.rows(); ++m) {
    double abs_in = 0.0;
    for (std::size_t i = 0; i < x.cols(); ++i) abs_in += std::fabs(x(m, i));
    const double full_scale = abs_in * denorm;
    const auto adc = [&](double analog) {
      if (cfg.adc_bits == 0 || full_scale <= 0.0) return analog;
      const double lsb = full_scale / n_codes;
      return std::round(analog / lsb) * lsb;
    };
    for (std::size_t s = 0; s < S; ++s) {
      const double shift = std::ldexp(1.0, static_cast<int>(s * cfg.bits_per_cell));
      for (std::size_t c = 0; c < C; ++c) {
        double acc_pos = 0.0, acc_neg = 0.0;
        for (std::size_t r = 0; r < R; ++r) {
          acc_pos += static_cast<double>(x(m, r)) * xb.cell_level(s, r, c, false);
          if (cfg.differential)
            acc_neg += static_cast<double>(x(m, r)) * xb.cell_level(s, r, c, true);
        }
        // volatile: the subtraction must see both rounded codes, never an
        // FMA fusing one scaled code into it.
        const volatile double q_pos = adc(acc_pos);
        const volatile double q_neg = cfg.differential ? adc(acc_neg) : 0.0;
        const double v = cfg.differential ? q_pos - q_neg : q_pos;
        y(m, c) += static_cast<float>(shift * v);
      }
    }
  }
  return y;
}

/// Polarities per cell: 2 with differential pairs, else 1.
inline std::size_t oracle_polarities(const cim::CrossbarConfig& cfg) {
  return cfg.differential ? 2 : 1;
}

/// Whether the fused kernel computes output column `c` for query `m` of a
/// masked pass: true when any candidate of query m lands in the
/// kAccumulatorLanes-wide interleaved block holding column c. `col_offset`
/// maps the crossbar's columns into the candidate set's key space.
inline bool oracle_block_needed(const cim::Crossbar& xb, const cim::CandidateSet& cand,
                                std::size_t m, std::size_t c, std::size_t col_offset = 0) {
  const std::size_t P = oracle_polarities(xb.config());
  const std::size_t blk = cim::Crossbar::kAccumulatorLanes;
  const std::size_t bk = c * P / blk;
  const std::size_t c_lo = bk * blk / P;
  const std::size_t c_hi = std::min(xb.active_cols(), ((bk + 1) * blk + P - 1) / P);
  for (std::size_t k = c_lo; k < c_hi; ++k)
    if (col_offset + k < cand.n_keys && cand.test(m, col_offset + k)) return true;
  return false;
}

}  // namespace nvcim::test
