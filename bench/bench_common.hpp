#pragma once

// Shared helpers for the paper-reproduction harnesses.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "nvcim/core/experiment.hpp"

namespace nvcim::bench {

/// Experiment scale, overridable via environment so the same binaries can
/// run a quick regeneration (default) or approach the paper's 100-user
/// protocol (NVCIM_USERS=..., NVCIM_TESTS=...).
inline core::ExperimentOptions scaled_options() {
  core::ExperimentOptions opts;
  opts.n_users = 4;
  opts.n_test = 12;
  if (const char* e = std::getenv("NVCIM_USERS")) opts.n_users = std::strtoul(e, nullptr, 10);
  if (const char* e = std::getenv("NVCIM_TESTS")) opts.n_test = std::strtoul(e, nullptr, 10);
  return opts;
}

inline void print_header(const char* what) {
  std::printf("================================================================\n");
  std::printf("%s\n", what);
  std::printf("(synthetic substrate: simulated backbones, LaMP-style data and\n");
  std::printf(" device noise — compare trends/shape with the paper, not values)\n");
  std::printf("================================================================\n");
}

}  // namespace nvcim::bench
