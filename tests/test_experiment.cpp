#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "nvcim/core/experiment.hpp"
#include "nvcim/nvm/device.hpp"

namespace nvcim::core {

/// Reaches ExperimentContext's private fan-out entry point, so the tests can
/// pin the width that production callers always get from the hardware.
class ExperimentFanoutPeer {
 public:
  static ExperimentContext::CellResult evaluate(ExperimentContext& ctx, const MethodSpec& method,
                                                const nvm::DeviceModel& device, double sigma,
                                                std::size_t width) {
    return ctx.evaluate_fanout(method, device, sigma, width);
  }
};

namespace {

constexpr double kSigma = 0.1;
constexpr std::size_t kDevices = 2;

/// A context small enough to build and evaluate quickly under TSan: a one-
/// layer backbone, lightly pretrained, and users with few tuner steps.
ExperimentContext make_context(const data::LampConfig& task, std::size_t n_users) {
  llm::LlmProfile profile = llm::gemma2b_sim();
  profile.d_model = 16;
  profile.n_layers = 1;
  profile.n_heads = 2;
  profile.pretrain.steps = 20;
  ExperimentOptions opts;
  opts.n_users = n_users;
  opts.buffer_size = 10;
  opts.n_test = 4;
  opts.n_virtual_tokens = 4;
  opts.tuner_steps = 3;
  opts.pretrain_corpus = 100;
  opts.autoencoder_samples = 8;
  opts.seed = 77;
  return ExperimentContext(profile, task, opts);
}

using Grid = std::vector<ExperimentContext::CellResult>;  ///< [device][method], paper order

/// Evaluates every table1_methods() cell on the first kDevices devices of a
/// copy of `pristine` (so the OVTs are trained inside the fan-out), visiting
/// methods in `order` (indices into table1_methods()).
Grid evaluate_grid(const ExperimentContext& pristine, std::size_t width,
                   const std::vector<std::size_t>& order) {
  ExperimentContext ctx = pristine;
  const auto methods = table1_methods();
  const auto devices = nvm::table2_devices();
  Grid grid(kDevices * methods.size());
  for (std::size_t d = 0; d < kDevices; ++d)
    for (const std::size_t m : order)
      grid[d * methods.size() + m] =
          ExperimentFanoutPeer::evaluate(ctx, methods[m], devices[d], kSigma, width);
  return grid;
}

std::vector<std::size_t> paper_order() {
  std::vector<std::size_t> order(table1_methods().size());
  for (std::size_t m = 0; m < order.size(); ++m) order[m] = m;
  return order;
}

void expect_identical(const Grid& expected, const Grid& actual, const char* what) {
  ASSERT_EQ(expected.size(), actual.size());
  const auto methods = table1_methods();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const std::string cell = std::string(what) + ", device " +
                             std::to_string(i / methods.size()) + ", " +
                             methods[i % methods.size()].name;
    EXPECT_EQ(expected[i].metric, actual[i].metric) << cell;
    EXPECT_EQ(expected[i].retrieval_match, actual[i].retrieval_match) << cell;
    EXPECT_EQ(expected[i].payload_rel_err, actual[i].payload_rel_err) << cell;
  }
}

/// LaMP-1 with 5 users: on 2 and 4 threads the users split unevenly.
const ExperimentContext& lamp1_context() {
  static const ExperimentContext ctx = make_context(data::lamp1_config(), 5);
  return ctx;
}

const Grid& lamp1_serial() {
  static const Grid grid = evaluate_grid(lamp1_context(), 1, paper_order());
  return grid;
}

TEST(ExperimentFanout, ClassificationBitIdenticalAcrossWidths) {
  expect_identical(lamp1_serial(), evaluate_grid(lamp1_context(), 2, paper_order()), "width 2");
  expect_identical(lamp1_serial(), evaluate_grid(lamp1_context(), 4, paper_order()), "width 4");
}

TEST(ExperimentFanout, GenerationBitIdenticalAcrossWidths) {
  // Generation samples with the cell's evaluation RNG in the serial merge;
  // a fan-out that drew it per thread would move these numbers.
  const ExperimentContext pristine = make_context(data::lamp5_config(), 4);
  const Grid serial = evaluate_grid(pristine, 1, paper_order());
  bool any_score = false;
  for (const auto& cell : serial) any_score = any_score || cell.metric > 0.0;
  EXPECT_TRUE(any_score) << "every generation cell scored 0: the test shows nothing";
  expect_identical(serial, evaluate_grid(pristine, 2, paper_order()), "width 2");
  expect_identical(serial, evaluate_grid(pristine, 4, paper_order()), "width 4");
}

TEST(ExperimentFanout, MethodOrderDoesNotChangeCells) {
  // NVCiM-PT first: its noise-aware OVTs are trained inside the fan-out by
  // the first cell instead of being cached from NVP*(MIPS).
  std::vector<std::size_t> reversed = paper_order();
  std::reverse(reversed.begin(), reversed.end());
  ASSERT_EQ(table1_methods()[reversed.front()].name, "NVCiM-PT");
  expect_identical(lamp1_serial(), evaluate_grid(lamp1_context(), 4, reversed),
                   "NVCiM-PT first, width 4");
}

TEST(ExperimentFanout, PublicEvaluateMatchesSerialWidth) {
  ExperimentContext ctx = lamp1_context();
  const Grid& serial = lamp1_serial();
  const auto methods = table1_methods();
  const auto devices = nvm::table2_devices();
  for (std::size_t m = 0; m < methods.size(); ++m) {
    const ExperimentContext::CellResult r = ctx.evaluate_detailed(methods[m], devices[0], kSigma);
    EXPECT_EQ(r.metric, serial[m].metric) << methods[m].name;
    EXPECT_EQ(r.retrieval_match, serial[m].retrieval_match) << methods[m].name;
    EXPECT_EQ(r.payload_rel_err, serial[m].payload_rel_err) << methods[m].name;
    EXPECT_EQ(ctx.evaluate(methods[m], devices[0], kSigma), serial[m].metric) << methods[m].name;
  }
}

}  // namespace
}  // namespace nvcim::core
