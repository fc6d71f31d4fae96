#pragma once

#include <map>
#include <string>
#include <vector>

#include "nvcim/core/framework.hpp"
#include "nvcim/llm/profiles.hpp"

namespace nvcim::core {

/// One column of the paper's method grid (Table I / III / IV rows).
struct MethodSpec {
  std::string name;
  bool noise_aware = false;                              ///< NT on?
  mitigation::Kind mitigation = mitigation::Kind::None;  ///< payload storage path
  retrieval::Algorithm retrieval = retrieval::Algorithm::SSA;
};

/// The six methods of Table I, in paper order:
/// SWV, CxDNN, CorrectNet (mitigation storage + SSA retrieval, no NT),
/// No-Miti(MIPS), NVP*(MIPS) (NT, plain storage, MIPS), NVCiM-PT (NT + SSA).
std::vector<MethodSpec> table1_methods();

/// Scale/sampling knobs of an experiment run. Defaults are sized so the full
/// Table I regenerates in minutes; raise n_users / n_test toward the paper's
/// 100-user protocol when time allows.
struct ExperimentOptions {
  std::size_t n_users = 5;
  std::size_t buffer_size = 25;   ///< paper default for Table I
  std::size_t n_test = 12;
  std::size_t n_virtual_tokens = 8;
  std::size_t tuner_steps = 60;
  std::size_t pretrain_corpus = 2000;
  std::size_t autoencoder_samples = 64;
  std::size_t max_seq = 48;
  std::uint64_t seed = 2025;
};

/// Shared state for evaluating many (device, σ, method) cells on one
/// (LLM profile, dataset) pair: the backbone is pretrained once, users and
/// their OVTs are trained once per NT setting and reused across every cell —
/// matching the paper's protocol, where storage/retrieval vary per device
/// but the tuned OVTs do not.
class ExperimentContext {
 public:
  ExperimentContext(const llm::LlmProfile& profile, const data::LampConfig& task_cfg,
                    ExperimentOptions opts);

  /// Per-cell result with mechanism diagnostics.
  struct CellResult {
    double metric = 0.0;           ///< accuracy or ROUGE-1 F1
    double retrieval_match = 0.0;  ///< fraction of queries whose retrieved OVT
                                   ///< domain equals the query domain
    double payload_rel_err = 0.0;  ///< mean ‖restored − clean‖/‖clean‖ of prompts
  };

  /// Mean task metric (accuracy or ROUGE-1) of a method on a device at the
  /// given variation scale.
  double evaluate(const MethodSpec& method, const nvm::DeviceModel& device, double sigma);
  /// Runs the cell's users in parallel, one thread per hardware thread at
  /// most (the caller is one of them): OVT training per (user,
  /// representative), then each user's storage, retrieval and
  /// classification. A serial merge then walks users and queries in order,
  /// so the result is bit-identical to a one-thread loop; generation tasks
  /// also sample there, drawing the evaluation RNG in that order.
  CellResult evaluate_detailed(const MethodSpec& method, const nvm::DeviceModel& device,
                               double sigma);

  const data::LampTask& task() const { return task_; }
  llm::TinyLM& model() { return model_; }
  const ExperimentOptions& options() const { return opts_; }

 private:
  struct UserState {
    data::UserData data;
    std::vector<std::size_t> rep_indices;             ///< into data.train
    std::vector<std::vector<std::size_t>> cluster_members;  ///< per representative
    std::vector<Matrix> query_raw;  ///< resampled (pre-encoder) query embeddings
    // OVT cache: key "plain" = plain training, "ntXXX" = noise-aware at σ key
    std::map<std::string, std::vector<Matrix>> ovt_cache;
  };

  friend class ExperimentFanoutPeer;  ///< tests: evaluate at a chosen width

  /// evaluate_detailed() with the user fan-out `width` threads wide.
  CellResult evaluate_fanout(const MethodSpec& method, const nvm::DeviceModel& device,
                             double sigma, std::size_t width);
  /// Fills the OVT cache of every user that lacks this NT setting, one
  /// parallel work item per (user, representative).
  void train_missing_ovts(bool noise_aware, double sigma, std::size_t width);
  static std::string cache_key(bool noise_aware, double sigma);

  ExperimentOptions opts_;
  data::LampTask task_;
  llm::TinyLM model_;
  compress::Autoencoder autoenc_;
  std::vector<UserState> users_;
};

/// Fig. 1 harness: one4all prompt-tuning methods vs OVT prefix tuning
/// (oracle per-domain prefixes, no NVM in the loop).
struct Fig1Result {
  double vanilla = 0.0;  ///< Lester-style one4all soft prompt
  double dept = 0.0;     ///< DEPT one4all
  double ptv2 = 0.0;     ///< P-tuning v2 (one4all deep prompts)
  double ovt = 0.0;      ///< prefix tuning with per-domain OVTs
};

Fig1Result run_fig1_cell(const llm::LlmProfile& profile, const data::LampConfig& task_cfg,
                         const ExperimentOptions& opts);

}  // namespace nvcim::core
