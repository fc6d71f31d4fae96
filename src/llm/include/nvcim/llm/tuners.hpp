#pragma once

#include <functional>
#include <vector>

#include "nvcim/llm/model.hpp"

namespace nvcim::llm {

/// Hook applied to the virtual-token values before each training forward
/// pass. Returns the perturbed copy; the gradient flows to the unperturbed
/// parameter (straight-through, matching the paper's Eq. 4 noise injection).
/// An empty function means no perturbation.
using PerturbFn = std::function<Matrix(const Matrix& tokens, Rng& rng)>;

/// Common hyper-parameters for all prompt-tuning variants.
///
/// Note on the learning rate: the paper tunes HuggingFace PT at 1e-4 on
/// billion-parameter models; our from-scratch tiny backbones need a larger
/// step to converge within an edge-style budget, so the default is 5e-2
/// (Adam, cosine decay).
struct TunerConfig {
  std::size_t n_virtual_tokens = 8;
  std::size_t steps = 60;
  std::size_t batch_size = 4;
  float lr = 5e-2f;
  float init_std = 0.5f;
  float clip_norm = 1.0f;
  std::uint64_t seed = 11;
  PerturbFn perturb;  ///< noise-aware training hook (empty = off)
  /// Optional warm start (n_virtual_tokens × d). HuggingFace prompt tuning
  /// supports initialization from text embeddings; NVCiM-PT initializes each
  /// OVT from its representative sample's embedding, which both speeds up
  /// convergence and keeps the OVT near the embedding manifold (making it
  /// retrievable by inner-product search against query embeddings).
  Matrix init;  ///< empty = random N(0, init_std²)
  /// Proximal regularization toward `init` (ignored when init is empty):
  /// loss += anchor_weight · ‖P − init‖²/n. Bounds prompt drift so the OVT
  /// stays encodable by the shared autoencoder and retrievable by
  /// embedding-space search.
  float anchor_weight = 0.3f;
};

/// Vanilla prompt tuning (Lester et al.): trainable virtual tokens prepended
/// at the embedding level. This is the representation NVCiM-PT stores in NVM
/// as the OVT payload.
class SoftPromptTuner {
 public:
  explicit SoftPromptTuner(TunerConfig cfg) : cfg_(cfg) {}

  /// Returns the tuned n_virtual×d soft prompt. Training on a single sample
  /// yields that sample's OVT; training on a whole buffer yields a one4all
  /// prompt.
  Matrix train(TinyLM& model, const std::vector<TrainExample>& examples) const;

  const TunerConfig& config() const { return cfg_; }

 private:
  TunerConfig cfg_;
};

/// Prefix tuning (Li & Liang): trainable per-layer key/value rows. Also
/// implements P-tuning v2, whose "deep prompts" are the same mechanism
/// trained one4all.
class PrefixKvTuner {
 public:
  explicit PrefixKvTuner(TunerConfig cfg) : cfg_(cfg) {}

  KvPrefixValues train(TinyLM& model, const std::vector<TrainExample>& examples) const;

  const TunerConfig& config() const { return cfg_; }

 private:
  TunerConfig cfg_;
};

/// DEPT (decomposed prompt tuning): a shorter soft prompt plus a low-rank
/// additive update of the embedding table.
struct DeptAdapters {
  Matrix soft_prompt;  ///< n_short × d
  Matrix lora_a;       ///< vocab × r
  Matrix lora_b;       ///< r × d
  Matrix embed_delta() const { return matmul(lora_a, lora_b); }
};

class DeptTuner {
 public:
  struct Config {
    TunerConfig base;     ///< n_virtual_tokens here is the *shortened* prompt length
    std::size_t rank = 2;
  };

  explicit DeptTuner(Config cfg) : cfg_(cfg) {}

  DeptAdapters train(TinyLM& model, const std::vector<TrainExample>& examples) const;

 private:
  Config cfg_;
};

}  // namespace nvcim::llm
