#include "nvcim/core/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <functional>
#include <mutex>
#include <sstream>
#include <system_error>
#include <thread>

namespace nvcim::core {

std::vector<MethodSpec> table1_methods() {
  using mitigation::Kind;
  using retrieval::Algorithm;
  return {
      {"SWV", false, Kind::SWV, Algorithm::SSA},
      {"CxDNN", false, Kind::CxDNN, Algorithm::SSA},
      {"CorrectNet", false, Kind::CorrectNet, Algorithm::SSA},
      {"No-Miti(MIPS)", false, Kind::None, Algorithm::MIPS},
      {"NVP*(MIPS)", true, Kind::None, Algorithm::MIPS},
      {"NVCiM-PT", true, Kind::None, Algorithm::SSA},
  };
}

namespace {

compress::AutoencoderConfig make_ae_config(std::size_t d_model) {
  compress::AutoencoderConfig cfg;
  cfg.input_dim = d_model;
  cfg.code_dim = 48;  // paper: encoding embedding size 48
  cfg.hidden_dim = 2 * d_model;
  cfg.steps = 800;
  return cfg;
}

/// Runs fn(i) for every i in [0, n) on up to `width` threads, the caller
/// being one of them; threads claim items from a shared counter. Rethrows
/// the first exception once every thread has joined.
void fan_out(std::size_t n, std::size_t width, const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;
  auto worker = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 1; t < std::min(width, n); ++t) {
    try {
      threads.emplace_back(worker);
    } catch (const std::system_error&) {
      break;  // fewer threads; the caller still drains every item
    }
  }
  worker();
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace

ExperimentContext::ExperimentContext(const llm::LlmProfile& profile,
                                     const data::LampConfig& task_cfg, ExperimentOptions opts)
    : opts_(opts),
      task_(task_cfg),
      model_(llm::build_pretrained(profile, task_.vocab_size(), opts.max_seq,
                                   task_.pretraining_corpus(opts.pretrain_corpus,
                                                            opts.seed ^ 0xC0DEull),
                                   opts.seed)),
      autoenc_(make_ae_config(profile.d_model)) {
  // Autoencoder pretraining on task-domain embeddings.
  Rng rng(opts_.seed ^ 0xAE17ull);
  std::vector<Matrix> rows;
  for (std::size_t i = 0; i < opts_.autoencoder_samples; ++i) {
    const std::size_t d = rng.uniform_index(task_.config().n_domains);
    rows.push_back(model_.embed(task_.sample(d, rng).input));
  }
  autoenc_.train(rows);

  // Users: buffer + test stream, representative selection (shared by all
  // methods — RS does not depend on the device).
  users_.reserve(opts_.n_users);
  for (std::size_t ui = 0; ui < opts_.n_users; ++ui) {
    UserState u;
    u.data = task_.make_user(ui, opts_.buffer_size, opts_.n_test);

    std::vector<Matrix> embeddings;
    for (const data::Sample& s : u.data.train) embeddings.push_back(model_.embed_mean(s.input));
    const std::size_t k = cluster::select_k(opts_.buffer_size, {});
    cluster::KMeansConfig kmcfg;
    kmcfg.seed = opts_.seed ^ (ui * 7711ull);
    const auto clusters = cluster::kmeans(embeddings, k, kmcfg);
    u.rep_indices = cluster::representatives(embeddings, clusters);
    for (const std::size_t rep : u.rep_indices) {
      std::vector<std::size_t> members;
      for (std::size_t i = 0; i < clusters.assignment.size(); ++i)
        if (clusters.assignment[i] == clusters.assignment[rep]) members.push_back(i);
      u.cluster_members.push_back(std::move(members));
    }

    for (const data::Sample& q : u.data.test)
      u.query_raw.push_back(resample_rows(model_.embed(q.input), opts_.n_virtual_tokens));
    users_.push_back(std::move(u));
  }
}

std::string ExperimentContext::cache_key(bool noise_aware, double sigma) {
  if (!noise_aware) return "plain";
  std::ostringstream os;
  os << "nt" << static_cast<int>(std::lround(sigma * 1000.0));
  return os.str();
}

void ExperimentContext::train_missing_ovts(bool noise_aware, double sigma, std::size_t width) {
  const std::string key = cache_key(noise_aware, sigma);
  llm::TunerConfig tcfg;
  tcfg.n_virtual_tokens = opts_.n_virtual_tokens;
  tcfg.steps = opts_.tuner_steps;
  if (noise_aware) {
    NoiseBandConfig bands;
    bands.sigma = sigma;
    tcfg.perturb = make_noise_hook(bands);
  }

  // One work item per (user, representative): each tuner has its own seed,
  // so the items are independent and their order does not matter.
  std::vector<std::pair<std::size_t, std::size_t>> items;
  for (std::size_t ui = 0; ui < users_.size(); ++ui) {
    if (users_[ui].ovt_cache.count(key) != 0) continue;
    users_[ui].ovt_cache[key];  // users without representatives cache an empty set
    for (std::size_t ri = 0; ri < users_[ui].rep_indices.size(); ++ri)
      items.emplace_back(ui, ri);
  }
  std::vector<Matrix> trained(items.size());
  fan_out(items.size(), width, [&](std::size_t i) {
    const UserState& u = users_[items[i].first];
    const std::size_t ri = items[i].second;
    const data::Sample& rep = u.data.train[u.rep_indices[ri]];
    std::vector<llm::TrainExample> members;
    for (const std::size_t mi : u.cluster_members[ri])
      members.push_back(u.data.train[mi].example);
    llm::TunerConfig cfg_i = tcfg;
    // Same seed for plain and noise-aware training: the two variants share
    // init and batch order, so cells differ only through the injected noise
    // (paired comparison — lowers cross-method variance).
    cfg_i.seed = opts_.seed ^ (u.data.user_id * 977ull + ri * 131ull);
    cfg_i.init = resample_rows(model_.embed(rep.input), cfg_i.n_virtual_tokens);
    trained[i] = llm::SoftPromptTuner(cfg_i).train(model_, members);
  });
  for (std::size_t i = 0; i < items.size(); ++i)
    users_[items[i].first].ovt_cache[key].push_back(std::move(trained[i]));
}

double ExperimentContext::evaluate(const MethodSpec& method, const nvm::DeviceModel& device,
                                   double sigma) {
  return evaluate_detailed(method, device, sigma).metric;
}

ExperimentContext::CellResult ExperimentContext::evaluate_detailed(
    const MethodSpec& method, const nvm::DeviceModel& device, double sigma) {
  return evaluate_fanout(method, device, sigma,
                         std::max(1u, std::thread::hardware_concurrency()));
}

ExperimentContext::CellResult ExperimentContext::evaluate_fanout(
    const MethodSpec& method, const nvm::DeviceModel& device, double sigma, std::size_t width) {
  train_missing_ovts(method.noise_aware, sigma, width);
  const std::string key = cache_key(method.noise_aware, sigma);
  const bool classification = task_.config().kind == data::TaskKind::Classification;

  nvm::VariationModel var{device, sigma};
  auto mit = mitigation::make_mitigation(method.mitigation);
  cim::CrossbarConfig xbar;  // paper defaults: 384×128, 2-bit, int16

  // What one user's work leaves for the merge, in the serial loop's order.
  struct UserOutcome {
    std::vector<double> payload_err;  ///< per stored prompt with a nonzero clean norm
    std::vector<std::size_t> retrieved;  ///< per query: index of the retrieved OVT
    std::vector<double> acc;          ///< per query (classification only)
    std::vector<Matrix> prompts;      ///< restored prompts (generation only)
  };
  std::vector<UserOutcome> outcomes(users_.size());

  fan_out(users_.size(), width, [&](std::size_t ui) {
    const UserState& u = users_[ui];
    const std::vector<Matrix>& ovts = u.ovt_cache.at(key);
    if (ovts.empty()) return;
    UserOutcome& out = outcomes[ui];

    // Encode and store: retrieval keys into the search banks, payload codes
    // through the mitigation storage path. Anchored OVTs stay within the
    // (augmentation-widened) operating ball of the shared autoencoder, so no
    // per-user encoder refresh is needed at evaluation time.
    const compress::Autoencoder& ae = autoenc_;
    std::vector<Matrix> codes;
    for (const Matrix& ovt : ovts)
      codes.push_back(ae.encode(resample_rows(ovt, opts_.n_virtual_tokens)));

    retrieval::CimRetriever::Config rcfg;
    rcfg.algorithm = method.retrieval;
    rcfg.crossbar = xbar;
    rcfg.variation = var;
    retrieval::CimRetriever retriever(rcfg);
    Rng store_rng(opts_.seed ^ (0x57011ull + u.data.user_id * 31ull));
    retriever.store(codes, store_rng);

    std::vector<Matrix> prompts;
    for (std::size_t i = 0; i < codes.size(); ++i) {
      Rng cell_rng = store_rng.split(i + 1);
      prompts.push_back(ae.decode(mit->store_and_restore(codes[i], xbar, var, cell_rng)));
      const Matrix clean = ae.decode(codes[i]);
      const float denom = clean.frobenius_norm();
      if (denom > 0.0f)
        out.payload_err.push_back((prompts.back() - clean).frobenius_norm() / denom);
    }

    for (std::size_t qi = 0; qi < u.data.test.size(); ++qi) {
      const data::Sample& q = u.data.test[qi];
      const std::size_t idx = retriever.retrieve(ae.encode(u.query_raw[qi]));
      out.retrieved.push_back(idx);
      if (classification) {
        const std::size_t pred = model_.classify(q.input, task_.label_ids(), &prompts[idx]);
        out.acc.push_back(pred == static_cast<std::size_t>(q.label) ? 1.0 : 0.0);
      }
    }
    if (!classification) out.prompts = std::move(prompts);
  });

  // Merge on this thread in the serial loop's order, so every accumulator
  // sums the same values in the same order and generation draws eval_rng
  // exactly as one thread would.
  eval::MeanAccumulator acc, match, payload_err;
  Rng eval_rng(opts_.seed ^ 0xEA71ull);
  for (std::size_t ui = 0; ui < users_.size(); ++ui) {
    const UserState& u = users_[ui];
    const UserOutcome& out = outcomes[ui];
    for (const double e : out.payload_err) payload_err.add(e);
    for (std::size_t qi = 0; qi < out.retrieved.size(); ++qi) {
      const data::Sample& q = u.data.test[qi];
      const std::size_t idx = out.retrieved[qi];
      match.add(u.data.train[u.rep_indices[idx]].domain == q.domain ? 1.0 : 0.0);
      if (classification) {
        acc.add(out.acc[qi]);
      } else {
        const std::vector<int> hyp =
            model_.generate(q.input, task_.config().gen_len + 2, 0.1f, eval_rng,
                            task_.eos_id(), &out.prompts[idx]);
        acc.add(eval::rouge1(hyp, data::LampTask::reference_words(q)).f1);
      }
    }
  }
  CellResult res;
  res.metric = acc.mean();
  res.retrieval_match = match.mean();
  res.payload_rel_err = payload_err.mean();
  return res;
}

Fig1Result run_fig1_cell(const llm::LlmProfile& profile, const data::LampConfig& task_cfg,
                         const ExperimentOptions& opts) {
  data::LampTask task(task_cfg);
  llm::TinyLM model = llm::build_pretrained(
      profile, task.vocab_size(), opts.max_seq,
      task.pretraining_corpus(opts.pretrain_corpus, opts.seed ^ 0xC0DEull), opts.seed);

  eval::MeanAccumulator m_vanilla, m_dept, m_ptv2, m_ovt;
  Rng gen_rng(opts.seed ^ 0xF161ull);

  for (std::size_t ui = 0; ui < opts.n_users; ++ui) {
    const data::UserData u = task.make_user(ui, opts.buffer_size, opts.n_test);
    std::vector<llm::TrainExample> buffer_examples;
    for (const data::Sample& s : u.train) buffer_examples.push_back(s.example);

    llm::TunerConfig base;
    base.n_virtual_tokens = opts.n_virtual_tokens;
    base.steps = opts.tuner_steps * 2;  // one4all sees the whole buffer
    base.seed = opts.seed ^ (ui * 31337ull);

    // one4all variants.
    const Matrix vanilla_prompt = llm::SoftPromptTuner(base).train(model, buffer_examples);
    llm::DeptTuner::Config dcfg;
    dcfg.base = base;
    dcfg.base.n_virtual_tokens = std::max<std::size_t>(2, opts.n_virtual_tokens / 2);
    const llm::DeptAdapters dept = llm::DeptTuner(dcfg).train(model, buffer_examples);
    const Matrix dept_delta = dept.embed_delta();
    const llm::KvPrefixValues ptv2 = llm::PrefixKvTuner(base).train(model, buffer_examples);

    // OVT prefixes: oracle per-domain prefix tuning on the buffer samples of
    // that domain (the paper's "optimal set of virtual tokens" upper bound).
    std::map<std::size_t, llm::KvPrefixValues> ovt_by_domain;
    for (const std::size_t d : u.domains) {
      std::vector<llm::TrainExample> domain_examples;
      for (const data::Sample& s : u.train)
        if (s.domain == d) domain_examples.push_back(s.example);
      if (domain_examples.empty()) continue;
      llm::TunerConfig pcfg = base;
      pcfg.steps = opts.tuner_steps;
      pcfg.seed = base.seed ^ (d * 977ull);
      ovt_by_domain.emplace(d, llm::PrefixKvTuner(pcfg).train(model, domain_examples));
    }

    auto score = [&](const data::Sample& q, const Matrix* soft,
                     const llm::KvPrefixValues* kv, const Matrix* delta) {
      if (task.config().kind == data::TaskKind::Classification) {
        const std::size_t pred = model.classify(q.input, task.label_ids(), soft, kv, delta);
        return pred == static_cast<std::size_t>(q.label) ? 1.0 : 0.0;
      }
      const std::vector<int> hyp = model.generate(q.input, task.config().gen_len + 2, 0.1f,
                                                  gen_rng, task.eos_id(), soft, kv, delta);
      return eval::rouge1(hyp, data::LampTask::reference_words(q)).f1;
    };

    for (const data::Sample& q : u.test) {
      m_vanilla.add(score(q, &vanilla_prompt, nullptr, nullptr));
      m_dept.add(score(q, &dept.soft_prompt, nullptr, &dept_delta));
      m_ptv2.add(score(q, nullptr, &ptv2, nullptr));
      auto it = ovt_by_domain.find(q.domain);
      if (it != ovt_by_domain.end())
        m_ovt.add(score(q, nullptr, &it->second, nullptr));
      else
        m_ovt.add(score(q, nullptr, nullptr, nullptr));
    }
  }

  Fig1Result r;
  r.vanilla = m_vanilla.mean();
  r.dept = m_dept.mean();
  r.ptv2 = m_ptv2.mean();
  r.ovt = m_ovt.mean();
  return r;
}

}  // namespace nvcim::core
