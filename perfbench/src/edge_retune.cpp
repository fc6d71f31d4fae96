// edge-retune: the paper's loop under domain shift. Set-up pretrains a
// gemma2b_sim backbone on a reduced corpus and trains 4 tenants with
// NvcimPtFramework (representative selection, noise-aware prompt tuning, the
// autoencoder and NVM storage). The engine runs the lifecycle store with
// write-behind admission, exact SSA retrieval (two-phase off), run_inference
// on, and 2 workers.
//
// During the timed phase a query thread keeps one request outstanding (an
// edge user waiting for each answer), cycling through the tenants' held-out
// samples, while a retune thread runs a fixed number of retunes spread over
// the phase. A retune builds a buffer from a shifted domain mix, trains a
// fresh framework on it, exports, admits the result under a fresh tenant id,
// waits until it is live, switches that user's traffic to the new id and
// then evicts the old id — so no query ever fails. This is the only workload
// with training (llm, nn, autograd, cluster, compress), crossbar programming
// and backbone classification, and with writes beside reads on the store.
// With one request outstanding there is no queue, so scheduler and batching
// changes should not move it.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "nvcim/cim/perf.hpp"
#include "nvcim/llm/profiles.hpp"
#include "nvcim/serve/engine.hpp"

namespace perfbench {

namespace {

using nvcim::Matrix;
using nvcim::Rng;
namespace serve = nvcim::serve;
namespace core = nvcim::core;

constexpr std::size_t kUsers = 4;
constexpr std::size_t kRetunes = 4;  ///< one per user, spread over the timed phase
constexpr std::size_t kBuffer = 20;  ///< samples per training buffer
constexpr std::size_t kHeldOut = 96;
constexpr std::size_t kAeSamples = 24;
constexpr std::size_t kPretrainSteps = 200;
constexpr std::size_t kPretrainCorpus = 600;
constexpr std::size_t kSetups = 3;

struct Inputs {
  nvcim::data::LampTask task;
  nvcim::llm::LlmProfile profile = nvcim::llm::gemma2b_sim();
  std::vector<nvcim::llm::TrainExample> corpus;
  std::vector<nvcim::data::UserData> users;    ///< initial buffers + held-out sets
  std::vector<nvcim::data::UserData> retunes;  ///< shifted-domain buffers + held-out sets
  std::uint64_t seed;

  // The task definition and the pretraining corpus are fixed (a dataset);
  // the seed draws the users, their buffers and held-out sets, the training
  // and device-noise streams.
  explicit Inputs(std::uint64_t s) : task(nvcim::data::lamp1_config()), seed(s) {
    profile.pretrain.steps = kPretrainSteps;
    corpus = task.pretraining_corpus(kPretrainCorpus, 0xC0DEull);
    const std::size_t base = 1000 * static_cast<std::size_t>(seed % 1000000);
    for (std::size_t u = 0; u < kUsers; ++u)
      users.push_back(task.make_user(base + u, kBuffer, kHeldOut));
    // A retune's buffer comes from a fresh draw of domains: the user's
    // context has shifted since the tenant was trained.
    for (std::size_t r = 0; r < kRetunes; ++r)
      retunes.push_back(task.make_user(base + 500 + r, kBuffer, kHeldOut));
  }

  core::FrameworkConfig framework_config(std::size_t salt) const {
    core::FrameworkConfig cfg;
    cfg.tuner.n_virtual_tokens = 8;
    cfg.tuner.steps = 30;
    cfg.autoencoder.steps = 120;
    cfg.variation = {nvcim::nvm::fefet3(), 0.1};
    cfg.seed = seed * 31ull + salt;
    return cfg;
  }
};

serve::ServingConfig engine_config(std::uint64_t seed) {
  serve::ServingConfig cfg;
  cfg.n_threads = 2;
  cfg.run_inference = true;
  cfg.lifecycle.enabled = true;
  cfg.lifecycle.write_behind = true;
  cfg.variation = {nvcim::nvm::fefet3(), 0.1};
  cfg.seed = seed ^ 0xED6Eull;
  return cfg;
}

/// Everything set-up produces: the pretrained backbone, the trained tenants
/// and the started engine serving them.
struct Deployment {
  std::unique_ptr<nvcim::llm::TinyLM> model;
  std::vector<std::vector<Matrix>> tenant_keys;  ///< for the determinism check
  std::unique_ptr<serve::ServingEngine> engine;
};

Deployment set_up(const Inputs& in) {
  Deployment d;
  {
    PB_SPAN("llm", "build_pretrained");
    d.model = std::make_unique<nvcim::llm::TinyLM>(nvcim::llm::build_pretrained(
        in.profile, in.task.vocab_size(), 48, in.corpus, 0xBB0Eull));
  }
  d.engine = std::make_unique<serve::ServingEngine>(*d.model, in.task, engine_config(in.seed));
  for (std::size_t u = 0; u < kUsers; ++u) {
    core::NvcimPtFramework fw(*d.model, in.task, in.framework_config(u));
    {
      PB_SPAN("compress", "initialize_autoencoder");
      fw.initialize_autoencoder(kAeSamples);
    }
    {
      PB_SPAN("core", "train_from_buffer");
      fw.train_from_buffer(in.users[u].train);
    }
    core::TrainedDeployment dep = fw.export_deployment();
    d.tenant_keys.push_back(dep.keys);
    d.engine->add_deployment(u, std::move(dep));
  }
  {
    PB_SPAN("serve", "ServingEngine::start");
    d.engine->start();
  }
  return d;
}

bool same_keys(const std::vector<std::vector<Matrix>>& a,
               const std::vector<std::vector<Matrix>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t u = 0; u < a.size(); ++u) {
    if (a[u].size() != b[u].size()) return false;
    for (std::size_t k = 0; k < a[u].size(); ++k)
      if (a[u][k].rows() != b[u][k].rows() || a[u][k].cols() != b[u][k].cols() ||
          !std::equal(a[u][k].data(), a[u][k].data() + a[u][k].size(), b[u][k].data()))
        return false;
  }
  return true;
}

/// One retune's timings and outcome.
struct RetuneResult {
  double ae_init_ms = 0.0, train_ms = 0.0, retune_ms = 0.0;
  double accuracy = 0.0;
  std::vector<Matrix> keys;  ///< the exported keys, for the repeat check
};

/// Trains retune `r`'s framework from its shifted-domain buffer, then scores
/// it on the retune's held-out set (before export, as `accuracy` is
/// defined). Fills the training times and the accuracy of `res`.
void train_retune(core::NvcimPtFramework& fw, const Inputs& in, std::size_t r,
                  RetuneResult& res) {
  const double a0 = now_s();  // the buffer is full
  {
    PB_SPAN("compress", "initialize_autoencoder");
    fw.initialize_autoencoder(kAeSamples);
  }
  const double a1 = now_s();
  {
    PB_SPAN("core", "train_from_buffer");
    fw.train_from_buffer(in.retunes[r].train);
  }
  res.ae_init_ms = 1e3 * (a1 - a0);
  res.train_ms = 1e3 * (now_s() - a1);
  Rng eval_rng(0xE7A1ull + r);
  double correct = 0.0;
  for (const nvcim::data::Sample& q : in.retunes[r].test) correct += fw.evaluate(q, eval_rng);
  res.accuracy = correct / static_cast<double>(in.retunes[r].test.size());
}

}  // namespace

void run_edge_retune(const Args& args, Report& report) {
  const Inputs in(args.seed);

  std::vector<double> setup_s;
  Deployment dep;
  std::vector<std::vector<Matrix>> first_keys;
  for (std::size_t i = 0; i < kSetups; ++i) {
    dep.engine.reset();
    const double t0 = now_s();
    dep = set_up(in);
    setup_s.push_back(now_s() - t0);
    if (i == 0) first_keys = dep.tenant_keys;
    report.check(same_keys(first_keys, dep.tenant_keys),
                 "repeated set-up trained different tenant keys");
  }
  serve::ServingEngine& engine = *dep.engine;
  nvcim::llm::TinyLM& model = *dep.model;

  // Which tenant id serves each user, and which held-out set it answers.
  // Only the query thread reads or writes these during the phase; the
  // retune thread hands it a swap and waits until it is applied, which the
  // query thread does between requests — so when the retune thread evicts
  // the old id, no request for it is queued or in flight.
  std::vector<std::size_t> tenant_of(kUsers);
  std::vector<const std::vector<nvcim::data::Sample>*> heldout_of(kUsers);
  for (std::size_t u = 0; u < kUsers; ++u) {
    tenant_of[u] = u;
    heldout_of[u] = &in.users[u].test;
  }
  struct Swap {
    std::size_t user, tenant;
    const std::vector<nvcim::data::Sample>* heldout;
  };
  std::mutex swap_mu;
  std::condition_variable swap_cv;
  std::optional<Swap> pending;  // guarded by swap_mu
  bool querying = true;         // guarded by swap_mu
  auto apply_pending = [&] {    // caller holds swap_mu
    if (!pending) return;
    tenant_of[pending->user] = pending->tenant;
    heldout_of[pending->user] = pending->heldout;
    pending.reset();
    swap_cv.notify_all();
  };

  const serve::StatsSnapshot s0 = engine.stats();
  const nvcim::cim::OpCounters c0 = engine.store().counters();
  const double t0 = now_s();

  std::vector<RetuneResult> retunes(kRetunes);
  std::atomic<std::size_t> retunes_done{0};
  std::exception_ptr retune_error;  // written by the retune thread, read after join
  std::atomic<bool> retune_failed{false};
  std::thread retuner([&] {
    std::vector<std::size_t> live = tenant_of;  // the retune thread's own copy
    try {
      for (std::size_t r = 0; r < kRetunes; ++r) {
        const double start = t0 + args.seconds * static_cast<double>(r) / kRetunes;
        while (now_s() < start) std::this_thread::sleep_for(std::chrono::milliseconds(1));
        const std::size_t user = r % kUsers;
        const std::size_t new_id = kUsers * (r + 1) + user;
        RetuneResult& res = retunes[r];
        core::NvcimPtFramework fw(model, in.task, in.framework_config(100 + r));
        train_retune(fw, in, r, res);
        const double a3 = now_s();  // evaluation is excluded from the retune time
        core::TrainedDeployment exported = fw.export_deployment();
        res.keys = exported.keys;
        {
          PB_SPAN("serve", "ServingEngine::admit");
          engine.admit(new_id, std::move(exported)).wait();
        }
        res.retune_ms = res.ae_init_ms + res.train_ms + 1e3 * (now_s() - a3);
        {
          std::unique_lock<std::mutex> lock(swap_mu);
          pending = Swap{user, new_id, &in.retunes[r].test};
          swap_cv.wait(lock, [&] { return !pending || !querying; });
          apply_pending();  // only still pending once the query thread stopped
        }
        {
          PB_SPAN("serve", "ServingEngine::evict_user");
          engine.evict_user(live[user]);
        }
        live[user] = new_id;
        ++retunes_done;
      }
    } catch (...) {
      retune_error = std::current_exception();
      retune_failed = true;
    }
  });

  // The query thread: one request outstanding, until the phase is over and
  // every retune has landed.
  std::vector<double> latency_ms;
  std::size_t failed = 0, queries = 0;
  std::vector<std::size_t> cursor(kUsers, 0);
  for (std::size_t i = 0;; ++i) {
    const double elapsed = now_s() - t0;
    if (elapsed >= args.seconds && retunes_done == kRetunes) break;
    if (elapsed >= args.seconds + 60.0 || retune_failed) break;
    const std::size_t user = i % kUsers;
    {
      std::lock_guard<std::mutex> lock(swap_mu);
      apply_pending();
    }
    const std::vector<nvcim::data::Sample>& heldout = *heldout_of[user];
    serve::Request req{tenant_of[user], heldout[cursor[user]++ % heldout.size()]};
    const double q0 = now_s();
    try {
      PB_SPAN("serve", "ServingEngine::submit+get");
      const serve::Response r = engine.submit(std::move(req)).get();
      const double q1 = now_s();
      if (!r.has_label) ++failed;
      latency_ms.push_back(1e3 * (q1 - q0));
    } catch (const std::exception&) {
      ++failed;
    }
    ++queries;
  }
  const double query_s = now_s() - t0;
  {
    std::lock_guard<std::mutex> lock(swap_mu);
    querying = false;
  }
  swap_cv.notify_all();
  retuner.join();
  if (retune_error) std::rethrow_exception(retune_error);
  const nvcim::cim::OpCounters dc = counters_delta(c0, engine.store().counters());
  const serve::StatsSnapshot st = engine.stats();
  report.attempted += queries + kRetunes;
  report.failed += failed;
  report.check(failed == 0, "edge-retune queries failed across tenant swaps");

  double accuracy = 0.0;
  std::vector<double> retune_ms, train_ms, ae_ms;
  for (const RetuneResult& r : retunes) {
    accuracy += r.accuracy / kRetunes;
    retune_ms.push_back(r.retune_ms);
    train_ms.push_back(r.train_ms);
    ae_ms.push_back(r.ae_init_ms);
  }
  report.check(accuracy > 0.0, "edge-retune accuracy is zero");

  // `accuracy` must not depend on timing: one retune, trained again with no
  // traffic beside it, must give the same keys and the same held-out score,
  // bit for bit, as it did while the engine served from the same backbone.
  {
    const std::size_t r = args.seed % kRetunes;
    RetuneResult again;
    core::NvcimPtFramework fw(model, in.task, in.framework_config(100 + r));
    train_retune(fw, in, r, again);
    report.check(again.accuracy == retunes[r].accuracy &&
                     same_keys({fw.export_deployment().keys}, {retunes[r].keys}),
                 "a retune trained again gave different keys or accuracy");
  }

  if (!args.trace) {
    engine.stop();
    report.metric("setup_s", "s", median(setup_s));
    report.metric("peak_rss_mb", "MB", peak_rss_mb());
    report.metric("throughput_rps", "1/s", static_cast<double>(queries) / query_s);
    report.metric("latency_p50_ms", "ms", median(latency_ms));
    report.metric("accuracy", "ratio", accuracy);
    return;
  }

  const double reqs = static_cast<double>(st.requests - s0.requests);
  const nvcim::cim::PerfEstimate dev =
      nvcim::cim::cim_cost_from_counters(nvcim::cim::fefet_perf_22nm(),
                                         engine_config(args.seed).crossbar, dc);
  report.metric("retune_ms_p50", "ms", median(retune_ms));
  report.metric("core.train_ms_per_buffer", "ms", median(train_ms));
  report.metric("compress.ae_init_ms", "ms", median(ae_ms));
  report.metric("serve.admission_p50_ms", "ms", st.admission_p50_ms);
  report_engine_stages(s0, st, report);
  // At one request outstanding the modeled latency per request is the same
  // on every run, so only the energy is reported here.
  report.metric("serve.device_energy_pj_per_req", "pJ", dev.energy_pj / reqs);
  report.metric("cim.cells_programmed_per_retune", "count",
                static_cast<double>(dc.cells_programmed) / kRetunes);
  report.metric("cim.write_pulses_per_retune", "count",
                static_cast<double>(dc.write_pulses) / kRetunes);

  // Replays of the final tenants' held-out queries through the layers'
  // public entry points (one query at a time, as the edge user sends them).
  serve::ShardedOvtStore& store = engine.store_mutable();
  nvcim::retrieval::CimRetriever::Scratch scratch;
  nvcim::compress::Autoencoder::Scratch ae_scratch;
  core::EncodeScratch encode_scratch;
  Matrix scores, prompt;
  std::vector<double> encode_s, score_s, decode_s, classify_s;
  for (std::size_t u = 0; u < kUsers; ++u) {
    const std::size_t tenant = tenant_of[u];
    const core::TrainedDeployment& d = engine.deployment(tenant);
    const serve::UserSlot slot = store.slot(tenant);
    for (const nvcim::data::Sample& q : *heldout_of[u]) {
      double t = now_s();
      Matrix rep;
      {
        PB_SPAN("core", "query_representation_batch");
        rep = core::TrainedDeployment::query_representation_batch(model, {&d}, {&q},
                                                                  &encode_scratch);
      }
      encode_s.push_back(now_s() - t);
      t = now_s();
      {
        PB_SPAN("ovt_store", "shard_scores_into");
        store.shard_scores_into(slot.shard, rep, scores, scratch);
      }
      score_s.push_back(now_s() - t);
      const std::size_t ovt = serve::ShardedOvtStore::best_in_slot(scores, 0, slot);
      t = now_s();
      {
        PB_SPAN("compress", "decode_prompt_into");
        d.decode_prompt_into(ovt, prompt, &ae_scratch);
      }
      decode_s.push_back(now_s() - t);
      t = now_s();
      {
        PB_SPAN("llm", "classify_batch");
        model.classify_batch({&q.input}, in.task.label_ids(), {&prompt});
      }
      classify_s.push_back(now_s() - t);
    }
  }
  engine.stop();
  report.metric("core.encode_us_per_batch", "us", 1e6 * median(encode_s));
  report.metric("ovt_store.score_exact_us_per_batch", "us", 1e6 * median(score_s));
  report.metric("compress.decode_us_per_ovt", "us", 1e6 * median(decode_s));
  report.metric("llm.classify_us_per_query", "us", 1e6 * median(classify_s));
  finish_trace(args, report);
}

}  // namespace perfbench
