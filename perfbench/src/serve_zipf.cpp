// serve-zipf: multi-tenant, retrieval-bound serving. 64 tenants, each with
// 48 domain-clustered synthetic OVT keys (noisy copies of 6 prototypes),
// packed into the paper's 384×128 crossbar subarrays over 4 shards (FeFET,
// σ = 0.1). The engine runs two-phase retrieval at its default nprobe and
// recall sampling, max_batch 16 and 3 workers; inference is off and the
// store is built once. One client thread keeps 16 requests outstanding (a
// closed loop: 16 callers, each awaiting its reply); tenant popularity is
// Zipf(1), so hot tenants load their shards and the decode LRU sees skewed
// reuse. There is no training, no programming after set-up and no backbone
// pass, so kernel, shard-locking and scheduler changes show here.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "harness.hpp"
#include "nvcim/cim/perf.hpp"
#include "nvcim/serve/engine.hpp"

namespace perfbench {

namespace {

using nvcim::Matrix;
using nvcim::Rng;
namespace serve = nvcim::serve;
namespace core = nvcim::core;

constexpr std::size_t kTenants = 64;
constexpr std::size_t kKeysPerTenant = 48;
constexpr std::size_t kPrototypes = 6;
constexpr std::size_t kDModel = 16;
constexpr std::size_t kCodeDim = 24;
constexpr std::size_t kVirtualTokens = 4;
constexpr std::size_t kAeHidden = 32;
constexpr std::size_t kShards = 4;
constexpr std::size_t kWorkers = 3;
constexpr std::size_t kMaxBatch = 16;
constexpr std::size_t kOutstanding = 16;
constexpr std::size_t kStream = 8192;        ///< distinct generated requests, cycled
constexpr std::size_t kWarmupRequests = 4096;  ///< LRU warm-up inside set-up
constexpr std::size_t kSetups = 3;           ///< set-ups per run (setup_s is their median)
constexpr std::size_t kCheckEvery = 16;      ///< every Nth timed request is replayed
constexpr std::size_t kRecallSample = 2048;  ///< fixed recall_at1 sample

struct Inputs {
  nvcim::data::LampTask task{nvcim::data::lamp1_config()};
  nvcim::llm::TinyLM model;
  std::vector<core::TrainedDeployment> deployments;
  std::vector<serve::Request> stream;

  explicit Inputs(std::uint64_t seed) : model(make_model(task, seed)) {
    make_deployments(seed);
    Rng rng(seed ^ 0x5E12F00Dull);
    // Zipf(1) tenant popularity. Registration places tenant t on shard
    // t mod kShards, so rank r goes to a seed-chosen tenant of shard class
    // r mod kShards: every seed loads the shards in the same proportions,
    // while which tenants are hot changes with the seed.
    std::vector<std::size_t> rank_to_tenant(kTenants);
    for (std::size_t c = 0; c < kShards; ++c) {
      const std::vector<std::size_t> perm = rng.permutation(kTenants / kShards);
      for (std::size_t j = 0; j < perm.size(); ++j)
        rank_to_tenant[j * kShards + c] = perm[j] * kShards + c;
    }
    std::vector<double> cdf(kTenants);
    double total = 0.0;
    for (std::size_t r = 0; r < kTenants; ++r) cdf[r] = (total += 1.0 / static_cast<double>(r + 1));
    for (double& c : cdf) c /= total;
    for (std::size_t i = 0; i < kStream; ++i) {
      const double u = rng.uniform();
      const std::size_t r = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      const std::size_t tenant = rank_to_tenant[std::min(r, kTenants - 1)];
      stream.push_back(
          {tenant, task.sample(rng.uniform_index(task.config().n_domains), rng)});
    }
  }

  static nvcim::llm::TinyLM make_model(const nvcim::data::LampTask& task, std::uint64_t seed) {
    nvcim::llm::TinyLmConfig cfg;
    cfg.vocab = task.vocab_size();
    cfg.d_model = kDModel;
    cfg.n_layers = 1;
    cfg.n_heads = 2;
    cfg.ffn_hidden = 2 * kDModel;
    cfg.max_seq = 40;
    cfg.prompt_slots = 8;
    return nvcim::llm::TinyLM(cfg, seed ^ 0x70DE1ull);
  }

  /// One autoencoder shared by every tenant (a platform-provided encoder,
  /// so the engine fuses a batch into one encode GEMM) and per-tenant keys:
  /// noisy copies of that tenant's domain prototypes.
  void make_deployments(std::uint64_t seed) {
    nvcim::compress::AutoencoderConfig acfg;
    acfg.input_dim = kDModel;
    acfg.code_dim = kCodeDim;
    acfg.hidden_dim = kAeHidden;
    acfg.seed = seed ^ 0xAE5EEDull;
    auto autoencoder = std::make_shared<const nvcim::compress::Autoencoder>(acfg);
    for (std::size_t t = 0; t < kTenants; ++t) {
      core::TrainedDeployment d;
      d.autoencoder = autoencoder;
      d.n_virtual_tokens = kVirtualTokens;
      Rng rng(seed * 7919ull + t);
      std::vector<Matrix> protos;
      for (std::size_t p = 0; p < kPrototypes; ++p)
        protos.push_back(Matrix::rand_uniform(kVirtualTokens, kCodeDim, rng, -1.0f, 1.0f));
      for (std::size_t k = 0; k < kKeysPerTenant; ++k) {
        Matrix key = protos[k % kPrototypes];
        key += Matrix::randn(kVirtualTokens, kCodeDim, rng, 0.08f);
        d.keys.push_back(key);
        d.stored_codes.push_back(
            Matrix::rand_uniform(kVirtualTokens, kCodeDim, rng, -1.0f, 1.0f));
        d.domains.push_back(k % kPrototypes);
      }
      deployments.push_back(std::move(d));
    }
  }
};

serve::ServingConfig engine_config(std::uint64_t seed) {
  serve::ServingConfig cfg;
  cfg.n_shards = kShards;
  cfg.n_threads = kWorkers;
  cfg.max_batch = kMaxBatch;
  cfg.two_phase.enabled = true;
  cfg.variation = {nvcim::nvm::fefet3(), 0.1};
  cfg.seed = seed ^ 0x5EEDull;
  return cfg;
}

/// Result of one closed-loop phase.
struct LoopResult {
  double seconds = 0.0;               ///< first submit to last completion
  double client_cpu_s = 0.0;          ///< CPU time of the client thread
  /// Summed over resubmissions: completion callback to the slot's next
  /// submit (time spent in the client), and submit to completion callback.
  double resubmit_gap_s = 0.0, in_engine_s = 0.0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::vector<double> latency_ms;     ///< per completed request
  std::vector<std::pair<std::size_t, std::size_t>> served;  ///< (stream index, ovt_index)
};

/// Closed loop from the calling thread: `kOutstanding` requests in flight,
/// each completion immediately replaced by the next stream request, until
/// `max_requests` were submitted or `max_seconds` passed. Requests
/// `first, first + 1, …` of the stream (cyclic) are submitted in order;
/// every `record_every`-th one has its served OVT index recorded.
LoopResult closed_loop(serve::ServingEngine& engine, const std::vector<serve::Request>& stream,
                       std::size_t first, std::size_t max_requests, double max_seconds,
                       std::size_t record_every, bool spans) {
  struct Slot {
    serve::RequestHandle handle;
    double submitted_s = 0.0;
    std::size_t index = 0;
  };
  std::vector<Slot> slots(kOutstanding);
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::pair<std::size_t, double>> done;  // guarded by mu

  LoopResult res;
  std::size_t next = first, in_flight = 0;
  const double t0 = now_s();
  const double cpu0 = thread_cpu_s();
  const double deadline = t0 + max_seconds;
  auto submit = [&](std::size_t slot) {
    Slot& s = slots[slot];
    s.index = next++;
    serve::SubmitOptions opts;
    opts.on_complete = [&mu, &cv, &done, slot](const serve::Response&, std::exception_ptr) {
      const double t = now_s();
      std::lock_guard<std::mutex> lock(mu);
      done.emplace_back(slot, t);
      cv.notify_one();
    };
    s.submitted_s = now_s();
    nvcim::obs::Span span(spans ? tracer() : nullptr, "ServingEngine::submit", "serve");
    try {
      s.handle = engine.submit(stream[s.index % stream.size()], std::move(opts));
      ++in_flight;
    } catch (const std::exception&) {
      ++res.failed;  // never queued, so no completion will arrive
    }
  };
  for (std::size_t k = 0; k < kOutstanding && k < max_requests; ++k) submit(k);

  std::vector<std::pair<std::size_t, double>> batch;
  while (in_flight > 0) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !done.empty(); });
      batch.swap(done);
    }
    for (const auto& [slot, t_done] : batch) {
      Slot& s = slots[slot];
      --in_flight;
      try {
        nvcim::obs::Span span(spans ? tracer() : nullptr, "RequestHandle::get", "serve");
        const serve::Response r = s.handle.get();
        ++res.completed;
        res.latency_ms.push_back(1000.0 * (t_done - s.submitted_s));
        if ((s.index - first) % record_every == 0) res.served.emplace_back(s.index, r.ovt_index);
      } catch (const std::exception&) {
        ++res.failed;
      }
      if (next - first < max_requests && now_s() < deadline) {
        res.in_engine_s += t_done - s.submitted_s;
        submit(slot);
        res.resubmit_gap_s += s.submitted_s - t_done;
      }
    }
    batch.clear();
  }
  res.seconds = now_s() - t0;
  res.client_cpu_s = thread_cpu_s() - cpu0;
  return res;
}

/// Set-up: deploy every tenant, build the store, start the workers and warm
/// the decode LRU with a fixed prefix of the stream.
std::unique_ptr<serve::ServingEngine> set_up(Inputs& in, const serve::ServingConfig& cfg,
                                             Report& report) {
  auto engine = std::make_unique<serve::ServingEngine>(in.model, in.task, cfg);
  for (std::size_t t = 0; t < kTenants; ++t) engine->add_deployment(t, in.deployments[t]);
  {
    PB_SPAN("serve", "ServingEngine::start");
    engine->start();
  }
  const LoopResult warm =
      closed_loop(*engine, in.stream, 0, kWarmupRequests, 1e9, kWarmupRequests, false);
  report.attempted += kWarmupRequests;
  report.failed += warm.failed;
  return engine;
}

/// Replays the sampled requests single-threaded through the store's public
/// two-phase calls and checks the engine served exactly those OVTs.
std::size_t replay_mismatches(Inputs& in, serve::ServingEngine& engine,
                              const std::vector<std::pair<std::size_t, std::size_t>>& served) {
  serve::ShardedOvtStore& store = engine.store_mutable();
  nvcim::cim::CandidateSet cands;
  serve::ShardedOvtStore::RouteScratch route;
  nvcim::retrieval::CimRetriever::Scratch scratch;
  Matrix scores;
  std::size_t mismatches = 0;
  for (const auto& [index, ovt] : served) {
    const serve::Request& req = in.stream[index % in.stream.size()];
    const Matrix rep = core::TrainedDeployment::query_representation_batch(
        in.model, {&in.deployments[req.user_id]}, {&req.query});
    const serve::UserSlot slot = store.slot(req.user_id);
    store.route_candidates(slot.shard, rep, {req.user_id}, cands, route);
    store.shard_scores_into(slot.shard, rep, scores, scratch, &cands);
    if (serve::ShardedOvtStore::best_in_slot_candidates(scores, 0, slot, cands) != ovt)
      ++mismatches;
  }
  return mismatches;
}

/// Per-layer replays of the workload's inputs through the layers' public
/// entry points, each call wrapped in a benchmark span.
void layer_replays(Inputs& in, serve::ServingEngine& engine, const serve::ServingConfig& cfg,
                   const std::vector<std::pair<std::size_t, std::size_t>>& served,
                   Report& report) {
  constexpr std::size_t kBatches = 256;

  // core: the batched encode of one 16-request batch.
  std::vector<std::vector<const core::TrainedDeployment*>> deps(kBatches);
  std::vector<std::vector<const nvcim::data::Sample*>> queries(kBatches);
  std::vector<Matrix> reps(kBatches);
  core::EncodeScratch encode_scratch;
  std::vector<double> encode_s;
  for (std::size_t b = 0; b < kBatches; ++b) {
    for (std::size_t i = 0; i < kMaxBatch; ++i) {
      const serve::Request& r = in.stream[b * kMaxBatch + i];
      deps[b].push_back(&in.deployments[r.user_id]);
      queries[b].push_back(&r.query);
    }
    const double t0 = now_s();
    {
      PB_SPAN("core", "query_representation_batch");
      reps[b] = core::TrainedDeployment::query_representation_batch(in.model, deps[b],
                                                                     queries[b], &encode_scratch);
    }
    encode_s.push_back(now_s() - t0);
  }
  report.metric("core.encode_us_per_batch", "us", 1e6 * median(encode_s));

  // ovt_store: phase-1 routing and masked phase-2 scoring of each batch's
  // per-shard row groups, as the engine's retrieve stage issues them.
  serve::ShardedOvtStore& store = engine.store_mutable();
  nvcim::cim::CandidateSet cands;
  serve::ShardedOvtStore::RouteScratch route;
  nvcim::retrieval::CimRetriever::Scratch scratch;
  Matrix group, scores;
  std::vector<double> route_s, score_s;
  auto replay_counts = [&](std::size_t batch_rows, std::vector<double>* route_out,
                           std::vector<double>* score_out) {
    const nvcim::cim::OpCounters c0 = store.counters();
    std::size_t rows_done = 0;
    for (std::size_t b = 0; b < kBatches; ++b)
      for (std::size_t lo = 0; lo < kMaxBatch; lo += batch_rows) {
        std::vector<std::vector<std::size_t>> by_shard(kShards);
        for (std::size_t i = lo; i < lo + batch_rows; ++i)
          by_shard[store.slot(in.stream[b * kMaxBatch + i].user_id).shard].push_back(i);
        for (std::size_t s = 0; s < kShards; ++s) {
          if (by_shard[s].empty()) continue;
          const std::size_t key_size = reps[b].cols();
          group.resize(by_shard[s].size(), key_size);
          std::vector<std::size_t> users;
          for (std::size_t r = 0; r < by_shard[s].size(); ++r) {
            std::memcpy(group.data() + r * key_size, reps[b].data() + by_shard[s][r] * key_size,
                        key_size * sizeof(float));
            users.push_back(in.stream[b * kMaxBatch + by_shard[s][r]].user_id);
          }
          double t0 = now_s();
          {
            PB_SPAN("ovt_store", "route_candidates");
            store.route_candidates(s, group, users, cands, route);
          }
          if (route_out != nullptr) route_out->push_back(now_s() - t0);
          t0 = now_s();
          {
            PB_SPAN("ovt_store", "shard_scores_into");
            store.shard_scores_into(s, group, scores, scratch, &cands);
          }
          if (score_out != nullptr) score_out->push_back(now_s() - t0);
          rows_done += users.size();
        }
      }
    const nvcim::cim::OpCounters d = counters_delta(c0, store.counters());
    return std::make_pair(static_cast<double>(d.subarray_activations) / rows_done,
                          static_cast<double>(d.adc_conversions) / rows_done);
  };
  const auto b16 = replay_counts(kMaxBatch, &route_s, &score_s);
  const auto b1 = replay_counts(1, nullptr, nullptr);
  report.metric("ovt_store.route_us_per_batch", "us", 1e6 * median(route_s));
  report.metric("ovt_store.score_us_per_batch", "us", 1e6 * median(score_s));
  report.metric("cim.activations_per_query", "count", b16.first);
  report.metric("cim.adc_per_query", "count", b16.second);
  report.metric("cim.activations_per_query_b1", "count", b1.first);

  // compress: decode of the OVTs the engine served.
  Matrix prompt;
  nvcim::compress::Autoencoder::Scratch ae_scratch;
  std::vector<double> decode_s;
  for (const auto& [index, ovt] : served) {
    const double t0 = now_s();
    PB_SPAN("compress", "decode_prompt_into");
    in.deployments[in.stream[index % in.stream.size()].user_id].decode_prompt_into(
        ovt, prompt, &ae_scratch);
    decode_s.push_back(now_s() - t0);
  }
  report.metric("compress.decode_us_per_ovt", "us", 1e6 * median(decode_s));

  // tensor: matmul_into at the encode GEMM shape (a batch's stacked rows
  // through the encoder's first layer) and the decode GEMM shape (one OVT's
  // code rows through the decoder's first layer).
  Rng rng(0x7E5011ull);
  struct Shape {
    std::size_t m, k, n;
  };
  double flops = 0.0, gemm_s = 0.0;
  for (const Shape sh : {Shape{kMaxBatch * kVirtualTokens, kDModel, kAeHidden},
                         Shape{kVirtualTokens, kCodeDim, kAeHidden}}) {
    const Matrix a = Matrix::randn(sh.m, sh.k, rng), b = Matrix::randn(sh.k, sh.n, rng);
    Matrix c(sh.m, sh.n);
    constexpr std::size_t kCalls = 256;  // per timed sample, so spans stay few
    const double per_sample = median_call_s(
        [&] {
          PB_SPAN("tensor", "matmul_into");
          for (std::size_t i = 0; i < kCalls; ++i) nvcim::matmul_into(a, b, c);
        },
        50, 0.05);
    flops += 2.0 * static_cast<double>(sh.m * sh.k * sh.n);
    gemm_s += per_sample / kCalls;
  }
  report.metric("tensor.matmul_gflops", "GFLOP/s", flops / gemm_s / 1e9);

  // cim: one standalone crossbar of the workload's geometry.
  const nvcim::cim::CrossbarConfig& xcfg = cfg.crossbar;
  nvcim::cim::Crossbar xbar(xcfg);
  xbar.init_blank(xcfg.rows, xcfg.cols);
  const long vmax = (1L << (xcfg.value_bits - 1)) - 1;
  Matrix values(xcfg.cols, xcfg.rows);
  for (std::size_t i = 0; i < values.size(); ++i)
    values.data()[i] =
        static_cast<float>(static_cast<long>(rng.uniform_index(2 * vmax + 1)) - vmax);
  std::vector<Rng> col_rngs;
  const double program_s = median_call_s(
      [&] {
        col_rngs.clear();
        for (std::size_t c = 0; c < xcfg.cols; ++c) col_rngs.push_back(rng.split(c));
        PB_SPAN("cim", "program_columns");
        xbar.program_columns(values, 0, cfg.variation, col_rngs.data());
      },
      5, 0.05);
  report.metric("cim.program_us_per_column", "us", 1e6 * program_s / xcfg.cols);
  Matrix x(kMaxBatch, xcfg.rows), y;
  for (std::size_t i = 0; i < x.size(); ++i)
    x.data()[i] = static_cast<float>(static_cast<long>(rng.uniform_index(255)) - 127);
  const double mvm_s = median_call_s(
      [&] {
        PB_SPAN("cim", "matvec_batch_into");
        xbar.matvec_batch_into(x, y);
      },
      200, 0.1);
  const double macs = static_cast<double>(kMaxBatch * xcfg.rows * xcfg.cols);
  const double cell_bytes = static_cast<double>(xcfg.n_slices() * xcfg.rows * xcfg.cols *
                                                (xcfg.differential ? 2 : 1) * sizeof(float));
  report.metric("cim.mvm_us_per_call", "us", 1e6 * mvm_s);
  report.metric("cim.mvm_gmac_per_s", "GMAC/s", macs / mvm_s / 1e9);
  report.metric("cim.mvm_mb_per_call", "MB", cell_bytes / 1e6);

  // ovt_store: staged admission of tenants into a standalone lifecycle store.
  serve::OvtStoreConfig scfg;
  scfg.n_shards = kShards;
  scfg.crossbar = cfg.crossbar;
  scfg.variation = cfg.variation;
  scfg.two_phase = cfg.two_phase;
  scfg.lifecycle.enabled = true;
  serve::ShardedOvtStore lstore(scfg);
  for (std::size_t t = 0; t < kShards; ++t) lstore.add_user(t, in.deployments[t].keys);
  Rng build_rng(0xB1D5ull);
  lstore.build(build_rng);
  std::vector<double> admit_s;
  for (std::size_t t = kShards; t < kTenants; ++t) {
    const double t0 = now_s();
    PB_SPAN("ovt_store", "admit");
    const auto staged = lstore.stage_admit(t, in.deployments[t].keys);
    for (std::size_t i = 0; i < staged.spans.size(); ++i) lstore.program_span(staged, i);
    lstore.commit_admit(t);
    admit_s.push_back(now_s() - t0);
  }
  report.metric("ovt_store.admit_ms_per_tenant", "ms", 1e3 * median(admit_s));
}

}  // namespace

void run_serve_zipf(const Args& args, Report& report) {
  Inputs in(args.seed);
  const serve::ServingConfig cfg = engine_config(args.seed);

  // Set-up, repeated: setup_s is the median; the last engine serves.
  std::vector<double> setup_s;
  std::unique_ptr<serve::ServingEngine> engine;
  for (std::size_t i = 0; i < kSetups; ++i) {
    engine.reset();
    const double t0 = now_s();
    engine = set_up(in, cfg, report);
    setup_s.push_back(now_s() - t0);
  }

  // Timed phase (traced runs alternate windows with and without spans).
  const serve::StatsSnapshot s0 = engine->stats();
  const nvcim::cim::OpCounters c0 = engine->store().counters();
  const double cpu0 = process_cpu_s();
  std::size_t cursor = kWarmupRequests;
  LoopResult timed;
  std::vector<double> plain_rps, spans_rps;
  if (!args.trace) {
    timed = closed_loop(*engine, in.stream, cursor, SIZE_MAX, args.seconds, kCheckEvery, false);
    cursor += timed.completed + timed.failed;
  } else {
    constexpr std::size_t kPairs = 6;
    const double window = std::min(0.5, args.seconds / (2 * kPairs));
    for (std::size_t p = 0; p < 2 * kPairs; ++p) {
      const bool spans = p % 2 == 1;
      LoopResult r =
          closed_loop(*engine, in.stream, cursor, SIZE_MAX, window, kCheckEvery, spans);
      cursor += r.completed + r.failed;
      (spans ? spans_rps : plain_rps).push_back(r.completed / r.seconds);
      timed.seconds += r.seconds;
      timed.client_cpu_s += r.client_cpu_s;
      timed.resubmit_gap_s += r.resubmit_gap_s;
      timed.in_engine_s += r.in_engine_s;
      timed.completed += r.completed;
      timed.failed += r.failed;
      timed.served.insert(timed.served.end(), r.served.begin(), r.served.end());
    }
  }
  const double cpu_s = process_cpu_s() - cpu0;
  const nvcim::cim::OpCounters dc = counters_delta(c0, engine->store().counters());
  const serve::StatsSnapshot st = engine->stats();
  report.attempted += timed.completed + timed.failed;
  report.failed += timed.failed;

  // recall_at1 over a fixed sample, served through the engine.
  const LoopResult sample =
      closed_loop(*engine, in.stream, 0, kRecallSample, 1e9, 1, false);
  report.attempted += kRecallSample;
  report.failed += sample.failed;
  engine->stop();

  report.check(timed.failed == 0 && sample.failed == 0, "serve-zipf requests failed");
  report.check(timed.completed > 0, "serve-zipf completed no request");
  report.check(replay_mismatches(in, *engine, timed.served) == 0,
               "served OVT differs from the single-threaded two-phase replay");
  std::size_t matches = 0;
  for (const auto& [index, ovt] : sample.served) {
    const serve::Request& r = in.stream[index % in.stream.size()];
    if (engine->retrieve_serial(r.user_id, r.query) == ovt) ++matches;
  }
  const double recall = static_cast<double>(matches) / static_cast<double>(kRecallSample);
  report.check(sample.served.size() == kRecallSample, "recall sample incomplete");
  report.check(recall > 0.5, "recall_at1 collapsed");

  const nvcim::cim::PerfEstimate dev =
      nvcim::cim::cim_cost_from_counters(nvcim::cim::fefet_perf_22nm(), cfg.crossbar, dc);
  const double served = static_cast<double>(timed.completed);

  if (!args.trace) {
    report.metric("setup_s", "s", median(setup_s));
    report.metric("peak_rss_mb", "MB", peak_rss_mb());
    report.metric("throughput_rps", "1/s", served / timed.seconds);
    report.metric("latency_p50_ms", "ms", median(timed.latency_ms));
    report.metric("accuracy", "ratio", recall);
    return;
  }

  // Per-layer: the engine's own stats over the timed phase.
  const double reqs = static_cast<double>(st.requests - s0.requests);
  report.metric("serve.latency_p99_ms", "ms", st.p99_latency_ms);
  report.metric("serve.queue_wait_p50_ms", "ms", st.queue_wait_p50_ms);
  report.metric("serve.batch_size_mean", "count",
                reqs / static_cast<double>(st.batches - s0.batches));
  report_engine_stages(s0, st, report);
  double shard_max = 0.0, shard_sum = 0.0;
  for (std::size_t s = 0; s < st.shard_retrieve_ms.size(); ++s) {
    const double ms = st.shard_retrieve_ms[s] - s0.shard_retrieve_ms[s];
    shard_max = std::max(shard_max, ms);
    shard_sum += ms;
  }
  report.metric("serve.shard_retrieve_imbalance", "ratio",
                shard_max / (shard_sum / static_cast<double>(st.shard_retrieve_ms.size())));
  report.metric("serve.pruned_fraction", "ratio",
                1.0 - static_cast<double>(st.candidates_examined - s0.candidates_examined) /
                          static_cast<double>(st.candidates_possible - s0.candidates_possible));
  report.metric("serve.cpu_us_per_req", "us", 1e6 * cpu_s / served);
  // Who limits throughput: the share of wall time the workers spent inside
  // a stage, the client thread's CPU share, and the share of each slot's
  // cycle spent in the client between a completion and the next submit.
  report.metric("serve.worker_busy_frac", "ratio",
                (st.encode_ms - s0.encode_ms + st.retrieve_ms - s0.retrieve_ms + st.decode_ms -
                 s0.decode_ms + st.classify_ms - s0.classify_ms) /
                    (1e3 * timed.seconds * static_cast<double>(kWorkers)));
  report.metric("harness.client_cpu_frac", "ratio", timed.client_cpu_s / timed.seconds);
  report.metric("harness.resubmit_gap_frac", "ratio",
                timed.resubmit_gap_s / (timed.resubmit_gap_s + timed.in_engine_s));
  report.metric("serve.device_latency_ns_per_req", "ns", dev.latency_ns / served);
  report.metric("serve.device_energy_pj_per_req", "pJ", dev.energy_pj / served);
  report.metric("obs.trace_overhead_frac", "ratio", 1.0 - median(spans_rps) / median(plain_rps));
  layer_replays(in, *engine, cfg, timed.served, report);
  finish_trace(args, report);
}

}  // namespace perfbench
