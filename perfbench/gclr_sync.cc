// gclr_sync: aggregation variant 4 served as paced rounds.
//
// A paced ReputationService on a PA graph (N = 1000, 20 opinions per node,
// xi = 1e-3, 2 gossip threads) with the benchmark as its only registered
// reader. At each epoch the benchmark submits 200 updates with distinct
// keys, acknowledges the epoch, and times until the next epoch is
// published: fold, Delta gating, sparse GCLR gossip and snapshot publish,
// with no network. The sparse merge does nearly all the work, and its peak
// state (about a million non-zeros) exceeds one core's share of cache.
// Epoch 1 (every opinion pushed for the first time, cold allocator) is
// part of the set-up.
//
// The traced run repeats each round on identical inputs from the
// benchmark thread while the service waits for the acknowledgement: a
// shadow ReputationSystem fed the same batches and seeds (RunRound), then
// AggregateGclrVector, WeightTable::Build for every observer,
// BuildGclrSparseInit and SparseVectorPushSum::Run. It also runs the
// event-driven engine, AsyncSparsePushSum::Run, on the same initial rows:
// the net layer's cost on this workload's input, where the sync engine's
// cost is gossip's.

#include <time.h>

#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "alloc_counter.h"
#include "bench_util.h"
#include "common/bench_output.h"
#include "net/async_gossip.h"
#include "reputation/aggregation.h"
#include "reputation/reputation_system.h"
#include "serve/service.h"
#include "serve/workload.h"
#include "stats.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr uint32_t kNodes = 1000;
constexpr uint32_t kBatch = 200;
constexpr uint32_t kGossipThreads = 2;
// Timed rounds whose statistics make up the deterministic metrics. The
// run continues past --seconds until it has timed at least this many, so
// those metrics never depend on how many rounds fit in the time.
constexpr uint32_t kFixedRounds = 8;
// Rounds of the traced run whose layer calls are repeated one by one; the
// shadow system repeats every round.
constexpr uint32_t kReplayRounds = 2;
// Observers of the eq. 18 check, evenly strided; the exact reference
// costs about 15 ms per observer at N = 1000.
constexpr uint32_t kRmsObservers = 64;

double Ms(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct Instance {
  std::unique_ptr<dgt::obs::MetricsRegistry> registry;
  std::unique_ptr<dgt::Graph> graph;
  // The initial trust matrix, kept to seed the mirror and the shadow.
  std::unique_ptr<dgt::TrustMatrix> initial_trust;
  dgt::ReputationServiceOptions options;
  std::unique_ptr<dgt::ReputationService> service;
  uint32_t reader = 0;
  double pa_ms = 0.0;
};

// Builds the inputs and the service and runs epoch 1.
dgt::Status SetUp(uint64_t seed, Instance* inst) {
  inst->registry = std::make_unique<dgt::obs::MetricsRegistry>();
  const int64_t pa_start = NowNs();
  inst->graph = std::make_unique<dgt::Graph>(dgt::bench_util::MustMakePaGraph(
      kNodes, kEdgesPerNode, DeriveSeed(seed, 1)));
  inst->pa_ms = static_cast<double>(NowNs() - pa_start) / 1e6;
  inst->initial_trust =
      std::make_unique<dgt::TrustMatrix>(dgt::bench_util::MakeSparseTrust(
          kNodes, kOpinionsPerNode, DeriveSeed(seed, 2)));

  dgt::ReputationServiceOptions& o = inst->options;
  o.system.aggregation.gossip.xi = kXi;
  o.system.aggregation.gossip.num_threads = kGossipThreads;
  o.system.base_seed = DeriveSeed(seed, 3);
  o.paced = true;
  o.update_queue_capacity = 2 * kBatch;
  o.metrics = inst->registry.get();
  inst->service = std::make_unique<dgt::ReputationService>(
      inst->graph.get(), *inst->initial_trust, o);
  inst->reader = inst->service->RegisterReader();
  DGT_RETURN_IF_ERROR(inst->service->Start());
  if (inst->service->AwaitEpochAfter(0) != 1) {
    return dgt::Status::Internal("epoch 1 not published: " +
                                 inst->service->driver_status().ToString());
  }
  // The shadow and the replayed calls run with the service's clamped
  // worker count.
  o.system.aggregation.gossip.num_threads = inst->service->worker_threads();
  return dgt::Status::OK();
}

bool SameScores(const std::vector<std::vector<double>>& a,
                const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size() ||
        std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(double)) !=
            0) {
      return false;
    }
  }
  return true;
}

bool SameStats(const dgt::GossipRunStats& a, const dgt::GossipRunStats& b) {
  return a.steps == b.steps && a.converged == b.converged &&
         a.gossip_messages == b.gossip_messages &&
         a.control_messages == b.control_messages;
}

// Per-round numbers of the traced replay.
struct Replay {
  // Every round: the shadow RunRound, and the served round span minus it.
  std::vector<double> round_ms, self_ms;
  // The first kReplayRounds rounds: each repeated layer call, and the
  // derived RunRound minus AggregateGclrVector (the Delta gating) and
  // AggregateGclrVector minus its timed parts (the post-processing).
  std::vector<double> gclr_ms, weights_ms, init_ms, gossip_ms;
  std::vector<double> delta_ms, post_ms;
  std::vector<double> steps, msgs, peak_nnz, allocs;
  std::string alloc_repeat;
  // AsyncSparsePushSum::Run on the same rows.
  std::vector<double> net_ms, events, events_per_s, firings, net_allocs;
};

// Repeats round `served.epoch` on the shadow system, fed the batch the
// service folded, and checks it against the served snapshot.
void ShadowRound(dgt::ReputationSystem* shadow,
                 const dgt::ReputationSnapshot& served, double served_ms,
                 SpanBuffer* buf, int32_t parent, Replay* out, Outcome* res) {
  const uint64_t epoch = served.epoch;
  const int64_t t0 = NowNs();
  const dgt::Status s = shadow->RunRound();
  const int64_t t1 = NowNs();
  buf->Add("reputation.RunRound", t0, t1, epoch, parent);
  if (!s.ok()) return res->Fail("shadow RunRound: " + s.ToString());
  out->round_ms.push_back(Ms(t0, t1));
  out->self_ms.push_back(served_ms - Ms(t0, t1));
  if (!SameStats(shadow->last_round_stats(), served.round_stats) ||
      !SameScores(shadow->reputations(), served.scores)) {
    res->Fail("epoch " + std::to_string(epoch) +
              ": the shadow ReputationSystem's round differs from the "
              "served snapshot");
  }
}

// Repeats the layer calls of round `served.epoch` one by one on identical
// inputs: AggregateGclrVector, then its parts.
void ReplayLayers(const Instance& inst, const dgt::TrustMatrix& shadow_trust,
                  const dgt::ReputationSnapshot& served, bool first,
                  SpanBuffer* buf, int32_t parent, Replay* out, Outcome* res) {
  const uint64_t epoch = served.epoch;
  int64_t t0 = 0;
  int64_t t1 = 0;
  // RunRound seeds round r (0-based) with base_seed + r.
  dgt::AggregationOptions agg = inst.options.system.aggregation;
  agg.gossip.seed = inst.options.system.base_seed + (epoch - 1);

  t0 = NowNs();
  dgt::Result<dgt::VectorAggregationResult> gclr =
      dgt::AggregateGclrVector(*inst.graph, shadow_trust, agg);
  t1 = NowNs();
  buf->Add("reputation.AggregateGclrVector", t0, t1, epoch, parent);
  if (!gclr.ok() || !SameStats(gclr.value().stats, served.round_stats)) {
    return res->Fail("epoch " + std::to_string(epoch) +
                     ": repeated AggregateGclrVector differs");
  }
  out->gclr_ms.push_back(Ms(t0, t1));

  t0 = NowNs();
  for (dgt::NodeId i = 0; i < kNodes; ++i) {
    if (!dgt::WeightTable::Build(shadow_trust, i, agg.weights).ok()) {
      return res->Fail("WeightTable::Build failed");
    }
  }
  t1 = NowNs();
  buf->Add("trust.WeightTable::Build", t0, t1, epoch, parent);
  out->weights_ms.push_back(Ms(t0, t1));

  t0 = NowNs();
  std::vector<dgt::SparseVectorRow> init =
      dgt::BuildGclrSparseInit(shadow_trust);
  t1 = NowNs();
  buf->Add("reputation.BuildGclrSparseInit", t0, t1, epoch, parent);
  out->init_ms.push_back(Ms(t0, t1));

  // The first round runs the engine twice on the same rows, to show
  // whether the allocation count repeats exactly with 2 threads.
  std::vector<dgt::SparseVectorRow> init_copy;
  if (first) init_copy = init;
  std::vector<dgt::SparseVectorRow> net_init = init;
  dgt::SparseVectorPushSum engine(inst.graph.get(), agg.gossip);
  dgt::Result<dgt::SparseVectorGossipResult> run =
      dgt::Status::Internal("not run");
  const uint64_t allocs = CountAllocations([&] {
    t0 = NowNs();
    run = engine.Run(std::move(init), /*use_count=*/true);
    t1 = NowNs();
  });
  buf->Add("gossip.SparseVectorPushSum::Run", t0, t1, epoch, parent);
  if (!run.ok()) return res->Fail("SparseVectorPushSum::Run failed");
  const dgt::SparseVectorGossipResult& r = run.value();
  if (r.steps != served.round_stats.steps ||
      r.gossip_messages != served.round_stats.gossip_messages ||
      r.control_messages + inst.graph->DegreeSum() !=
          served.round_stats.control_messages) {
    return res->Fail("epoch " + std::to_string(epoch) +
                     ": repeated SparseVectorPushSum::Run differs from the "
                     "served round");
  }
  out->gossip_ms.push_back(Ms(t0, t1));
  out->delta_ms.push_back(out->round_ms.back() - out->gclr_ms.back());
  out->post_ms.push_back(out->gclr_ms.back() - out->weights_ms.back() -
                         out->init_ms.back() - out->gossip_ms.back());
  out->steps.push_back(r.steps);
  out->msgs.push_back(static_cast<double>(r.gossip_messages + r.control_messages));
  out->peak_nnz.push_back(static_cast<double>(r.peak_state_nonzeros));
  out->allocs.push_back(static_cast<double>(allocs));

  dgt::AsyncGossipOptions async;
  async.xi = agg.gossip.xi;
  async.seed = agg.gossip.seed;
  async.num_threads = agg.gossip.num_threads;
  dgt::AsyncSparsePushSum net(inst.graph.get(), async);
  dgt::Result<dgt::AsyncSparseGossipResult> net_run =
      dgt::Status::Internal("not run");
  const uint64_t net_allocs = CountAllocations([&] {
    t0 = NowNs();
    net_run = net.Run(std::move(net_init), /*use_count=*/true);
    t1 = NowNs();
  });
  buf->Add("net.AsyncSparsePushSum::Run", t0, t1, epoch, parent);
  if (!net_run.ok() || !net_run.value().stats.converged) {
    return res->Fail("AsyncSparsePushSum::Run failed or did not converge");
  }
  const dgt::AsyncEngineStats& ns = net_run.value().stats;
  out->net_ms.push_back(Ms(t0, t1));
  out->events.push_back(static_cast<double>(ns.events));
  out->events_per_s.push_back(static_cast<double>(ns.events) /
                              (static_cast<double>(t1 - t0) / 1e9));
  out->firings.push_back(ns.max_node_firings);
  out->net_allocs.push_back(static_cast<double>(net_allocs));

  if (first) {
    dgt::SparseVectorPushSum again(inst.graph.get(), agg.gossip);
    bool ok = false;
    const uint64_t allocs_again = CountAllocations(
        [&] { ok = again.Run(std::move(init_copy), true).ok(); });
    if (!ok) return res->Fail("repeated SparseVectorPushSum::Run failed");
    out->alloc_repeat =
        std::string("gossip allocations ") +
        (allocs == allocs_again ? "repeat exactly" : "do not repeat") +
        " with " + std::to_string(agg.gossip.num_threads) + " threads (" +
        std::to_string(allocs) + " then " + std::to_string(allocs_again) + ")";
  }
}

}  // namespace

Outcome RunGclrSync(const RunConfig& config, Trace* trace) {
  Outcome res;
  SpanBuffer* buf = trace != nullptr ? trace->NewBuffer() : nullptr;

  // Set up kSetups times and keep the last instance; setup_s is the
  // median. The first set-up is timed from process start.
  Instance inst;
  std::vector<double> setup_s, pa_ms;
  for (int k = 0; k < kSetups; ++k) {
    // The service goes before the registry it reports into.
    inst.service.reset();
    inst = Instance();
    const int64_t start = k == 0 ? config.process_start_ns : NowNs();
    const dgt::Status s = SetUp(config.seed, &inst);
    const int64_t end = NowNs();
    if (!s.ok()) {
      res.Fail("set-up: " + s.ToString());
      return res;
    }
    setup_s.push_back(static_cast<double>(end - start) / 1e9);
    pa_ms.push_back(inst.pa_ms);
    if (buf != nullptr) buf->Add("setup", start, end, k);
  }
  dgt::ReputationService& service = *inst.service;

  // The benchmark's copy of the trust state the service folds, for the
  // accuracy check; the traced run also feeds it to the shadow system.
  dgt::TrustMatrix mirror = *inst.initial_trust;
  std::unique_ptr<dgt::ReputationSystem> shadow;
  if (buf != nullptr) {
    shadow = std::make_unique<dgt::ReputationSystem>(inst.graph.get(), &mirror,
                                                     inst.options.system);
    // Catch the shadow up with epoch 1, which ran during set-up.
    const auto first = service.Snapshot();
    if (!shadow->RunRound().ok() || first == nullptr ||
        !SameScores(shadow->reputations(), first->scores)) {
      res.Fail("the shadow ReputationSystem's epoch 1 differs from the "
               "served snapshot");
      return res;
    }
  }

  const uint64_t update_seed = DeriveSeed(config.seed, 4);
  const int64_t budget_ns = static_cast<int64_t>(config.seconds * 1e9);
  int64_t timed_ns = 0;
  uint64_t epoch = 1;
  std::vector<double> round_ms, submit_us, parallelism;
  std::vector<double> steps, msgs_per_node_step, feedback_pushes, folded;
  std::shared_ptr<const dgt::ReputationSnapshot> fixed_snapshot;
  std::unique_ptr<dgt::TrustMatrix> fixed_trust;
  Replay replay;
  uint64_t last_folded = 0;

  while (timed_ns < budget_ns || round_ms.size() < kFixedRounds) {
    const std::vector<dgt::TrustUpdate> batch =
        dgt::MakeDistinctTrustUpdates(kNodes, update_seed + epoch, kBatch);
    const int64_t submit_start = NowNs();
    for (const dgt::TrustUpdate& u : batch) {
      const dgt::Status s =
          service.SubmitTrustUpdate(u.observer, u.target, u.value);
      if (!s.ok()) {
        res.Fail("SubmitTrustUpdate: " + s.ToString());
        service.Stop();
        return res;
      }
    }
    const int64_t submit_end = NowNs();
    for (const dgt::TrustUpdate& u : batch) {
      (void)mirror.Set(u.observer, u.target, u.value);
    }

    const double cpu0 = ProcessCpuSeconds();
    const int64_t t0 = NowNs();
    service.AckEpoch(inst.reader, epoch);
    const uint64_t next = service.AwaitEpochAfter(epoch);
    const int64_t t1 = NowNs();
    const double cpu1 = ProcessCpuSeconds();

    ++res.attempted;
    timed_ns += (submit_end - submit_start) + (t1 - t0);
    const auto snap = service.Snapshot();
    if (next != epoch + 1 || snap == nullptr || snap->epoch != next) {
      res.Fail("epoch " + std::to_string(epoch + 1) + " not published: " +
               service.driver_status().ToString());
      service.Stop();
      return res;
    }
    epoch = next;
    round_ms.push_back(Ms(t0, t1));
    submit_us.push_back(static_cast<double>(submit_end - submit_start) / 1e3);
    parallelism.push_back((cpu1 - cpu0) / (static_cast<double>(t1 - t0) / 1e9));
    if (!snap->round_stats.converged) ++res.failed;
    if (buf != nullptr) {
      buf->Add("serve.SubmitTrustUpdate", submit_start, submit_end, epoch);
      buf->Add("serve.round", t0, t1, epoch);
    }

    if (round_ms.size() <= kFixedRounds) {
      steps.push_back(snap->round_stats.steps);
      msgs_per_node_step.push_back(
          snap->round_stats.mean_messages_per_active_node_step);
      feedback_pushes.push_back(static_cast<double>(snap->feedback_pushes));
      folded.push_back(
          static_cast<double>(snap->trust_updates_folded - last_folded));
      if (round_ms.size() == kFixedRounds) {
        fixed_snapshot = snap;
        fixed_trust = std::make_unique<dgt::TrustMatrix>(mirror);
      }
    }
    last_folded = snap->trust_updates_folded;

    res.ops.emplace_back(round_ms.back(), snap->round_stats.steps);

    if (shadow != nullptr) {
      const ScopedSpan span(buf, "replay", epoch);
      ShadowRound(shadow.get(), *snap, round_ms.back(), buf, span.index(),
                  &replay, &res);
      if (res.ok() && round_ms.size() <= kReplayRounds) {
        ReplayLayers(inst, mirror, *snap, round_ms.size() == 1, buf,
                     span.index(), &replay, &res);
      }
      if (!res.ok()) {
        service.Stop();
        return res;
      }
    }
  }
  service.Stop();

  // Output checks.
  if (!service.driver_status().ok()) {
    res.Fail("round status: " + service.driver_status().ToString());
  }
  if (service.updates_rejected() != 0) {
    res.Fail(std::to_string(service.updates_rejected()) + " updates refused");
  }
  if (service.updates_folded() != static_cast<uint64_t>(kBatch) * round_ms.size()) {
    res.Fail("updates folded " + std::to_string(service.updates_folded()) +
             " != submitted " + std::to_string(kBatch * round_ms.size()));
  }
  if (res.failed != 0) {
    res.Fail(std::to_string(res.failed) + " round(s) did not converge");
  }
  dgt::Result<double> rms = dgt::Status::Internal("no reference");
  {
    const dgt::Result<ExactReference> ref =
        BuildExactReference(*inst.graph, *fixed_trust,
                            inst.options.system.aggregation.weights,
                            kRmsObservers);
    if (ref.ok()) rms = RmsError(ref.value(), fixed_snapshot->scores);
  }
  if (!rms.ok()) {
    res.Fail("rms_error: " + rms.status().ToString());
  } else if (!(rms.value() < kRmsTolerance)) {
    res.Fail("rms_error " + std::to_string(rms.value()) + " exceeds " +
             std::to_string(kRmsTolerance));
  }
  if (!res.ok()) return res;

  const Samples<double> rounds(round_ms);
  const double timed_s = static_cast<double>(timed_ns) / 1e9;
  const uint64_t n_rounds = rounds.count();
  res.end_to_end = {
      M("setup_s", Median(setup_s), "s", setup_s.size()),
      M("latency_p50_ms", rounds.Median(), "ms", n_rounds),
      M("throughput_per_s", static_cast<double>(n_rounds) / timed_s, "1/s",
        n_rounds),
      M("peak_rss_mb", dgt::PeakRssMb(), "MB", 0),
      M("steps_to_converge", Mean(steps), "steps", steps.size()),
      M("msgs_per_node_step", Mean(msgs_per_node_step), "ratio",
        msgs_per_node_step.size()),
  };
  res.info = {
      M("round_p50_ms", rounds.Median(), "ms", n_rounds),
      M("rms_error", rms.value(), "ratio", kRmsObservers),
      M("error_frac", 0.0, "ratio", n_rounds),
  };

  if (trace != nullptr) {
    const uint64_t n = replay.gclr_ms.size();
    res.per_layer = {
        M("graph.pa_ms", Median(pa_ms), "ms", pa_ms.size()),
        M("trust.weights_ms", Median(replay.weights_ms), "ms", n),
        M("gossip.run_ms", Median(replay.gossip_ms), "ms", n),
        M("gossip.steps", Mean(replay.steps), "steps", n),
        M("gossip.msgs", Mean(replay.msgs), "count", n),
        M("gossip.peak_nnz", Mean(replay.peak_nnz), "count", n),
        M("gossip.allocs", Mean(replay.allocs), "count", n),
        M("common.pool_parallelism", Median(parallelism), "ratio", n_rounds),
        M("reputation.round_ms", Median(replay.round_ms), "ms",
          replay.round_ms.size()),
        M("reputation.gclr_ms", Median(replay.gclr_ms), "ms", n),
        M("reputation.init_ms", Median(replay.init_ms), "ms", n),
        M("reputation.delta_ms", Median(replay.delta_ms), "ms", n, true),
        M("reputation.post_ms", Median(replay.post_ms), "ms", n, true),
        M("reputation.feedback_pushes", Mean(feedback_pushes), "count",
          feedback_pushes.size()),
        M("net.run_ms", Median(replay.net_ms), "ms", n),
        M("net.events", Mean(replay.events), "count", n),
        M("net.events_per_s", Median(replay.events_per_s), "1/s", n),
        M("net.max_firings", Mean(replay.firings), "steps", n),
        M("net.allocs", Mean(replay.net_allocs), "count", n),
        M("serve.submit_us", Median(submit_us), "us", submit_us.size()),
        M("serve.self_ms", Median(replay.self_ms), "ms",
          replay.self_ms.size(), true),
        M("serve.updates_folded", Mean(folded), "count", folded.size()),
        M("trace.latency_p50_ms", rounds.Median(), "ms", n_rounds),
    };
    res.notes.push_back(replay.alloc_repeat);
  }
  return res;
}

}  // namespace perfbench
