// tenant_churn: steady-state traffic-engineering churn through the
// multi-tenant intent service.
//
// 32 tenants share 16 switch1 switches; the service runs at most 4
// transactions at once, queues at most 4 intents per tenant, and orders
// every commit with DionysusScheduler. Each wave, every tenant submits one
// intent: a 6-hop ADD chain over seed-chosen switches (the new path) plus
// DELETEs of the rules its previous intent installed (the old path), issued
// after the new path is up. One tenant in eight writes matches that
// overlap its neighbour's rules, so the conflict graph has real work.
// Closed loop: a wave is submitted once the previous one has drained.
//
// One operation = one round of kWaves waves on a fresh network and service
// (set-up, timed as a set-up sample, includes generating the round's
// intents). Every round replays the same seed-derived intents, so its
// virtual-time results must repeat exactly.
#include <algorithm>
#include <map>
#include <memory>
#include <optional>

#include "harness.h"
#include "net/network.h"
#include "scheduler/schedulers.h"
#include "service/service.h"
#include "switchsim/profiles.h"
#include "tango/tango.h"

namespace perfbench {
namespace {

using namespace tango;

constexpr std::uint32_t kTenants = 32;
constexpr std::size_t kSwitches = 16;
constexpr std::size_t kHops = 6;
constexpr std::size_t kWaves = 32;  // 1024 intents per round
constexpr std::uint32_t kOverlapEvery = 8;

/// Rule `hop` of tenant `t`'s path in wave `w`. Ordinary tenants own the
/// destination prefix 10.(t+1)/16; an overlapping tenant matches on its own
/// source address but on its neighbour's whole destination prefix, so its
/// rules overlap the neighbour's on every shared switch. Neither kind of
/// rule covers the other, so neither tenant's DELETEs can remove the
/// other's rules.
of::Match rule_match(std::uint32_t t, std::size_t w, std::size_t hop) {
  of::Match m;
  m.with_dl_type(0x0800);
  const auto wave = static_cast<std::uint32_t>(w % 256);
  const auto h = static_cast<std::uint32_t>(hop + 1);
  if (t % kOverlapEvery == kOverlapEvery - 1) {
    const std::uint32_t neighbour = (t + 1) % kTenants;
    m.set_nw_src_prefix(10u << 24 | 200u << 16 | t << 8 | (wave * 8 + h) % 256, 32);
    m.set_nw_dst_prefix(10u << 24 | (neighbour + 1) << 16, 16);
  } else {
    m.set_nw_dst_prefix(10u << 24 | (t + 1) << 16 | wave << 8 | h, 32);
  }
  return m;
}

struct Round {
  std::vector<std::vector<service::Intent>> waves;
  std::size_t requests = 0;
  /// Most ADDs one wave sends to any single switch.
  std::size_t max_wave_adds_per_switch = 0;
};

Round make_round(std::uint64_t seed, const std::vector<SwitchId>& switches) {
  Rng rng(seed);
  Round r;
  std::vector<std::vector<SwitchId>> prev_path(kTenants);
  for (std::size_t w = 0; w < kWaves; ++w) {
    std::vector<service::Intent> wave;
    std::map<SwitchId, std::size_t> adds;
    for (std::uint32_t t = 0; t < kTenants; ++t) {
      auto order = rng.permutation(switches.size());
      std::vector<SwitchId> path;
      for (std::size_t h = 0; h < kHops; ++h) path.push_back(switches[order[h]]);
      service::Intent intent;
      intent.tenant = t;
      std::size_t last = 0;
      for (std::size_t h = 0; h < kHops; ++h) {
        sched::SwitchRequest req;
        req.location = path[h];
        req.type = sched::RequestType::kAdd;
        req.priority = static_cast<std::uint16_t>(100 + h);
        req.match = rule_match(t, w, h);
        req.actions = of::output_to(static_cast<std::uint16_t>(2 + h % 4));
        const std::size_t id = intent.dag.add(std::move(req));
        if (h > 0) intent.dag.add_dependency(last, id);
        last = id;
        ++adds[path[h]];
      }
      for (std::size_t h = 0; h < prev_path[t].size(); ++h) {
        sched::SwitchRequest del;
        del.location = prev_path[t][h];
        del.type = sched::RequestType::kDel;
        del.priority = static_cast<std::uint16_t>(100 + h);
        del.match = rule_match(t, w - 1, h);
        const std::size_t id = intent.dag.add(std::move(del));
        intent.dag.add_dependency(last, id);  // make before break
      }
      r.requests += intent.dag.size();
      prev_path[t] = std::move(path);
      wave.push_back(std::move(intent));
    }
    for (const auto& [sw, n] : adds) {
      r.max_wave_adds_per_switch = std::max(r.max_wave_adds_per_switch, n);
    }
    r.waves.push_back(std::move(wave));
  }
  return r;
}

/// Virtual-time results of one round; must repeat exactly within a run.
struct VirtualResult {
  double p50_ms = 0, p99_ms = 0, end_ms = 0;
  std::size_t samples = 0;
  bool operator==(const VirtualResult&) const = default;
};

}  // namespace

Outcome run_churn(const Options& opts) {
  Outcome out;

  TraceState tr;

  std::vector<double> setup_s, host_untraced, host_traced, wall_untraced;
  std::optional<VirtualResult> first;
  double round_requests = 0;
  // Per-layer tallies over the traced rounds.
  double order_ms = 0, order_calls = 0, order_ready = 0;
  double rounds = 0, issued = 0, queue_total_ms = 0, queue_max_ms = 0;
  double retries = 0, timeouts = 0, readbacks = 0, makespan_ms = 0, commits = 0;
  double avg_concurrency = 0, conflict_blocks = 0, fairness = 0;
  double max_rules = 0, snapshot_bound = 0;

  OpLoop loop(opts, tr.spans);
  while (loop.next()) {
    const bool traced = loop.traced();
    SpanRecorder* rec = loop.spans();

    // --- set-up: network, controller, service, the round's intents --------
    HostClock clock(rec);
    auto net = std::make_unique<net::Network>();
    std::vector<SwitchId> switches;
    Round round;
    {
      ScopedSpan s(rec, "workload.topology_build");
      for (std::size_t i = 0; i < kSwitches; ++i) {
        switches.push_back(net->add_switch(switchsim::profiles::switch1(),
                                           opts.seed * 1000 + i));
      }
    }
    {
      ScopedSpan s(rec, "workload.path_gen");
      round = make_round(opts.seed, switches);
    }
    core::TangoController ctl(*net);
    service::ServiceOptions sopts;
    sopts.max_concurrent = 4;
    sopts.per_tenant_queue_cap = 4;
    sopts.txn_id_base = 0x1000;  // pinned: cookies repeat across rounds
    if (traced) {
      sopts.on_commit = [&](service::TenantId, std::uint64_t,
                            const sched::TransactionReport& tr) {
        rounds += static_cast<double>(tr.exec.scheduling_rounds);
        issued += static_cast<double>(tr.exec.issued);
        queue_total_ms += tr.exec.total_queueing_delay.ms();
        queue_max_ms = std::max(queue_max_ms, tr.exec.max_queueing_delay.ms());
        retries += static_cast<double>(tr.exec.retries);
        timeouts += static_cast<double>(tr.exec.timeouts);
        readbacks += static_cast<double>(tr.readback_requests);
        makespan_ms += tr.exec.makespan.ms();
        commits += 1;
      };
    }
    service::IntentService svc(*net, ctl, sopts);
    round_requests = static_cast<double>(round.requests);
    if (traced) net->set_telemetry(&tr.tel);

    sched::DionysusScheduler dionysus;
    TimedScheduler scheduler(dionysus, clock, rec);

    // --- the measured round -------------------------------------------------
    std::size_t refused = 0;
    double round_max_rules = 0;
    const SimTime v0 = net->now();
    const HostClock::Reading setup = clock.take();
    {
      ScopedSpan round_span(rec, "round");
      for (auto& wave : round.waves) {
        for (auto& intent : wave) {
          ScopedSpan s(rec, "service.submit");
          refused += svc.submit(std::move(intent)).accepted() ? 0 : 1;
        }
        {
          ScopedSpan s(rec, "service.run");
          svc.run(scheduler);
        }
        if (traced) {
          for (const SwitchId sw : switches) {
            round_max_rules =
                std::max(round_max_rules, static_cast<double>(net->sw(sw).total_rules()));
          }
        }
        clock.maybe_lap();
      }
    }
    const HostClock::Reading measured = clock.take();
    setup_s.push_back(setup.host_s);
    const service::ServiceReport& rep = svc.report();

    VirtualResult vr;
    std::vector<double> latencies;
    for (const auto& [tenant, ts] : rep.tenants) {
      latencies.insert(latencies.end(), ts.latency_ms.begin(), ts.latency_ms.end());
    }
    vr.samples = latencies.size();
    vr.p50_ms = percentile(latencies, 50);
    vr.p99_ms = percentile(latencies, 99);
    vr.end_ms = (net->now() - v0).ms();

    if (traced) {
      order_ms += scheduler.wall_ms();
      order_calls += static_cast<double>(scheduler.calls());
      order_ready += static_cast<double>(scheduler.ready_items());
      tr.add_channels(*net);
      avg_concurrency += rep.avg_concurrency;
      conflict_blocks += static_cast<double>(rep.conflict_blocks);
      fairness += rep.fairness_index;
      max_rules = std::max(max_rules, round_max_rules);
      snapshot_bound = std::max(
          snapshot_bound,
          round_max_rules + static_cast<double>(round.max_wave_adds_per_switch));
      net->set_telemetry(nullptr);
      host_traced.push_back(measured.host_s);
    } else {
      host_untraced.push_back(measured.host_s);
      wall_untraced.push_back(measured.wall_s);
    }

    const std::size_t intents = kTenants * kWaves;
    const std::string tag = "op " + std::to_string(loop.op()) + ": ";
    out.check(refused == 0 && rep.rejected == 0,
              tag + std::to_string(refused) + " intents refused at admission");
    out.check(rep.completed == intents, tag + std::to_string(rep.completed) + " of " +
                                            std::to_string(intents) + " intents completed");
    out.check(rep.failed_commits == 0,
              tag + std::to_string(rep.failed_commits) + " commits failed");
    out.check(rep.fairness_index >= 0.9,
              tag + "fairness index " + std::to_string(rep.fairness_index) + " < 0.9");
    out.check(rep.conflict_blocks > 0, tag + "no conflicting intents were serialized");
    if (!first.has_value()) {
      first = vr;
    } else {
      out.check(vr == *first, tag + (traced ? "traced" : "untraced") +
                                  " virtual-time results differ from the run's first round");
    }
    out.attempted += intents;
    out.failed += refused + rep.failed_commits +
                  (intents > rep.completed ? intents - rep.completed : 0);
  }

  out.note("intents per round: " + std::to_string(kTenants * kWaves) +
           ", requests per round: " + std::to_string(static_cast<long long>(round_requests)) +
           ", " + loop.summary());
  out.note("intent latency samples per round: " + std::to_string(first->samples) +
           ", round virtual time " + std::to_string(first->end_ms) + " ms");

  if (!opts.trace) {
    const double host = median(host_untraced);
    out.note("op_host_s samples:" + join(host_untraced));
    out.note("raw wall seconds:" + join(wall_untraced));
    out.note("requests_per_wall_s " + std::to_string(round_requests / host) +
             " 1/s, intent_virtual_p50_ms " + std::to_string(first->p50_ms) +
             " ms, intent_virtual_p99_ms " + std::to_string(first->p99_ms) + " ms");
    out.add("setup_s", median(setup_s), "s");
    out.add("op_host_s", host, "s");
    out.add("virtual_p50_ms", first->p50_ms, "ms");
    out.add("virtual_p99_ms", first->p99_ms, "ms");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  const double n = loop.traced_ops();
  out.add("workload.topology_build_ms", tr.spans.total_ms("workload.topology_build") / n, "ms");
  out.add("workload.path_gen_ms", tr.spans.total_ms("workload.path_gen") / n, "ms");
  out.add("workload.requests", round_requests, "count");
  out.add("sched.order_ms", order_ms / n, "ms");
  out.add("sched.order_calls", order_calls / n, "count");
  out.add("sched.order_ready_items", order_ready / n, "count");
  out.add("exec.scheduling_rounds", rounds / n, "count");
  out.add("exec.issued", issued / n, "count");
  out.add("exec.queueing_delay_mean_ms", issued > 0 ? queue_total_ms / issued : 0, "ms");
  out.add("exec.max_queueing_delay_ms", queue_max_ms, "ms");
  out.add("exec.retries", retries / n, "count");
  out.add("exec.timeouts", timeouts / n, "count");
  out.add("exec.makespan_virtual_ms", commits > 0 ? makespan_ms / commits : 0, "ms");
  out.add("txn.readback_requests", readbacks / n, "count");
  out.add("txn.snapshot_max_rules", snapshot_bound, "count");
  out.add("txn.journaled_entries", tr.counter("txn.journaled_entries", n), "count");
  out.add("switch.max_rules", max_rules, "count");
  out.add("service.submit_ms", tr.spans.total_ms("service.submit") / n, "ms");
  out.add("service.run_self_ms", tr.spans.self_ms("service.run") / n, "ms");
  out.add("service.avg_concurrency", avg_concurrency / n, "count");
  out.add("service.conflict_blocks", conflict_blocks / n, "count");
  out.add("service.fairness_index", fairness / n, "fraction");
  out.add("trace.overhead_frac", median(host_traced) / median(host_untraced) - 1,
          "fraction");

  tr.finish(out, opts, n);
  return out;
}

}  // namespace perfbench
