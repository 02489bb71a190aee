// fabric_dionysus / fabric_tango: one network-wide consistent update on the
// 1024-switch fat-tree (k=16, pods=60, switch1 hardware profile), committed
// through UpdateTransaction and verified flow by flow.
//
// One operation = a freshly built fabric (set-up, timed as a set-up sample)
// followed by one update (timed): transaction construction (pre-update
// snapshot + journal), commit under the workload's scheduler, verify.
// Every operation of a run replays the same seed-derived inputs, so its
// virtual-time results must repeat exactly.
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "harness.h"
#include "net/network.h"
#include "scheduler/schedulers.h"
#include "scheduler/transaction.h"
#include "switchsim/profiles.h"
#include "tango/tango.h"
#include "workload/topology_gen.h"

namespace perfbench {
namespace {

using namespace tango;

constexpr unsigned kRadix = 16;
constexpr unsigned kPods = 60;  // 16·60 pod switches + 64 cores = 1024
constexpr std::size_t kFlows = 2000;
/// Output port of every installed rule. port_for_link() folds link indices
/// onto ports 1..7, so the generator's placeholder port 2 leads across an
/// arbitrary fabric link; a port no link uses keeps each hop's walk on the
/// switch whose rule it checks.
constexpr std::uint16_t kHostPort = 100;

/// One fabric built and loaded with its update, ready to commit.
struct FabricWorld {
  std::unique_ptr<net::Network> net;
  sched::RequestDag dag;
  /// One check per DAG request: a one-hop walk at the request's switch.
  std::vector<sched::FlowCheck> checks;
  std::map<SwitchId, core::OpCostEstimate> hints;
};

/// Virtual-time results of one update; must repeat exactly within a run.
struct VirtualResult {
  double update_ms = 0;
  double snapshot_ms = 0;
  double makespan_ms = 0;
  double flow_p50_ms = 0;
  double flow_p99_ms = 0;
  std::size_t rounds = 0;
  double queueing_total_ms = 0;
  bool operator==(const VirtualResult&) const = default;
};

/// Journal observer recording, per rerouted flow, the virtual time its
/// repoint (the flow's last request, a MOD at the source edge switch) was
/// acknowledged: the moment the controller knows the flow is on its new path.
class RepointTimes : public sched::JournalSink {
 public:
  explicit RepointTimes(net::Network& net) : net_(net) {}
  void on_txn_begin(const sched::UpdateTransaction&) override {}
  void on_entry_acked(const sched::UpdateTransaction& txn, std::size_t dag_id,
                      bool accepted) override {
    if (accepted && txn.dag().request(dag_id).type == sched::RequestType::kMod) {
      acked_.push_back(net_.now());
    }
  }
  void on_txn_finish(const sched::UpdateTransaction&,
                     const sched::TransactionReport&) override {}

  /// Ack times relative to `begin`, in ms.
  [[nodiscard]] std::vector<double> since(SimTime begin) const {
    std::vector<double> out;
    out.reserve(acked_.size());
    for (const SimTime t : acked_) out.push_back((t - begin).ms());
    return out;
  }
  [[nodiscard]] std::size_t count() const { return acked_.size(); }

 private:
  net::Network& net_;
  std::vector<SimTime> acked_;
};

core::OpCostEstimate learn_switch1_costs(std::uint64_t seed) {
  net::Network scratch;
  const SwitchId id = scratch.add_switch(switchsim::profiles::switch1(), seed);
  core::TangoController ctl(scratch);
  core::LearnOptions options;
  options.size.max_rules = 4096;  // the TCAM plus a slice of its software tier
  return ctl.learn(id, options).costs;
}

FabricWorld build_world(std::uint64_t seed, bool tango_scheduler,
                        SpanRecorder* spans) {
  FabricWorld w;
  workload::FatTreeNodes nodes;
  {
    ScopedSpan s(spans, "workload.topology_build");
    w.net = std::make_unique<net::Network>();
    workload::FatTreeSpec spec;
    spec.k = kRadix;
    spec.pods = kPods;
    nodes = workload::build_fat_tree(*w.net, spec, switchsim::profiles::switch1());
  }
  {
    ScopedSpan s(spans, "workload.path_gen");
    Rng rng(seed);
    // Fail one core uplink of a seed-chosen aggregation switch.
    auto& topo = w.net->topology();
    const net::NodeId agg =
        nodes.agg[rng.index(nodes.agg.size())][rng.index(kRadix / 2)];
    std::vector<std::size_t> uplinks;
    for (const net::NodeId core : nodes.core) {
      if (const auto li = topo.link_between(agg, core)) uplinks.push_back(*li);
    }
    topo.set_link_state(uplinks[rng.index(uplinks.size())], false);

    workload::FabricUpdateSpec us;
    us.n_flows = kFlows;
    w.dag = workload::fabric_update_scenario(topo, nodes, us, rng);
    w.checks.reserve(w.dag.size());
    for (std::size_t id = 0; id < w.dag.size(); ++id) {
      auto& req = w.dag.request(id);
      req.actions = of::output_to(kHostPort);
      sched::FlowCheck check;
      check.ingress = req.location;
      check.packet = core::ProbeEngine::probe_packet(
          req.match.nw_src - 0x0a000000u);
      w.checks.push_back(std::move(check));
    }
  }
  if (tango_scheduler) {
    ScopedSpan s(spans, "workload.hints_learn");
    const auto costs = learn_switch1_costs(seed);
    for (std::size_t i = 0; i < w.net->switch_count(); ++i) {
      w.hints[static_cast<SwitchId>(i + 1)] = costs;
    }
  }
  return w;
}

/// Per-layer tallies summed over the traced operations.
struct LayerTotals {
  double requests = 0;
  double order_ms = 0, order_calls = 0, order_ready = 0;
  double rounds = 0, issued = 0, queue_total_ms = 0, queue_max_ms = 0;
  double retries = 0, timeouts = 0;
  double snapshot_virtual_ms = 0, update_virtual_ms = 0, makespan_virtual_ms = 0;
  double readback_requests = 0, snapshot_max_rules = 0;
  double verify_flows = 0, verify_violations = 0;
  double max_rules = 0;
};

}  // namespace

Outcome run_fabric(const Options& opts, bool tango_scheduler) {
  Outcome out;

  TraceState tr;
  LayerTotals lt;

  std::vector<double> setup_s, host_untraced, host_traced, wall_untraced;
  std::optional<VirtualResult> first_virtual;
  double dag_size = 0;

  OpLoop loop(opts, tr.spans);
  while (loop.next()) {
    const bool traced = loop.traced();
    SpanRecorder* rec = loop.spans();

    HostClock clock(rec);
    FabricWorld w = build_world(opts.seed, tango_scheduler, rec);
    const std::size_t n_requests = w.dag.size();
    std::size_t flows = 0;
    for (std::size_t id = 0; id < n_requests; ++id) {
      flows += w.dag.request(id).type == sched::RequestType::kMod ? 1 : 0;
    }
    dag_size = static_cast<double>(n_requests);
    if (traced) w.net->set_telemetry(&tr.tel);

    sched::DionysusScheduler dionysus;
    sched::BasicTangoScheduler tango(w.hints);
    sched::UpdateScheduler& inner =
        tango_scheduler ? static_cast<sched::UpdateScheduler&>(tango) : dionysus;
    TimedScheduler scheduler(inner, clock, rec);

    sched::TransactionOptions topts;
    topts.txn_id = 1;  // pinned: cookies repeat across operations
    topts.exec.cost_hints = w.hints;
    RepointTimes repoints(*w.net);
    topts.journal_sink = &repoints;

    const HostClock::Reading setup = clock.take();
    VirtualResult vr;
    bool committed = false;
    std::size_t rejected = 0, issued = 0, failed_requests = 0, lost = 0;
    std::size_t violations = 0, flows_checked = 0, repointed = 0;
    {
      ScopedSpan update_span(rec, "update");
      const SimTime v0 = w.net->now();
      std::optional<sched::UpdateTransaction> txn;
      {
        ScopedSpan s(rec, "txn.construct");
        txn.emplace(*w.net, std::move(w.dag), topts);
      }
      clock.lap();
      const SimTime v1 = w.net->now();
      const sched::TransactionReport* report = nullptr;
      {
        ScopedSpan s(rec, "txn.commit");
        report = &txn->commit(scheduler);
      }
      clock.lap();
      const SimTime v2 = w.net->now();
      {
        ScopedSpan s(rec, "verifier");
        for (std::size_t id = 0; id < w.checks.size(); ++id) {
          w.checks[id].expected_cookies[txn->dag().request(id).location] =
              txn->cookie_of(id);
        }
        txn->verify(w.checks);
      }
      vr.update_ms = (v2 - v0).ms();
      vr.snapshot_ms = (v1 - v0).ms();
      vr.makespan_ms = report->exec.makespan.ms();
      const auto flow_ms = repoints.since(v0);
      vr.flow_p50_ms = percentile(flow_ms, 50);
      vr.flow_p99_ms = percentile(flow_ms, 99);
      repointed = repoints.count();
      vr.rounds = report->exec.scheduling_rounds;
      vr.queueing_total_ms = report->exec.total_queueing_delay.ms();
      committed = report->committed;
      rejected = report->exec.rejected;
      issued = report->exec.issued;
      failed_requests = report->exec.failed_requests;
      lost = report->exec.lost_requests;
      violations = report->verify.violations.size();
      flows_checked = report->verify.flows_checked;

      if (traced) {
        std::size_t snap_max = 0;
        std::set<SwitchId> affected;
        for (std::size_t id = 0; id < txn->dag().size(); ++id) {
          affected.insert(txn->dag().request(id).location);
        }
        for (const SwitchId sw : affected) {
          snap_max = std::max(snap_max, txn->pre_image(sw).size());
        }
        lt.requests += static_cast<double>(n_requests);
        lt.rounds += static_cast<double>(report->exec.scheduling_rounds);
        lt.issued += static_cast<double>(report->exec.issued);
        lt.queue_total_ms += report->exec.total_queueing_delay.ms();
        lt.queue_max_ms = std::max(lt.queue_max_ms, report->exec.max_queueing_delay.ms());
        lt.retries += static_cast<double>(report->exec.retries);
        lt.timeouts += static_cast<double>(report->exec.timeouts);
        lt.snapshot_virtual_ms += vr.snapshot_ms;
        lt.update_virtual_ms += vr.update_ms;
        lt.makespan_virtual_ms += vr.makespan_ms;
        lt.readback_requests += static_cast<double>(report->readback_requests);
        lt.snapshot_max_rules =
            std::max(lt.snapshot_max_rules, static_cast<double>(snap_max));
        lt.verify_flows += static_cast<double>(report->verify.flows_checked);
        lt.verify_violations += static_cast<double>(violations);
        for (const SwitchId sw : affected) {
          lt.max_rules = std::max(
              lt.max_rules, static_cast<double>(w.net->sw(sw).total_rules()));
        }
      }
    }
    const HostClock::Reading update = clock.take();
    setup_s.push_back(setup.host_s);

    if (traced) {
      lt.order_ms += scheduler.wall_ms();
      lt.order_calls += static_cast<double>(scheduler.calls());
      lt.order_ready += static_cast<double>(scheduler.ready_items());
      tr.add_channels(*w.net);
      w.net->set_telemetry(nullptr);
      host_traced.push_back(update.host_s);
    } else {
      host_untraced.push_back(update.host_s);
      wall_untraced.push_back(update.wall_s);
    }

    // Correctness: the update is whole, nothing was refused, every hop's
    // rule is installed, wins its lookup and carries the transaction's cookie.
    const std::string tag = "op " + std::to_string(loop.op()) + ": ";
    out.check(committed, tag + "transaction did not commit");
    out.check(rejected == 0, tag + std::to_string(rejected) + " requests rejected");
    out.check(issued == n_requests, tag + "issued " + std::to_string(issued) +
                                        " of " + std::to_string(n_requests));
    out.check(failed_requests == 0 && lost == 0, tag + "failed or lost requests");
    out.check(flows_checked == n_requests && violations == 0,
              tag + std::to_string(violations) + " verifier violations");
    out.check(repointed == flows, tag + std::to_string(repointed) + " of " +
                                      std::to_string(flows) + " flows repointed");
    out.check(n_requests >= 4 * kFlows, tag + "scenario generated only " +
                                           std::to_string(n_requests) + " requests");
    if (!first_virtual.has_value()) {
      first_virtual = vr;
    } else {
      out.check(vr == *first_virtual,
                tag + (traced ? "traced" : "untraced") +
                    " virtual-time results differ from the run's first operation");
    }
    out.attempted += n_requests + 1;  // requests + the transaction itself
    out.failed += rejected + failed_requests + lost + violations + (committed ? 0 : 1);
  }

  const VirtualResult& v = *first_virtual;
  out.note("requests per update: " + std::to_string(static_cast<long long>(dag_size)) +
           ", " + loop.summary());
  out.note("virtual split: snapshot " + std::to_string(v.snapshot_ms) +
           " ms + commit " + std::to_string(v.update_ms - v.snapshot_ms) +
           " ms (makespan " + std::to_string(v.makespan_ms) + " ms)");

  if (!opts.trace) {
    const double host = median(host_untraced);
    out.note("op_host_s samples:" + join(host_untraced));
    out.note("raw wall seconds:" + join(wall_untraced));
    out.note("update_wall_s (host) " + std::to_string(host) + " s, update_virtual_ms " +
             std::to_string(v.update_ms) + " ms, makespan_virtual_ms " +
             std::to_string(v.makespan_ms) + " ms, requests_per_wall_s " +
             std::to_string(dag_size / host) + " 1/s");
    out.add("setup_s", median(setup_s), "s");
    out.add("op_host_s", host, "s");
    out.add("virtual_p50_ms", v.flow_p50_ms, "ms");
    out.add("virtual_p99_ms", v.flow_p99_ms, "ms");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  const double n = loop.traced_ops();
  const double construct_ms = tr.spans.total_ms("txn.construct") / n;
  const double order_ms = lt.order_ms / n;
  const double dispatch_self_ms = tr.spans.self_ms("txn.commit") / n;
  const double verifier_ms = tr.spans.total_ms("verifier") / n;
  const double update_ms = tr.spans.total_ms("update") / n;
  const double self_sum = construct_ms + order_ms + dispatch_self_ms + verifier_ms +
                          tr.spans.self_ms("update") / n;
  out.check(self_sum <= update_ms * (1 + 1e-9),
            "per-layer self times exceed the traced update wall time");
  out.note("traced update: " + std::to_string(update_ms) + " ms = construct " +
           std::to_string(construct_ms) + " + order " + std::to_string(order_ms) +
           " + dispatch self " + std::to_string(dispatch_self_ms) + " + verify " +
           std::to_string(verifier_ms) + " (+ reference-kernel passes and glue)");


  out.add("workload.topology_build_ms", tr.spans.total_ms("workload.topology_build") / n, "ms");
  out.add("workload.path_gen_ms", tr.spans.total_ms("workload.path_gen") / n, "ms");
  out.add("workload.hints_learn_ms", tr.spans.total_ms("workload.hints_learn") / n, "ms");
  out.add("workload.requests", lt.requests / n, "count");
  out.add("sched.order_ms", order_ms, "ms");
  out.add("sched.order_calls", lt.order_calls / n, "count");
  out.add("sched.order_ready_items", lt.order_ready / n, "count");
  out.add("exec.dispatch_self_ms", dispatch_self_ms, "ms");
  out.add("exec.scheduling_rounds", lt.rounds / n, "count");
  out.add("exec.issued", lt.issued / n, "count");
  out.add("exec.queueing_delay_mean_ms", lt.issued > 0 ? lt.queue_total_ms / lt.issued : 0, "ms");
  out.add("exec.max_queueing_delay_ms", lt.queue_max_ms, "ms");
  out.add("exec.retries", lt.retries / n, "count");
  out.add("exec.timeouts", lt.timeouts / n, "count");
  out.add("txn.update_virtual_ms", lt.update_virtual_ms / n, "ms");
  out.add("exec.makespan_virtual_ms", lt.makespan_virtual_ms / n, "ms");
  out.add("txn.construct_ms", construct_ms, "ms");
  out.add("txn.snapshot_virtual_ms", lt.snapshot_virtual_ms / n, "ms");
  out.add("txn.snapshot_virtual_frac",
          lt.update_virtual_ms > 0 ? lt.snapshot_virtual_ms / lt.update_virtual_ms : 0,
          "fraction");
  out.add("txn.readback_requests", lt.readback_requests / n, "count");
  out.add("txn.snapshot_max_rules", lt.snapshot_max_rules, "count");
  out.add("txn.journaled_entries", tr.counter("txn.journaled_entries", n), "count");
  out.add("verifier.ms", verifier_ms, "ms");
  out.add("verifier.flows", lt.verify_flows / n, "count");
  out.add("verifier.violations", lt.verify_violations / n, "count");
  out.add("switch.max_rules", lt.max_rules, "count");
  out.add("trace.overhead_frac",
          median(host_traced) / median(host_untraced) - 1, "fraction");

  tr.finish(out, opts, n);
  return out;
}

}  // namespace perfbench
