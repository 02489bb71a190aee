// fleet_inference: Tango's first half — learn every switch of a fleet by
// probing.
//
// One operation = one fleet replica on a fresh network (set-up, timed as a
// set-up sample), learned switch by switch (timed). A replica is the four
// Table 1 switches of profiles::paper_fleet() plus one LRU policy-cache
// switch: none of the four passes learn()'s policy-probing guard (their
// fast tables are single-layer or larger than max_policy_cache_size), so
// the fifth switch is what exercises cache-policy inference.
//
// Untraced operations call TangoController::learn(). Traced operations call
// the stages it is made of — infer_sizes, infer_policy, profile_op_costs,
// infer_width — directly, with learn()'s own configuration, so each stage
// gets its own span; the staged result must equal learn()'s exactly.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "harness.h"
#include "net/network.h"
#include "switchsim/profiles.h"
#include "tango/tango.h"

namespace perfbench {
namespace {

using namespace tango;

constexpr std::size_t kPolicyCacheEntries = 128;
/// Relative tolerance on inferred fast-table sizes against Table 1 (the
/// paper's §7 size-inference accuracy claim).
constexpr double kSizeTolerance = 0.05;

core::LearnOptions learn_options() {
  core::LearnOptions o;
  o.size.max_rules = 4096;  // fills every TCAM of the fleet to capacity
  o.infer_policy = true;
  o.infer_width = true;
  return o;
}

/// Fleet member with the ground truth its inference is checked against.
struct Member {
  switchsim::SwitchProfile profile;
  /// Table 1 fast-table size; 0 = unbounded software table.
  double table1_size = 0;
  /// True for the policy-cache switch: its LRU policy must be recovered.
  bool lru = false;
};

std::vector<Member> fleet_members() {
  std::vector<Member> out;
  for (auto& p : switchsim::profiles::paper_fleet()) {
    Member m;
    m.profile = std::move(p);
    out.push_back(std::move(m));
  }
  // Table 1: OVS unbounded; #1 2K (double-wide, as shipped); #2 2560; #3 767.
  out[1].table1_size = 2048;
  out[2].table1_size = 2560;
  out[3].table1_size = 767;
  Member pc;
  pc.profile = switchsim::profiles::policy_cache(
      "LRU cache", {kPolicyCacheEntries}, tables::LexCachePolicy::lru());
  pc.lru = true;
  out.push_back(std::move(pc));
  return out;
}

/// learn(), stage by stage (same order and configuration as
/// TangoController::learn, same score database), with a span and a
/// virtual-time delta per stage.
struct StageTimes {
  double sizes_s = 0, policy_s = 0, latency_s = 0, width_s = 0;  // virtual
};

core::SwitchKnowledge learn_staged(net::Network& net, SwitchId id,
                                   const core::LearnOptions& options,
                                   core::ScoreDb& scores, SpanRecorder* spans,
                                   StageTimes& st) {
  core::SwitchKnowledge know;
  know.switch_id = id;
  know.name = net.sw(id).profile().name;
  core::ProbeEngine probe(net, id);
  probe.clear_rules();
  SimTime v = net.now();
  const auto lap = [&](double& into) {
    into += (net.now() - v).ms() / 1000.0;
    v = net.now();
  };
  {
    ScopedSpan s(spans, "tango.size_inference");
    know.sizes = core::infer_sizes(probe, options.size);
    probe.clear_rules();
  }
  lap(st.sizes_s);
  const std::size_t fast =
      (know.sizes.layer_sizes.empty() || know.sizes.clusters.size() <= 1)
          ? 0
          : static_cast<std::size_t>(std::llround(know.sizes.layer_sizes.front()));
  {
    ScopedSpan s(spans, "tango.policy_inference");
    if (options.infer_policy && fast > 0 && fast <= options.max_policy_cache_size) {
      core::PolicyInferenceConfig pc;
      pc.cache_size = fast;
      know.policy = core::infer_policy(probe, pc);
    }
    probe.clear_rules();
  }
  lap(st.policy_s);
  {
    ScopedSpan s(spans, "tango.latency_profile");
    auto latency = options.latency;
    const std::size_t capacity = know.sizes.hit_rule_cap ? 0 : know.sizes.installed;
    if (capacity > 0) {
      latency.preinstalled = std::min(latency.preinstalled, capacity / 2);
      latency.batch_size =
          std::min(latency.batch_size, std::max<std::size_t>(1, capacity / 3));
    }
    know.costs = core::profile_op_costs(probe, latency, &scores);
    probe.clear_rules();
  }
  lap(st.latency_s);
  {
    ScopedSpan s(spans, "tango.width_inference");
    if (options.infer_width) {
      core::WidthInferenceConfig wc;
      wc.size = options.size;
      wc.max_rules = std::max<std::size_t>(options.size.max_rules, 256);
      know.width = core::infer_width(probe, wc);
      probe.clear_rules();
    }
  }
  lap(st.width_s);
  return know;
}

/// What must agree between learn() and the staged replica, and repeat
/// exactly from one operation to the next.
struct Learned {
  std::vector<double> layer_sizes;
  bool hit_rule_cap = false;
  std::string policy;
  int width_mode = -1;
  bool width_unbounded = false;
  double costs[6] = {};
  double virtual_s = 0;
  bool operator==(const Learned&) const = default;
};

Learned summarize(const core::SwitchKnowledge& k, double virtual_s) {
  Learned l;
  l.layer_sizes = k.sizes.layer_sizes;
  l.hit_rule_cap = k.sizes.hit_rule_cap;
  l.policy = k.policy.has_value() ? k.policy->policy.describe() : "";
  if (k.width.has_value()) {
    l.width_mode = static_cast<int>(k.width->mode);
    l.width_unbounded = k.width->unbounded;
  }
  const auto& c = k.costs;
  const double costs[6] = {c.add_ascending_ms, c.add_descending_ms, c.add_same_priority_ms,
                           c.add_random_ms,    c.mod_ms,            c.del_ms};
  std::copy(std::begin(costs), std::end(costs), l.costs);
  l.virtual_s = virtual_s;
  return l;
}

/// Wrong-inference count for one member (0 = every inferred property right).
std::size_t wrong_results(const Member& m, const core::SwitchKnowledge& k,
                          std::vector<std::string>& why) {
  std::size_t wrong = 0;
  const auto fail = [&](const std::string& what) {
    ++wrong;
    why.push_back(m.profile.name + ": " + what);
  };
  if (m.lru) {
    const auto truth = tables::LexCachePolicy::lru().keys().front();
    if (!k.policy.has_value() || k.policy->policy.keys().empty() ||
        !(k.policy->policy.keys().front() == truth)) {
      fail("cache policy not recovered (got " +
           (k.policy.has_value() ? k.policy->policy.describe() : std::string("none")) +
           ")");
    }
    return wrong;
  }
  if (m.table1_size == 0) {
    if (!k.sizes.hit_rule_cap) fail("unbounded table not detected");
  } else {
    const double fast = k.sizes.layer_sizes.empty() ? 0 : k.sizes.layer_sizes.front();
    if (std::abs(fast - m.table1_size) > kSizeTolerance * m.table1_size) {
      fail("fast table " + std::to_string(fast) + " vs Table 1 " +
           std::to_string(m.table1_size));
    }
  }
  if (!m.profile.cache_levels.empty() && m.table1_size != 0) {
    if (!k.width.has_value() || k.width->unbounded ||
        k.width->mode != m.profile.cache_levels.front().mode) {
      fail("TCAM width mode not recovered");
    }
  }
  return wrong;
}

}  // namespace

Outcome run_fleet(const Options& opts) {
  Outcome out;
  const auto members = fleet_members();
  const auto options = learn_options();

  TraceState tr;
  StageTimes stage_virtual;
  double max_rules = 0;

  std::vector<double> setup_s, host_untraced, host_traced, wall_untraced;
  std::optional<std::vector<Learned>> first;

  OpLoop loop(opts, tr.spans);
  while (loop.next()) {
    const bool traced = loop.traced();
    SpanRecorder* rec = loop.spans();

    HostClock clock(rec);
    std::unique_ptr<net::Network> net;
    std::vector<SwitchId> ids;
    {
      ScopedSpan s(rec, "workload.topology_build");
      net = std::make_unique<net::Network>();
      for (std::size_t i = 0; i < members.size(); ++i) {
        ids.push_back(net->add_switch(members[i].profile, opts.seed * 1000 + i));
      }
    }
    if (traced) net->set_telemetry(&tr.tel);
    const HostClock::Reading setup = clock.take();

    std::vector<Learned> learned;
    std::vector<std::string> why;
    std::size_t wrong = 0;
    {
      ScopedSpan fleet_span(rec, "fleet");
      core::TangoController ctl(*net);
      for (std::size_t i = 0; i < members.size(); ++i) {
        const SimTime v0 = net->now();
        core::SwitchKnowledge know;
        if (traced) {
          ScopedSpan s(rec, "learn");
          know = learn_staged(*net, ids[i], options, ctl.scores(), rec, stage_virtual);
          max_rules = std::max(max_rules, static_cast<double>(know.sizes.installed));
        } else {
          know = ctl.learn(ids[i], options);
        }
        learned.push_back(summarize(know, (net->now() - v0).ms() / 1000.0));
        wrong += wrong_results(members[i], know, why);
        clock.maybe_lap();
      }
    }
    const HostClock::Reading fleet = clock.take();
    setup_s.push_back(setup.host_s);

    if (traced) {
      tr.add_channels(*net);
      net->set_telemetry(nullptr);
      host_traced.push_back(fleet.host_s);
    } else {
      host_untraced.push_back(fleet.host_s);
      wall_untraced.push_back(fleet.wall_s);
    }

    const std::string tag = "op " + std::to_string(loop.op()) + ": ";
    for (const auto& w : why) out.check(false, tag + w);
    if (!first.has_value()) {
      first = learned;
    } else {
      out.check(learned == *first,
                tag + (traced ? "staged (traced)" : "learn()") +
                    " results differ from the run's first operation");
    }
    out.attempted += members.size();
    out.failed += wrong;
  }

  std::vector<double> per_switch_s;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const Learned& l = (*first)[i];
    per_switch_s.push_back(l.virtual_s);
    std::string sizes;
    for (const double s : l.layer_sizes) sizes += " " + std::to_string(std::lround(s));
    out.note(members[i].profile.name + ": layers" + sizes +
             (l.hit_rule_cap ? " (capped)" : "") + ", virtual " +
             std::to_string(l.virtual_s) + " s" +
             (l.policy.empty() ? "" : ", policy " + l.policy));
  }
  out.note(loop.summary());

  if (!opts.trace) {
    const double host = median(host_untraced);
    out.note("op_host_s samples:" + join(host_untraced));
    out.note("raw wall seconds:" + join(wall_untraced));
    out.note("switches_per_wall_s " +
             std::to_string(static_cast<double>(members.size()) / host) +
             " 1/s, inference_virtual_s " + std::to_string(median(per_switch_s)) + " s");
    out.add("setup_s", median(setup_s), "s");
    out.add("op_host_s", host, "s");
    out.add("virtual_p50_ms", 1000 * median(per_switch_s), "ms");
    out.add("virtual_p99_ms", 1000 * percentile(per_switch_s, 99), "ms");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  const double n = loop.traced_ops();
  out.add("workload.topology_build_ms", tr.spans.total_ms("workload.topology_build") / n, "ms");
  out.add("switch.max_rules", max_rules, "count");
  out.add("tango.size_inference_ms", tr.spans.total_ms("tango.size_inference") / n, "ms");
  out.add("tango.size_inference_virtual_s", stage_virtual.sizes_s / n, "s");
  out.add("tango.latency_profile_ms", tr.spans.total_ms("tango.latency_profile") / n, "ms");
  out.add("tango.latency_profile_virtual_s", stage_virtual.latency_s / n, "s");
  out.add("tango.policy_inference_ms", tr.spans.total_ms("tango.policy_inference") / n, "ms");
  out.add("tango.policy_inference_virtual_s", stage_virtual.policy_s / n, "s");
  out.add("tango.width_inference_ms", tr.spans.total_ms("tango.width_inference") / n, "ms");
  out.add("tango.width_inference_virtual_s", stage_virtual.width_s / n, "s");
  out.add("probe.pattern_rounds", tr.counter("probe.pattern_rounds", n), "count");
  out.add("probe.timed_batches", tr.counter("probe.timed_batches", n), "count");
  out.add("trace.overhead_frac", median(host_traced) / median(host_untraced) - 1,
          "fraction");

  tr.finish(out, opts, n);
  return out;
}

}  // namespace perfbench
