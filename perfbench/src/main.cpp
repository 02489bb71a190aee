// tango_perfbench: the repository benchmark (see ../README.md).
//
//   tango_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload single-threaded in this process. Human-readable lines
// go first; the last line of standard output is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exit status 0 only when every correctness check passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "common/logging.h"
#include "harness.h"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Outcome;

const char* const kWorkloads[] = {"fabric_dionysus", "fabric_tango",
                                  "fleet_inference", "tenant_churn"};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: every workload reports each of them (--trace 0).
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},        {"op_host_s", "s"},         {"virtual_p50_ms", "ms"},
    {"virtual_p99_ms", "ms"}, {"peak_rss_mb", "MB"},
};

/// Per-layer metrics (--trace 1), per operation. A layer a workload does not
/// exercise reports 0.
const MetricSpec kPerLayer[] = {
    {"workload.topology_build_ms", "ms"},
    {"workload.path_gen_ms", "ms"},
    {"workload.hints_learn_ms", "ms"},
    {"workload.requests", "count"},
    {"sched.order_ms", "ms"},
    {"sched.order_calls", "count"},
    {"sched.order_ready_items", "count"},
    {"exec.dispatch_self_ms", "ms"},
    {"exec.scheduling_rounds", "count"},
    {"exec.issued", "count"},
    {"exec.queueing_delay_mean_ms", "ms"},
    {"exec.max_queueing_delay_ms", "ms"},
    {"exec.retries", "count"},
    {"exec.timeouts", "count"},
    {"exec.makespan_virtual_ms", "ms"},
    {"txn.construct_ms", "ms"},
    {"txn.update_virtual_ms", "ms"},
    {"txn.snapshot_virtual_ms", "ms"},
    {"txn.snapshot_virtual_frac", "fraction"},
    {"txn.readback_requests", "count"},
    {"txn.snapshot_max_rules", "count"},
    {"txn.journaled_entries", "count"},
    {"verifier.ms", "ms"},
    {"verifier.flows", "count"},
    {"verifier.violations", "count"},
    {"channel.messages", "count"},
    {"channel.bytes_to_switch", "B"},
    {"channel.bytes_to_controller", "B"},
    {"switch.flow_mods", "count"},
    {"switch.busy_virtual_ms", "ms"},
    {"switch.max_rules", "count"},
    {"tango.size_inference_ms", "ms"},
    {"tango.size_inference_virtual_s", "s"},
    {"tango.latency_profile_ms", "ms"},
    {"tango.latency_profile_virtual_s", "s"},
    {"tango.policy_inference_ms", "ms"},
    {"tango.policy_inference_virtual_s", "s"},
    {"tango.width_inference_ms", "ms"},
    {"tango.width_inference_virtual_s", "s"},
    {"probe.pattern_rounds", "count"},
    {"probe.timed_batches", "count"},
    {"service.submit_ms", "ms"},
    {"service.run_self_ms", "ms"},
    {"service.avg_concurrency", "count"},
    {"service.conflict_blocks", "count"},
    {"service.fairness_index", "fraction"},
    {"trace.overhead_frac", "fraction"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "tango_perfbench: %s\n"
               "usage: tango_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n"
               "workloads: fabric_dionysus fabric_tango fleet_inference "
               "tenant_churn\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stoi(value);
      } else if (flag == "--trace") {
        o.trace = std::stoi(value) != 0;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || o.workload == w;
  if (!known) usage(("unknown workload '" + o.workload + "'").c_str());
  if (o.seconds < 1) usage("--seconds must be at least 1");
  return o;
}

/// JSON number with all its digits (finite values only; checked upstream).
std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  tango::log::set_threshold(tango::log::Level::kWarn);

  Outcome out;
  if (opts.workload == "fabric_dionysus") {
    out = perfbench::run_fabric(opts, /*tango_scheduler=*/false);
  } else if (opts.workload == "fabric_tango") {
    out = perfbench::run_fabric(opts, /*tango_scheduler=*/true);
  } else if (opts.workload == "fleet_inference") {
    out = perfbench::run_fleet(opts);
  } else {
    out = perfbench::run_churn(opts);
  }

  // Every declared metric exactly once, in declaration order, finite; a
  // layer the workload leaves idle reads 0 in the traced run.
  std::map<std::string, Metric> got;
  for (const Metric& m : out.metrics) {
    out.check(got.emplace(m.name, m).second, "metric reported twice: " + m.name);
  }
  std::vector<Metric> emit;
  const auto take = [&](const MetricSpec& spec, bool required) {
    const auto it = got.find(spec.name);
    if (it == got.end()) {
      out.check(!required, std::string("metric missing: ") + spec.name);
      emit.push_back({spec.name, 0, spec.unit});
      return;
    }
    out.check(it->second.unit == spec.unit,
              std::string("wrong unit for ") + spec.name);
    out.check(std::isfinite(it->second.value),
              std::string("non-finite value for ") + spec.name);
    if (required) {
      out.check(it->second.value > 0, std::string("zero end-to-end metric ") + spec.name);
    }
    emit.push_back(it->second);
    got.erase(it);
  };
  if (opts.trace) {
    for (const auto& spec : kPerLayer) take(spec, false);
  } else {
    for (const auto& spec : kEndToEnd) take(spec, true);
  }
  for (const auto& [name, m] : got) {
    out.check(false, "undeclared metric " + name);
  }

  const bool correct = out.failures.empty();
  std::printf("workload %s  seed %llu  seconds %d  trace %d\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.seconds, opts.trace ? 1 : 0);
  for (const auto& line : out.notes) std::printf("  %s\n", line.c_str());
  for (const Metric& m : emit) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const double failed_frac =
      out.attempted > 0 ? static_cast<double>(out.failed) / static_cast<double>(out.attempted)
                        : 1.0;
  std::printf("  failed_frac %.9f (%llu of %llu attempted)\n", failed_frac,
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  for (const auto& f : out.failures) std::printf("  CHECK FAILED: %s\n", f.c_str());

  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < emit.size(); ++i) {
    const double v = std::isfinite(emit[i].value) ? emit[i].value : 0;
    json += (i == 0 ? "" : ", ") + std::string("\"") + emit[i].name +
            "\": {\"value\": " + number(v) + ", \"unit\": \"" + emit[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct && out.attempted > 0 ? 0 : 1;
}
