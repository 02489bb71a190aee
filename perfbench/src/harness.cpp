#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <string_view>
#include <utility>

#include "telemetry/run_report.h"

namespace perfbench {

std::int64_t now_ns() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch)
      .count();
}

// --- spans -------------------------------------------------------------------

int SpanRecorder::begin(const char* name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.op = op_;
  s.start_ns = now_ns();
  spans_.push_back(s);
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanRecorder::end(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  // Spans close innermost-first; tolerate an out-of-order close by
  // unwinding to the span being closed.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

double SpanRecorder::total_ms(const char* name) const {
  std::int64_t ns = 0;
  for (const auto& s : spans_) {
    if (std::string_view(s.name) == name) ns += s.end_ns - s.start_ns;
  }
  return ns_to_ms(ns);
}

double SpanRecorder::self_ms(const char* name) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const auto& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::int64_t ns = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (std::string_view(spans_[i].name) == name) {
      ns += spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
    }
  }
  return ns_to_ms(ns);
}

// --- scheduler decorator -----------------------------------------------------

std::vector<std::size_t> TimedScheduler::order(
    const tango::sched::RequestDag& dag, std::vector<std::size_t> ready) {
  clock_.maybe_lap();
  ++calls_;
  ready_items_ += ready.size();
  ScopedSpan span(spans_, "sched.order");
  const std::int64_t t0 = now_ns();
  auto out = inner_.order(dag, std::move(ready));
  wall_ns_ += now_ns() - t0;
  return out;
}

// --- operations --------------------------------------------------------------

bool OpLoop::next() {
  if (op_ >= 0) ++(traced_ ? traced_ops_ : untraced_ops_);
  const bool enough = trace_ ? traced_ops_ >= 1 && untraced_ops_ >= 1
                             : untraced_ops_ >= kMinOps;
  if (enough && now_ns() - start_ns_ >= budget_ns_) return false;
  ++op_;
  traced_ = trace_ && op_ % 2 == 1;
  spans_.set_op(op_);
  return true;
}

std::string OpLoop::summary() const {
  return "operations: " + std::to_string(op_ + 1) + " (" + std::to_string(untraced_ops_) +
         " untraced, " + std::to_string(traced_ops_) + " traced)";
}

// --- host-speed normalization ------------------------------------------------

double reference_kernel_ms() {
  static std::uint64_t sink = 0;  // keeps the work observable
  const std::int64_t t0 = now_ns();
  std::map<std::uint64_t, std::uint64_t> table;
  std::vector<std::string> names;
  std::uint64_t x = 88172645463325252ULL;
  for (std::uint64_t i = 0; i < 40000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    table[x >> 20] = i;
    if (table.size() > 4096) table.erase(table.begin());
    if (i % 8 == 0) names.push_back(std::to_string(x));
    sink += table.lower_bound(x >> 21) != table.end() ? 1 : 0;
  }
  sink += names.size();
  return ns_to_ms(now_ns() - t0);
}

HostClock::HostClock(SpanRecorder* spans) : spans_(spans) {
  last_kernel_ms_ = kernel_pass();
  segment_start_ns_ = now_ns();
}

double HostClock::kernel_pass() {
  ScopedSpan span(spans_, "calibration");
  return reference_kernel_ms();
}

void HostClock::lap() {
  const std::int64_t wall_ns = now_ns() - segment_start_ns_;
  const double kernel_ms = kernel_pass();
  total_.wall_s += ns_to_s(wall_ns);
  total_.host_s +=
      ns_to_s(wall_ns) * 2 * kReferenceKernelMs / (last_kernel_ms_ + kernel_ms);
  last_kernel_ms_ = kernel_ms;
  segment_start_ns_ = now_ns();
}

HostClock::Reading HostClock::take() {
  lap();
  return std::exchange(total_, Reading{});
}

// --- statistics --------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::string join(const std::vector<double>& v) {
  std::string out;
  for (const double x : v) out += " " + std::to_string(x);
  return out;
}

double peak_rss_mb() {
  // VmHWM, not getrusage(): ru_maxrss survives exec(), so it would report
  // the launching process's peak when that was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0;
}

// --- trace file --------------------------------------------------------------

namespace {

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// Writes the spans and the rendered run report; returns the path written,
/// or an empty string on failure.
std::string write_trace_file(const Options& opts, const SpanRecorder& spans,
                             const std::string& run_report_json) {
  std::error_code ec;
  std::filesystem::create_directories(kTraceDir, ec);
  if (ec) return {};
  const std::string path = std::string(kTraceDir) + "/" + opts.workload + "-seed" +
                           std::to_string(opts.seed) + ".trace.json";
  std::ofstream out(path);
  if (!out) return {};
  out << "{\"schema\": \"perfbench.trace.v1\", \"workload\": \""
      << json_escape(opts.workload) << "\", \"seed\": " << opts.seed
      << ",\n \"spans\": [";
  const auto& all = spans.spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << (i == 0 ? "\n  " : ",\n  ") << "{\"id\": " << i << ", \"name\": \""
        << json_escape(s.name) << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
        << ", \"op\": " << s.op << "}";
  }
  out << "\n ],\n \"run_report\": " << run_report_json << "\n}\n";
  return out ? path : std::string{};
}

}  // namespace

void TraceState::add_channels(const tango::net::Network& net) {
  for (std::size_t i = 1; i <= net.switch_count(); ++i) {
    const auto& cs = net.stats(static_cast<tango::SwitchId>(i));
    messages += static_cast<double>(cs.messages_to_switch + cs.messages_to_controller);
    bytes_to_switch += static_cast<double>(cs.bytes_to_switch);
    bytes_to_controller += static_cast<double>(cs.bytes_to_controller);
  }
}

double TraceState::counter(const char* name, double ops) const {
  const auto* c = tel.metrics.find_counter(name);
  return c != nullptr ? static_cast<double>(c->value()) / ops : 0.0;
}

void TraceState::finish(Outcome& out, const Options& opts, double ops) const {
  out.add("channel.messages", messages / ops, "count");
  out.add("channel.bytes_to_switch", bytes_to_switch / ops, "B");
  out.add("channel.bytes_to_controller", bytes_to_controller / ops, "B");
  out.add("switch.flow_mods", counter("switch.flow_mods", ops), "count");
  const auto* busy_us = tel.metrics.find_histogram("switch.flow_mod_us");
  out.add("switch.busy_virtual_ms", busy_us != nullptr ? busy_us->sum() / 1000.0 / ops : 0,
          "ms");
  tango::telemetry::RunReport report("perfbench." + opts.workload);
  report.add_metrics(tel.metrics);
  const std::string path = write_trace_file(opts, spans, report.to_json());
  out.check(!path.empty(), "could not write the trace file");
  out.note("trace file: " + path);
}

}  // namespace perfbench
