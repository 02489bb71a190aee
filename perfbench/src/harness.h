// Measurement plumbing shared by the benchmark workloads: wall clock,
// benchmark-owned spans, the TimedScheduler decorator, statistics and the
// result record every workload fills.
//
// Everything here observes the program from outside: spans wrap calls into
// public functions, the scheduler decorator wraps any sched::UpdateScheduler,
// and nothing reaches into the libraries' internals.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/network.h"
#include "scheduler/schedulers.h"
#include "telemetry/trace.h"

namespace perfbench {

/// Nanoseconds since the first call in this process (steady clock).
std::int64_t now_ns();

inline double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Command-line options.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

/// Where the traced run writes its span file (relative to the working
/// directory, the repository root).
constexpr const char* kTraceDir = ".bench_out";

// --- spans -------------------------------------------------------------------

/// One benchmark-owned span: a named wall-clock interval around a call into
/// the program, with the span that was open when it began as its parent.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  /// Operation (update, fleet, round) the span belongs to.
  int op = -1;
};

/// In-memory span recorder. Spans nest by a stack: begin() parents the new
/// span under the innermost open one. Nothing is written until the run
/// ends (see write_trace_file).
class SpanRecorder {
 public:
  int begin(const char* name);
  void end(int index);

  /// Tag spans begun from now on with operation number `op`.
  void set_op(int op) { op_ = op; }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration of every span called `name` (ms).
  [[nodiscard]] double total_ms(const char* name) const;
  /// Summed self time (duration minus the time covered by direct
  /// children) of every span called `name` (ms).
  [[nodiscard]] double self_ms(const char* name) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  int op_ = -1;
};

/// RAII span; a null recorder records nothing (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name)
      : rec_(rec), index_(rec != nullptr ? rec->begin(name) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int index_;
};

// --- operations --------------------------------------------------------------

/// Paces a run. Operations repeat until --seconds have passed and, in an
/// untraced run, at least kMinOps ran; a traced run alternates untraced and
/// traced operations (at least one of each), so trace.overhead_frac
/// compares like with like.
class OpLoop {
 public:
  static constexpr int kMinOps = 3;

  OpLoop(const Options& opts, SpanRecorder& spans)
      : trace_(opts.trace),
        budget_ns_(static_cast<std::int64_t>(opts.seconds) * 1'000'000'000),
        start_ns_(now_ns()),
        spans_(spans) {}

  /// Starts the next operation; false when the run is over.
  bool next();

  [[nodiscard]] int op() const { return op_; }
  [[nodiscard]] bool traced() const { return traced_; }
  [[nodiscard]] int traced_ops() const { return traced_ops_; }
  /// The span recorder for this operation: null unless it is traced.
  [[nodiscard]] SpanRecorder* spans() const { return traced_ ? &spans_ : nullptr; }
  /// "operations: N (U untraced, T traced)".
  [[nodiscard]] std::string summary() const;

 private:
  bool trace_;
  std::int64_t budget_ns_;
  std::int64_t start_ns_;
  SpanRecorder& spans_;
  int op_ = -1;
  bool traced_ = false;
  int traced_ops_ = 0;
  int untraced_ops_ = 0;
};

// --- host-speed normalization ------------------------------------------------

/// The machine this benchmark runs on shares its cores: for seconds at a
/// time the same work runs up to ~1.8x slower. So operations are timed in
/// segments of about kLapNs, cut by passes of a fixed reference kernel
/// (allocation and ordered-map work, like the simulator's own), and each
/// segment's wall time is scaled by kReferenceKernelMs / (mean time of the
/// kernel passes around it). "Host seconds" are thus seconds on a host where
/// one kernel pass takes kReferenceKernelMs. The kernel is benchmark code:
/// no change to the program moves it.
constexpr double kReferenceKernelMs = 5.0;
constexpr std::int64_t kLapNs = 100'000'000;

/// Wall time of one pass of the reference kernel, in ms.
double reference_kernel_ms();

class HostClock {
 public:
  /// Starts the first segment (after one kernel pass). Kernel passes are
  /// recorded as "calibration" spans when `spans` is set, so they count in
  /// no layer's self time.
  explicit HostClock(SpanRecorder* spans);

  /// Ends the current segment and starts the next.
  void lap();
  /// lap() once the current segment is at least kLapNs old.
  void maybe_lap() {
    if (now_ns() - segment_start_ns_ >= kLapNs) lap();
  }

  struct Reading {
    double wall_s = 0;
    double host_s = 0;
  };
  /// Ends the current segment and returns the time counted since the last
  /// take() (or construction); counting then restarts from zero.
  Reading take();

 private:
  double kernel_pass();

  SpanRecorder* spans_;
  double last_kernel_ms_ = 0;
  std::int64_t segment_start_ns_ = 0;
  Reading total_;
};

// --- scheduler decorator -----------------------------------------------------

/// Wraps any UpdateScheduler and records, per order() call, its wall time
/// and the size of the ready set it was handed. With a span recorder each
/// call also becomes an "sched.order" span, so the enclosing commit's self
/// time is executor dispatch. Between calls it lets `clock` cut a segment,
/// which is how a long commit gets timed in host seconds.
class TimedScheduler : public tango::sched::UpdateScheduler {
 public:
  TimedScheduler(tango::sched::UpdateScheduler& inner, HostClock& clock,
                 SpanRecorder* spans)
      : inner_(inner), clock_(clock), spans_(spans) {}

  std::vector<std::size_t> order(const tango::sched::RequestDag& dag,
                                 std::vector<std::size_t> ready) override;
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  [[nodiscard]] std::uint64_t calls() const { return calls_; }
  [[nodiscard]] std::uint64_t ready_items() const { return ready_items_; }
  [[nodiscard]] double wall_ms() const { return ns_to_ms(wall_ns_); }

 private:
  tango::sched::UpdateScheduler& inner_;
  HostClock& clock_;
  SpanRecorder* spans_;
  std::uint64_t calls_ = 0;
  std::uint64_t ready_items_ = 0;
  std::int64_t wall_ns_ = 0;
};

// --- statistics --------------------------------------------------------------

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 100]; 0 when empty.
double percentile(std::vector<double> v, double p);

/// " v1 v2 ..." — the samples behind a reported statistic, for the notes.
std::string join(const std::vector<double>& v);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

// --- results -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run produced. `metrics` holds the end-to-end metrics
/// in an untraced run and the per-layer metrics in a traced one.
struct Outcome {
  std::vector<std::string> failures;  // correctness checks that failed
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // human-readable context lines

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Record a correctness check; a false condition fails the run.
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

/// What a traced run keeps: the benchmark's spans, the telemetry context
/// attached to each traced operation's network, and the control-channel
/// traffic of those networks.
struct TraceState {
  SpanRecorder spans;
  tango::telemetry::Telemetry tel;
  double messages = 0;
  double bytes_to_switch = 0;
  double bytes_to_controller = 0;

  TraceState() { tel.trace.set_capacity(std::size_t{1} << 14); }
  TraceState(const TraceState&) = delete;
  TraceState& operator=(const TraceState&) = delete;

  /// Adds the channel counters of every switch of `net` (once per traced
  /// operation, before the network goes away).
  void add_channels(const tango::net::Network& net);
  /// A telemetry counter's total divided by `ops`.
  [[nodiscard]] double counter(const char* name, double ops) const;
  /// Adds the channel.* and switch.* metrics (per operation), then writes
  /// the spans and the program's run report to
  /// `<kTraceDir>/<workload>-seed<seed>.trace.json`.
  void finish(Outcome& out, const Options& opts, double ops) const;
};

// --- workloads ---------------------------------------------------------------

Outcome run_fabric(const Options& opts, bool tango_scheduler);
Outcome run_fleet(const Options& opts);
Outcome run_churn(const Options& opts);

}  // namespace perfbench
