// Shared pieces of the end-to-end benchmark driver: run options, the
// result record every workload fills, latency statistics, the in-memory
// span tracer and the independent answer check.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/instance.hpp"
#include "core/packing.hpp"
#include "service/solver_service.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Open-loop rates and limit of the TCP workload (read from config.json
/// by run.py and passed on the command line).
struct TcpConfig {
  std::vector<double> rates;    // fixed offered-rate ladder, ascending
  double reference_rate = 0.0;  // rate for latency_p50/tail
  double tail_limit_ms = 0.0;   // latency limit on a ladder rung
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // span dump path (traced runs only)
  TcpConfig tcp;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `metrics` holds the end-to-end set (untraced
/// runs) or the per-layer set (traced runs); `notes` are printed as
/// human-readable lines ahead of the JSON result.
struct Outcome {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

// --- statistics ------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double mean(const std::vector<double>& v);

/// Nearest-rank percentile of an ascending-sorted sample.
[[nodiscard]] double percentile_sorted(const std::vector<double>& sorted,
                                       double p);

/// The tail the sample supports: the highest of p90/p99/p99.9/p99.99
/// with at least ten samples beyond it (p50 if none qualifies).
struct Tail {
  double value = 0.0;
  double percentile = 50.0;
  std::size_t samples = 0;
};
[[nodiscard]] Tail supported_tail(std::vector<double> v);

// --- tracing ---------------------------------------------------------------

/// In-memory span recorder. Spans are opened and closed around calls into
/// the library's public functions; every span carries the id of the
/// request it serves and its parent span. Nothing is written until
/// `write`, and a disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span; returns its handle (-1 when disabled).
  int open(const char* name, std::uint64_t request, int parent = -1);
  void close(int span);
  /// Records a finished span from timestamps taken elsewhere.
  int record(const char* name, std::uint64_t request, int parent,
             std::int64_t start_ns, std::int64_t end_ns);

  /// Per span name: mean self time (duration minus the part covered by
  /// child spans) in nanoseconds, and the number of spans.
  struct Summary {
    double mean_self_ns = 0.0;
    double mean_total_ns = 0.0;
    std::size_t count = 0;
  };
  [[nodiscard]] std::map<std::string, Summary> summarize() const;

  /// Writes one JSON object per span, one per line.
  void write(const std::string& path, bool append = false) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t request;
    int parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// Scoped span.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t request,
        int parent = -1)
      : tracer_(tracer), span_(tracer.open(name, request, parent)) {}
  ~Scope() { tracer_.close(span_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] int id() const { return span_; }

 private:
  Tracer& tracer_;
  int span_;
};

// --- answer check ----------------------------------------------------------

/// Checks one returned answer without trusting the solver: the placement
/// must pass `core::validate`, and the lower bound must sit at or below
/// both the recomputed packing height and the reported height.
struct AnswerCheck {
  bool ok = false;
  bool placement_valid = false;
  double realized = 0.0;  // max over items of y + h, recomputed here
  std::string why;
};
[[nodiscard]] AnswerCheck check_answer(const stripack::Instance& instance,
                                       const stripack::Placement& placement,
                                       double height, double dual_bound);

// --- workloads -------------------------------------------------------------

[[nodiscard]] Outcome run_deep_proof(const RunOptions& options);
[[nodiscard]] Outcome run_mixed_served(const RunOptions& options);
[[nodiscard]] Outcome run_tcp_similar(const RunOptions& options);

/// Seed for the i-th generated input of a workload run.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t i);

/// Deterministic work counters of one pass, in a fixed order.
using Counters = std::vector<std::pair<std::string, double>>;

/// Compares the counters of two passes over the same inputs; every
/// mismatch is reported on stderr and marks `out` incorrect.
void require_same_counters(const Counters& first, const Counters& second,
                           Outcome& out);

using SpanTable = std::map<std::string, Tracer::Summary>;

/// Mean self (or total) duration of the spans named `name`, in ms; 0 when
/// the run recorded none.
[[nodiscard]] double span_mean_ms(const SpanTable& spans, const char* name,
                                  bool self);

/// Reports `trace.requests` and `trace.overhead_share`: the traced pass's
/// summed request latency over the untraced pass's, minus one.
void add_trace_overhead(Outcome& out, const std::vector<double>& plain_ms,
                        const std::vector<double>& traced_ms);

/// printf-style formatting into a string (for the notes).
[[nodiscard]] std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// part / whole, or 0 for an empty whole.
[[nodiscard]] inline double share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

/// One request through the in-process service path, closed loop:
/// `io::read_instance` -> `SolverService::enqueue` -> `run` ->
/// `SolverService::write_response`, each call under its own span
/// (`io.parse`, `service.enqueue`, `service.run`, `io.write`) inside a
/// `request` span.
struct Served {
  stripack::Instance instance;
  stripack::service::ServiceResponse response;
  std::string response_text;
  double latency_ms = 0.0;
};
[[nodiscard]] Served serve_one(stripack::service::SolverService& service,
                               const std::string& request_text,
                               Tracer& tracer, std::uint64_t request);

/// The set-up time of a run: the median of `kSetups` timed set-ups.
/// `tick` spreads them evenly over the timed part and `finish` runs the
/// outstanding ones back to back. On a shared VM host speed drifts in
/// bursts of about a second, which back-to-back set-ups all fall into.
class SetupClock {
 public:
  static constexpr std::size_t kSetups = 15;

  explicit SetupClock(std::function<void()> set_up)
      : set_up_(std::move(set_up)) {}

  /// Runs and times the next set-up if it is due once `progress` (0 to 1)
  /// of the timed part is done. Returns the nanoseconds it took (0 if
  /// none was due), to be left out of the timed part.
  std::int64_t tick(double progress) {
    if (seconds_.size() >= kSetups ||
        static_cast<double>(seconds_.size()) >
            progress * static_cast<double>(kSetups - 1)) {
      return 0;
    }
    const std::int64_t start = now_ns();
    set_up_();
    const std::int64_t took = now_ns() - start;
    seconds_.push_back(static_cast<double>(took) * 1e-9);
    return took;
  }

  /// Runs the set-ups still outstanding; call after the timed part.
  void finish() {
    while (seconds_.size() < kSetups) (void)tick(1.0);
  }

  [[nodiscard]] double median_s() const { return median(seconds_); }

 private:
  std::function<void()> set_up_;
  std::vector<double> seconds_;
};

/// Replays the release layer for one request, outside the served path:
/// `make_problem` and a column-generation root solve of
/// `ConfigLpSolver` on `lp_instance` (spans `release.make_problem`,
/// `release.root_lp`), then the skyline baseline on `instance`.
struct ReleaseReplay {
  double skyline_height = 0.0;
  std::int64_t root_dfs_expansions = 0;
};
[[nodiscard]] ReleaseReplay replay_release(
    const stripack::Instance& lp_instance, const stripack::Instance& instance,
    Tracer& tracer, std::uint64_t request);

}  // namespace perfbench
