#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "bnp/solver.hpp"
#include "core/validate.hpp"
#include "io/instance_io.hpp"
#include "release/baselines.hpp"
#include "release/config_lp.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

Tail supported_tail(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  Tail tail;
  tail.samples = v.size();
  tail.value = percentile_sorted(v, 50.0);
  for (const double p : {90.0, 99.0, 99.9, 99.99}) {
    const auto at = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    if (v.size() < at + 10) break;
    tail.percentile = p;
    tail.value = percentile_sorted(v, p);
  }
  return tail;
}

// --- tracing ---------------------------------------------------------------

int Tracer::open(const char* name, std::uint64_t request, int parent) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, request, parent, now_ns(), 0});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::close(int span) {
  if (span < 0) return;
  spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
}

int Tracer::record(const char* name, std::uint64_t request, int parent,
                   std::int64_t start_ns, std::int64_t end_ns) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, request, parent, start_ns, end_ns});
  return static_cast<int>(spans_.size() - 1);
}

std::map<std::string, Tracer::Summary> Tracer::summarize() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::map<std::string, Summary> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Self time: the span minus the union of its children's intervals.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [b, e] : kids) {
      const std::int64_t lo = std::max(b, reach);
      const std::int64_t hi = std::min(e, s.end_ns);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, hi);
    }
    Summary& sum = out[s.name];
    const auto total = static_cast<double>(s.end_ns - s.start_ns);
    sum.mean_total_ns += total;
    sum.mean_self_ns += total - static_cast<double>(covered);
    ++sum.count;
  }
  for (auto& [name, sum] : out) {
    sum.mean_total_ns /= static_cast<double>(sum.count);
    sum.mean_self_ns /= static_cast<double>(sum.count);
  }
  return out;
}

void Tracer::write(const std::string& path, bool append) const {
  std::ofstream os(path, append ? std::ios::app : std::ios::trunc);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"span\":" << i << ",\"name\":\"" << s.name
       << "\",\"request\":" << s.request << ",\"parent\":" << s.parent
       << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
       << "}\n";
  }
}

// --- answer check ----------------------------------------------------------

namespace {

/// Height of a placement, recomputed from the item rectangles.
double realized_height(const stripack::Instance& instance,
                       const stripack::Placement& placement) {
  double top = 0.0;
  const std::size_t n = std::min(instance.size(), placement.size());
  for (std::size_t i = 0; i < n; ++i) {
    top = std::max(top, placement[i].y + instance.item(i).height());
  }
  return top;
}

}  // namespace

AnswerCheck check_answer(const stripack::Instance& instance,
                         const stripack::Placement& placement, double height,
                         double dual_bound) {
  constexpr double kTol = 1e-6;
  AnswerCheck c;
  const stripack::ValidationReport report =
      stripack::validate(instance, placement);
  c.placement_valid = report.ok();
  c.realized = realized_height(instance, placement);
  if (!c.placement_valid) {
    c.why = "invalid placement: " + report.summary();
  } else if (!std::isfinite(dual_bound) || dual_bound > c.realized + kTol) {
    c.why = "dual_bound " + std::to_string(dual_bound) +
            " above the realized height " + std::to_string(c.realized);
  } else if (dual_bound > height + kTol) {
    c.why = "dual_bound " + std::to_string(dual_bound) +
            " above the reported height " + std::to_string(height);
  }
  c.ok = c.why.empty();
  return c;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t i) {
  // SplitMix64 finalizer over (seed, i): independent streams per input.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + i + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void require_same_counters(const Counters& first, const Counters& second,
                           Outcome& out) {
  if (first.size() != second.size()) {
    std::fprintf(stderr, "error: determinism: counter sets differ\n");
    out.correct = false;
    return;
  }
  for (std::size_t i = 0; i < first.size(); ++i) {
    if (first[i].first != second[i].first ||
        first[i].second != second[i].second) {
      std::fprintf(stderr,
                   "error: determinism: %s is %.17g on the first pass and "
                   "%.17g on the second\n",
                   first[i].first.c_str(), first[i].second,
                   second[i].second);
      out.correct = false;
    }
  }
}

std::string format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

double span_mean_ms(const SpanTable& spans, const char* name, bool self) {
  const auto it = spans.find(name);
  if (it == spans.end()) return 0.0;
  return (self ? it->second.mean_self_ns : it->second.mean_total_ns) * 1e-6;
}

void add_trace_overhead(Outcome& out, const std::vector<double>& plain_ms,
                        const std::vector<double>& traced_ms) {
  const double plain = std::accumulate(plain_ms.begin(), plain_ms.end(), 0.0);
  const double traced =
      std::accumulate(traced_ms.begin(), traced_ms.end(), 0.0);
  out.add("trace.requests", static_cast<double>(traced_ms.size()), "count");
  out.add("trace.overhead_share", plain > 0.0 ? traced / plain - 1.0 : 0.0,
          "share");
}

Served serve_one(stripack::service::SolverService& service,
                 const std::string& request_text, Tracer& tracer,
                 std::uint64_t request) {
  Served out;
  const std::int64_t start = now_ns();
  {
    const Scope root(tracer, "request", request);
    {
      const Scope s(tracer, "io.parse", request, root.id());
      std::istringstream is(request_text);
      out.instance = stripack::io::read_instance(is);
    }
    {
      const Scope s(tracer, "service.enqueue", request, root.id());
      (void)service.enqueue(out.instance);
    }
    std::vector<stripack::service::ServiceResponse> responses;
    {
      const Scope s(tracer, "service.run", request, root.id());
      responses = service.run();
    }
    if (responses.size() != 1) {
      throw std::runtime_error("service returned " +
                               std::to_string(responses.size()) +
                               " responses for one request");
    }
    out.response = std::move(responses.front());
    {
      const Scope s(tracer, "io.write", request, root.id());
      std::ostringstream os;
      stripack::service::SolverService::write_response(os, out.response);
      out.response_text = os.str();
    }
  }
  out.latency_ms = static_cast<double>(now_ns() - start) * 1e-6;
  return out;
}

ReleaseReplay replay_release(const stripack::Instance& lp_instance,
                             const stripack::Instance& instance,
                             Tracer& tracer, std::uint64_t request) {
  ReleaseReplay out;
  const Scope replay(tracer, "release.replay", request);
  stripack::release::ConfigLpProblem problem;
  {
    const Scope s(tracer, "release.make_problem", request, replay.id());
    problem = stripack::release::make_problem(lp_instance);
  }
  {
    const Scope s(tracer, "release.root_lp", request, replay.id());
    stripack::release::ConfigLpOptions lp = stripack::bnp::BnpOptions{}.lp;
    lp.use_pricing_cache = true;
    stripack::release::ConfigLpSolver solver(problem, lp);
    (void)solver.solve();
    out.root_dfs_expansions = solver.pricing_stats().dfs_expansions;
  }
  {
    const Scope s(tracer, "release.skyline", request, replay.id());
    out.skyline_height =
        stripack::release::release_skyline_greedy(instance).height();
  }
  return out;
}

}  // namespace perfbench
