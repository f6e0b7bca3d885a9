// mixed_served: a diverse release-time stream through an in-process
// `SolverService`, closed loop with one caller and one request at a time.
//
// Every request is a fresh seeded instance (6-11 items, widths in
// {0.1, ..., 0.6}, integer heights 1-4, releases 0-2), so request classes
// are many, demand varies and the result cache rarely hits: per-request
// work and the quality gap between the returned packing and the
// certified bound dominate.
#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "io/instance_io.hpp"
#include "service/canonical.hpp"
#include "service/solver_service.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using stripack::service::ServiceResponse;
using stripack::service::SolverService;

std::string make_request(std::uint64_t seed, std::uint64_t i) {
  stripack::Rng rng(derive_seed(seed, i));
  stripack::Instance instance;
  const auto n = rng.uniform_int(6, 11);
  for (std::int64_t k = 0; k < n; ++k) {
    const double width = 0.1 * static_cast<double>(rng.uniform_int(1, 6));
    const auto height = static_cast<double>(rng.uniform_int(1, 4));
    const auto release = static_cast<double>(rng.uniform_int(0, 2));
    (void)instance.add_item(width, height, release);
  }
  std::ostringstream os;
  stripack::io::write_instance(os, instance);
  return os.str();
}

struct Pass {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t optimal = 0;
  std::size_t invalid = 0;
  double ratio_sum = 0.0;
  double slice_ratio_sum = 0.0;
  double skyline_ratio_sum = 0.0;
  std::size_t worse_than_skyline = 0;
  std::int64_t root_dfs_expansions = 0;
  double request_bytes = 0.0;
  double response_bytes = 0.0;
  std::vector<double> latency_ms;
  double elapsed_s = 0.0;
  stripack::service::ServiceStats stats;
};

/// Serves requests 0, 1, ... until `count` are done or `seconds` elapsed
/// (whichever limit is set) and checks every answer. `replay` adds the
/// release-layer replay and the skyline reference per request. Set-ups of
/// `setups` (if given) run between requests, outside the timed part.
Pass run_pass(const RunOptions& o, std::size_t count, double seconds,
              bool replay, Tracer& tracer, SetupClock* setups = nullptr) {
  Pass p;
  SolverService service;
  const std::int64_t start = now_ns();
  std::int64_t paused_ns = 0;
  for (std::uint64_t i = 0;; ++i) {
    const double elapsed =
        static_cast<double>(now_ns() - start - paused_ns) * 1e-9;
    if (count > 0 ? i >= count : elapsed >= seconds) break;
    if (setups != nullptr) paused_ns += setups->tick(elapsed / seconds);
    const std::string text = make_request(o.seed, i);
    const Served s = serve_one(service, text, tracer, i);
    p.latency_ms.push_back(s.latency_ms);
    ++p.attempted;
    p.request_bytes += static_cast<double>(text.size());
    p.response_bytes += static_cast<double>(s.response_text.size());
    const ServiceResponse& r = s.response;
    if (!r.ok) {
      ++p.failed;
      std::fprintf(stderr, "request %llu failed: %s\n",
                   static_cast<unsigned long long>(i), r.error.c_str());
      continue;
    }
    if (r.status == stripack::bnp::BnpStatus::Optimal) ++p.optimal;
    AnswerCheck c;
    {
      const Scope check(tracer, "core.validate", i);
      c = check_answer(s.instance, r.placement, r.height, r.dual_bound);
    }
    if (!c.placement_valid) ++p.invalid;
    if (!c.ok) {
      ++p.failed;
      std::fprintf(stderr, "check failed on request %llu: %s\n",
                   static_cast<unsigned long long>(i), c.why.c_str());
      continue;
    }
    p.ratio_sum += c.realized / r.dual_bound;
    p.slice_ratio_sum += c.realized / r.height;
    if (replay) {
      const ReleaseReplay rr = replay_release(
          stripack::service::canonicalize(s.instance).instance, s.instance,
          tracer, i);
      p.root_dfs_expansions += rr.root_dfs_expansions;
      p.skyline_ratio_sum += rr.skyline_height / r.dual_bound;
      if (c.realized > rr.skyline_height + 1e-9) ++p.worse_than_skyline;
    }
  }
  p.elapsed_s = static_cast<double>(now_ns() - start - paused_ns) * 1e-9;
  p.stats = service.stats();
  return p;
}

Counters counters_of(const Pass& p) {
  const auto n = static_cast<double>(p.attempted);
  return {
      {"service.cache_hit_ratio",
       share(static_cast<double>(p.stats.cache_hits), n)},
      {"service.warm_root_share",
       share(static_cast<double>(p.stats.warm_roots), n)},
      {"service.classes", static_cast<double>(p.stats.classes)},
      {"release.root_dfs_expansions",
       static_cast<double>(p.root_dfs_expansions)},
      {"realized_over_bound", p.ratio_sum},
  };
}

}  // namespace

Outcome run_mixed_served(const RunOptions& o) {
  Outcome out;
  SetupClock setups([&] {
    // Build the first inputs and warm a throwaway service on a fixed
    // stream, so the measured service starts cold but the process does not.
    for (std::uint64_t i = 0; i < 64; ++i) (void)make_request(o.seed, i);
    Tracer off(false);
    SolverService warm;
    for (std::uint64_t i = 0; i < 16; ++i) {
      (void)serve_one(warm, make_request(0, i), off, i);
    }
  });
  (void)setups.tick(0.0);

  if (!o.trace) {
    Tracer off(false);
    const Pass p = run_pass(o, 0, o.seconds, false, off, &setups);
    setups.finish();
    const auto n = static_cast<double>(p.attempted);
    const Tail tail = supported_tail(p.latency_ms);
    out.attempted = p.attempted;
    out.failed = p.failed;
    out.add("throughput_per_s", n / p.elapsed_s, "1/s");
    out.add("latency_p50_ms", median(p.latency_ms), "ms");
    out.add("realized_over_bound",
            share(p.ratio_sum, n - static_cast<double>(p.failed)), "ratio");
    out.add("certified_share", share(static_cast<double>(p.optimal), n),
            "share");
    out.add("setup_s", setups.median_s(), "s");
    out.notes.push_back(format(
        "latency_tail_ms %.6g ms (p%g of %zu requests); failed_share %.6g",
        tail.value, tail.percentile, tail.samples,
        share(static_cast<double>(p.failed), n)));
    return out;
  }

  // Traced run: the same fixed request prefix twice on fresh services,
  // untraced then traced; counters must repeat exactly.
  const auto count = static_cast<std::size_t>(o.seconds * 15.0);
  Tracer off(false);
  const Pass plain = run_pass(o, count, 0.0, true, off);
  Tracer tracer(true);
  const Pass traced = run_pass(o, count, 0.0, true, tracer);
  require_same_counters(counters_of(plain), counters_of(traced), out);
  out.attempted = plain.attempted + traced.attempted;
  out.failed = plain.failed + traced.failed;

  const SpanTable spans = tracer.summarize();
  const auto n = static_cast<double>(traced.attempted);
  const stripack::service::ServiceStats& st = traced.stats;
  out.add("service.enqueue_us", span_mean_ms(spans, "service.enqueue", true) * 1e3,
          "us");
  out.add("service.run_ms", span_mean_ms(spans, "service.run", true), "ms");
  out.add("service.cache_hit_ratio", share(static_cast<double>(st.cache_hits), n),
          "ratio");
  out.add("service.warm_root_share", share(static_cast<double>(st.warm_roots), n),
          "share");
  out.add("service.classes", static_cast<double>(st.classes), "count");
  out.add("service.degraded_share", share(static_cast<double>(st.degraded), n),
          "share");
  out.add("service.errors", static_cast<double>(st.errors), "count");
  out.add("io.parse_us", span_mean_ms(spans, "io.parse", true) * 1e3, "us");
  out.add("io.write_us", span_mean_ms(spans, "io.write", true) * 1e3, "us");
  out.add("io.request_bytes", share(traced.request_bytes, n), "bytes");
  out.add("io.response_bytes", share(traced.response_bytes, n), "bytes");
  out.add("release.make_problem_ms",
          span_mean_ms(spans, "release.make_problem", true), "ms");
  out.add("release.root_lp_ms", span_mean_ms(spans, "release.root_lp", true),
          "ms");
  out.add("release.root_dfs_expansions",
          static_cast<double>(traced.root_dfs_expansions), "count");
  out.add("release.realized_over_slice", share(traced.slice_ratio_sum, n),
          "ratio");
  out.add("release.skyline_over_bound", share(traced.skyline_ratio_sum, n),
          "ratio");
  out.add("release.worse_than_skyline_share",
          share(static_cast<double>(traced.worse_than_skyline), n), "share");
  out.add("core.validate_ms", span_mean_ms(spans, "core.validate", true),
          "ms");
  out.add("core.invalid_placements",
          static_cast<double>(plain.invalid + traced.invalid), "count");
  add_trace_overhead(out, plain.latency_ms, traced.latency_ms);
  if (!o.trace_out.empty()) tracer.write(o.trace_out);
  return out;
}

}  // namespace perfbench
