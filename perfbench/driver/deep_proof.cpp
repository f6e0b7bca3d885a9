// deep_proof: exact branch and price on hard integral instances.
//
// Each input is `gen::hard_integral_jittered(k=4, bursts=2, spacing=5)`
// with an instance seed derived from the workload seed, solved by
// `bnp::solve` with default options and a node budget far above the
// tree. The generator's certificate gives the optimum independently of
// the solver. Heights are unit, so Lemma 3.4 realizes the slice optimum
// exactly and realized_over_bound is 1.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bnp/solver.hpp"
#include "common.hpp"
#include "gen/hard_integral.hpp"

namespace perfbench {
namespace {

using stripack::bnp::BnpResult;
using stripack::bnp::BnpStatus;

constexpr std::size_t kK = 4;
constexpr std::size_t kBursts = 2;
constexpr double kSpacing = 5.0;
constexpr std::size_t kNodeBudget = 1'000'000;
constexpr std::size_t kWarmK = 3;  // the set-up's smaller warm-up proof

stripack::gen::HardIntegralInstance make_input(std::uint64_t seed,
                                               std::size_t i) {
  return stripack::gen::hard_integral_jittered(kK, kBursts, kSpacing,
                                               derive_seed(seed, i));
}

stripack::bnp::BnpOptions solve_options() {
  stripack::bnp::BnpOptions options;
  options.budget.max_nodes = kNodeBudget;
  return options;
}

struct Pass {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t optimal = 0;
  double ratio_sum = 0.0;      // realized height / dual_bound
  double slice_ratio_sum = 0.0;  // realized height / height
  double skyline_ratio_sum = 0.0;
  std::size_t worse_than_skyline = 0;
  std::int64_t root_dfs_expansions = 0;
  std::vector<double> latency_ms;
  double elapsed_s = 0.0;
  std::size_t invalid = 0;
  BnpResult totals;  // counters summed over the pass
};

void accumulate(BnpResult& t, const BnpResult& r) {
  t.nodes += r.nodes;
  t.nodes_created += r.nodes_created;
  t.columns += r.columns;
  t.lp_iterations += r.lp_iterations;
  t.dual_iterations += r.dual_iterations;
  t.warm_phase1_iterations += r.warm_phase1_iterations;
  t.farkas_columns += r.farkas_columns;
  t.cutoff_pruned_nodes += r.cutoff_pruned_nodes;
  t.strong_branch_probes += r.strong_branch_probes;
  t.lp_refactor_retries += r.lp_refactor_retries;
  t.lp_residual_repairs += r.lp_residual_repairs;
  t.lp_cold_restarts += r.lp_cold_restarts;
  t.master_failovers += r.master_failovers;
  t.node_retries += r.node_retries;
  t.nogoods_learned += r.nogoods_learned;
  t.nogood_prunes += r.nogood_prunes;
  t.propagation_prunes += r.propagation_prunes;
  t.pricing_dfs_expansions += r.pricing_dfs_expansions;
  t.pricing_cache_probes += r.pricing_cache_probes;
  t.pricing_cache_hits += r.pricing_cache_hits;
}

/// Solves inputs 0, 1, ... until `count` are done or `seconds` elapsed
/// (whichever limit is set), checking every answer. `replay` adds the
/// release-layer replay and the skyline reference per input. Set-ups of
/// `setups` (if given) run between inputs, outside the timed part.
Pass run_pass(const RunOptions& o, std::size_t count, double seconds,
              bool replay, Tracer& tracer, SetupClock* setups = nullptr) {
  Pass p;
  const std::int64_t start = now_ns();
  std::int64_t paused_ns = 0;
  for (std::size_t i = 0;; ++i) {
    const double elapsed =
        static_cast<double>(now_ns() - start - paused_ns) * 1e-9;
    if (count > 0 ? i >= count : elapsed >= seconds) break;
    if (setups != nullptr) paused_ns += setups->tick(elapsed / seconds);
    const stripack::gen::HardIntegralInstance input = make_input(o.seed, i);
    BnpResult r;
    const std::int64_t t0 = now_ns();
    {
      const Scope request(tracer, "request", i);
      const Scope solve(tracer, "bnp.solve", i, request.id());
      r = stripack::bnp::solve(input.instance, solve_options());
    }
    p.latency_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    ++p.attempted;
    if (r.status == BnpStatus::Optimal) ++p.optimal;
    accumulate(p.totals, r);

    AnswerCheck c;
    {
      const Scope check(tracer, "core.validate", i);
      c = check_answer(input.instance, r.packing.placement, r.height,
                       r.dual_bound);
    }
    if (!c.placement_valid) ++p.invalid;
    if (c.ok && r.height != input.certificate.ip_height) {
      c.ok = false;
      c.why = "height " + std::to_string(r.height) +
              " differs from the certified optimum " +
              std::to_string(input.certificate.ip_height);
    }
    if (!c.ok) {
      ++p.failed;
      std::fprintf(stderr, "check failed on input %zu: %s\n", i,
                   c.why.c_str());
      continue;
    }
    p.ratio_sum += c.realized / r.dual_bound;
    p.slice_ratio_sum += c.realized / r.height;
    if (replay) {
      const ReleaseReplay replay =
          replay_release(input.instance, input.instance, tracer, i);
      p.root_dfs_expansions += replay.root_dfs_expansions;
      p.skyline_ratio_sum += replay.skyline_height / r.dual_bound;
      if (c.realized > replay.skyline_height + 1e-9) ++p.worse_than_skyline;
    }
  }
  p.elapsed_s = static_cast<double>(now_ns() - start - paused_ns) * 1e-9;
  return p;
}

/// Node re-solves must stay on the warm dual path: any phase-1 pivot
/// there marks the run incorrect.
void require_warm_path(const Pass& p, Outcome& out) {
  if (p.totals.warm_phase1_iterations == 0) return;
  std::fprintf(stderr, "error: lp.warm_phase1_pivots is %lld, must be 0\n",
               static_cast<long long>(p.totals.warm_phase1_iterations));
  out.correct = false;
}

Counters counters_of(const Pass& p) {
  const BnpResult& t = p.totals;
  return {
      {"bnp.nodes", static_cast<double>(t.nodes)},
      {"bnp.nodes_created", static_cast<double>(t.nodes_created)},
      {"bnp.pricing_dfs_expansions",
       static_cast<double>(t.pricing_dfs_expansions)},
      {"lp.dual_pivots", static_cast<double>(t.dual_iterations)},
      {"lp.primal_pivots", static_cast<double>(t.lp_iterations)},
      {"release.root_dfs_expansions",
       static_cast<double>(p.root_dfs_expansions)},
      {"realized_over_bound", p.ratio_sum},
  };
}

}  // namespace

Outcome run_deep_proof(const RunOptions& o) {
  Outcome out;
  SetupClock setups([&] {
    // Build the first input and warm the solver on a smaller proof, the
    // same for every seed so that set-up time does not vary with it.
    (void)make_input(o.seed, 0);
    const stripack::gen::HardIntegralInstance warm =
        stripack::gen::hard_integral_jittered(kWarmK, kBursts, kSpacing);
    (void)stripack::bnp::solve(warm.instance, solve_options());
  });
  (void)setups.tick(0.0);

  if (!o.trace) {
    Tracer off(false);
    const Pass p = run_pass(o, 0, o.seconds, false, off, &setups);
    setups.finish();
    require_warm_path(p, out);
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
    out.notes.push_back(format("latency_tail_ms %.6g ms (p%g of %zu instances)",
                               tail.value, tail.percentile, tail.samples));
    return out;
  }

  // Traced run: the same fixed inputs twice, untraced then traced. The
  // counters must repeat exactly; the time difference is the tracing
  // overhead.
  const std::size_t count =
      std::max<std::size_t>(2, static_cast<std::size_t>(o.seconds / 6.0));
  Tracer off(false);
  const Pass plain = run_pass(o, count, 0.0, true, off);
  Tracer tracer(true);
  const Pass traced = run_pass(o, count, 0.0, true, tracer);
  require_same_counters(counters_of(plain), counters_of(traced), out);
  require_warm_path(plain, out);
  require_warm_path(traced, out);
  out.attempted = plain.attempted + traced.attempted;
  out.failed = plain.failed + traced.failed;

  const SpanTable spans = tracer.summarize();
  const BnpResult& t = traced.totals;
  const auto nodes = static_cast<double>(t.nodes);
  const auto n = static_cast<double>(traced.attempted);
  const double solve_ms = span_mean_ms(spans, "bnp.solve", false) *
                          static_cast<double>(traced.attempted);
  out.add("bnp.nodes", nodes, "count");
  out.add("bnp.nodes_created", static_cast<double>(t.nodes_created), "count");
  out.add("bnp.ms_per_node", share(solve_ms, nodes), "ms");
  out.add("bnp.cutoff_pruned_share",
          share(static_cast<double>(t.cutoff_pruned_nodes), nodes), "share");
  out.add("bnp.nogoods_learned", static_cast<double>(t.nogoods_learned),
          "count");
  out.add("bnp.nogood_prunes", static_cast<double>(t.nogood_prunes), "count");
  out.add("bnp.propagation_prunes", static_cast<double>(t.propagation_prunes),
          "count");
  out.add("bnp.strong_branch_probes",
          static_cast<double>(t.strong_branch_probes), "count");
  out.add("bnp.pricing_dfs_expansions",
          static_cast<double>(t.pricing_dfs_expansions), "count");
  out.add("bnp.pricing_cache_hit_ratio",
          share(static_cast<double>(t.pricing_cache_hits),
                static_cast<double>(t.pricing_cache_probes)),
          "ratio");
  out.add("bnp.columns", static_cast<double>(t.columns), "count");
  out.add("bnp.farkas_columns", static_cast<double>(t.farkas_columns),
          "count");
  out.add("lp.dual_pivots", static_cast<double>(t.dual_iterations), "count");
  out.add("lp.primal_pivots", static_cast<double>(t.lp_iterations), "count");
  out.add("lp.warm_phase1_pivots",
          static_cast<double>(t.warm_phase1_iterations), "count");
  out.add("lp.recovery_events",
          static_cast<double>(t.lp_refactor_retries + t.lp_residual_repairs +
                              t.lp_cold_restarts + t.master_failovers +
                              t.node_retries),
          "count");
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
