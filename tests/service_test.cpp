// Solver-service contract tests: bitwise replay at any worker count,
// warm-pool/cold equivalence of certified results, deterministic
// admission degradation into anytime brackets, and error responses (not
// dead workers) for unservable or malformed requests.
#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>
#include <vector>

#include "core/validate.hpp"
#include "gen/hard_integral.hpp"
#include "io/instance_io.hpp"
#include "service/solver_service.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace stripack::service {
namespace {

Instance make(const std::vector<std::array<double, 3>>& rows,
              double strip) {
  std::vector<Item> items;
  items.reserve(rows.size());
  for (const std::array<double, 3>& r : rows) {
    items.push_back(Item{Rect{r[0], r[1]}, r[2]});
  }
  return Instance(std::move(items), strip);
}

// A small mixed stream: two width/release classes, a permuted and a
// width-rescaled duplicate (cache hits), and a same-class demand change
// (a warm re-solve).
std::vector<Instance> mixed_requests() {
  std::vector<Instance> out;
  out.push_back(make({{4, 2, 0}, {6, 2, 0}, {4, 3, 0}, {6, 3, 0}}, 10));
  // Permuted + rescaled copy of request 0 (same canonical key).
  out.push_back(make({{12, 3, 0}, {8, 2, 0}, {12, 2, 0}, {8, 3, 0}}, 20));
  // Same class as request 0, different demand.
  out.push_back(make({{4, 1, 0}, {6, 4, 0}, {6, 1, 0}}, 10));
  // A released class.
  out.push_back(make({{4, 2, 1}, {6, 2, 0}, {6, 1, 2}}, 10));
  // Exact duplicate of request 0.
  out.push_back(make({{4, 2, 0}, {6, 2, 0}, {4, 3, 0}, {6, 3, 0}}, 10));
  // Released class again, different demand.
  out.push_back(make({{4, 1, 1}, {6, 2, 0}, {6, 2, 2}}, 10));
  return out;
}

std::string request_stream() {
  std::ostringstream os;
  for (const Instance& instance : mixed_requests()) {
    io::write_instance(os, instance);
    os << "\n";
  }
  return os.str();
}

TEST(SolverService, ServeStreamIsBitwiseIdenticalAtAnyWorkerCount) {
  const std::string requests = request_stream();
  std::string baseline;
  for (const int workers : {1, 2, 4}) {
    ServiceOptions options;
    options.workers = workers;
    SolverService service(options);
    std::istringstream is(requests);
    std::ostringstream os;
    const std::size_t served = service.serve_stream(is, os);
    EXPECT_EQ(served, mixed_requests().size());
    if (baseline.empty()) {
      baseline = os.str();
    } else {
      EXPECT_EQ(os.str(), baseline) << "workers=" << workers;
    }
  }
  EXPECT_NE(baseline.find("stripack-response v1"), std::string::npos);
  EXPECT_NE(baseline.find("cache hit"), std::string::npos);
}

TEST(SolverService, RepeatedRunsReplayIdentically) {
  const std::string requests = request_stream();
  std::string first;
  for (int round = 0; round < 2; ++round) {
    SolverService service;
    std::istringstream is(requests);
    std::ostringstream os;
    (void)service.serve_stream(is, os);
    if (round == 0) {
      first = os.str();
    } else {
      EXPECT_EQ(os.str(), first);
    }
  }
}

TEST(SolverService, WarmPoolMatchesColdCertifiedResults) {
  const std::vector<Instance> requests = mixed_requests();
  ServiceOptions warm_options;
  ServiceOptions cold_options;
  cold_options.warm_pool = false;
  SolverService warm(warm_options);
  SolverService cold(cold_options);
  for (const Instance& instance : requests) {
    (void)warm.enqueue(instance);
    (void)cold.enqueue(instance);
  }
  const std::vector<ServiceResponse> warm_responses = warm.run();
  const std::vector<ServiceResponse> cold_responses = cold.run();
  ASSERT_EQ(warm_responses.size(), requests.size());
  ASSERT_EQ(cold_responses.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const ServiceResponse& w = warm_responses[i];
    const ServiceResponse& c = cold_responses[i];
    ASSERT_TRUE(w.ok) << w.error;
    ASSERT_TRUE(c.ok) << c.error;
    // Both arms certify the same optimum; the incumbent *placement* may
    // legitimately differ (different search paths reach different
    // optimal packings), the certificate may not.
    EXPECT_EQ(w.status, bnp::BnpStatus::Optimal);
    EXPECT_EQ(c.status, bnp::BnpStatus::Optimal);
    EXPECT_DOUBLE_EQ(w.height, c.height) << "request " << i;
    EXPECT_DOUBLE_EQ(w.dual_bound, c.dual_bound) << "request " << i;
    EXPECT_EQ(w.cache_hit, c.cache_hit) << "request " << i;
  }
  // The warm pool actually engaged: every non-cache-hit request after a
  // class's first solve ran on an already-warm master.
  EXPECT_GT(warm.stats().warm_roots, 0u);
  EXPECT_EQ(cold.stats().warm_roots, 0u);
}

TEST(SolverService, PlacementsAreValidInRequestUnits) {
  const std::vector<Instance> requests = mixed_requests();
  SolverService service;
  for (const Instance& instance : requests) {
    (void)service.enqueue(instance);
  }
  const std::vector<ServiceResponse> responses = service.run();
  ASSERT_EQ(responses.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(responses[i].ok) << responses[i].error;
    EXPECT_TRUE(
        testing::placement_valid(requests[i], responses[i].placement))
        << "request " << i;
  }
}

TEST(SolverService, AdmissionDegradesToCertifiedBrackets) {
  // Four same-class requests with a known LP/IP gap; the third and
  // fourth join a backlog of >= 2 and are admitted degraded with a
  // one-node budget. Overload must degrade to a certified anytime
  // bracket — never an error, never an uncertified answer.
  ServiceOptions options;
  options.backlog_threshold = 2;
  options.degraded_node_budget = 1;
  // Keep the root from closing the gap by luck: no rounding incumbent,
  // no strong branching.
  options.bnp.rounding_incumbent = false;
  options.bnp.strong_branching_probes = 0;
  SolverService service(options);
  for (const std::size_t k : {2u, 3u, 4u, 5u}) {
    (void)service.enqueue(gen::hard_integral_family(k).instance);
  }
  const std::vector<ServiceResponse> responses = service.run();
  ASSERT_EQ(responses.size(), 4u);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const ServiceResponse& r = responses[i];
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.degraded, i >= 2) << "request " << i;
    EXPECT_LE(r.dual_bound, r.height + 1e-9) << "request " << i;
    if (i < 2) {
      // Normal admission: certified optimum ip_height = k + 1.
      EXPECT_EQ(r.status, bnp::BnpStatus::Optimal) << "request " << i;
      EXPECT_DOUBLE_EQ(r.height, static_cast<double>(i + 2) + 1.0);
    } else {
      // Degraded: the one-node budget cannot close the gap, so the
      // response is an honest NodeLimit bracket.
      EXPECT_EQ(r.status, bnp::BnpStatus::NodeLimit) << "request " << i;
      EXPECT_LT(r.dual_bound, r.height) << "request " << i;
    }
  }
  EXPECT_EQ(service.stats().degraded, 2u);
}

TEST(SolverService, UnservableRequestsGetErrorResponses) {
  SolverService service;
  // Empty instance.
  (void)service.enqueue(Instance());
  // Precedence DAG.
  Instance prec;
  const VertexId a = prec.add_item(0.5, 1.0);
  const VertexId b = prec.add_item(0.25, 1.0);
  prec.add_precedence(a, b);
  (void)service.enqueue(prec);
  // Non-integer height (outside the bnp contract).
  (void)service.enqueue(make({{4, 2.5, 0}}, 10));
  // One servable request among the rejects.
  (void)service.enqueue(make({{4, 2, 0}}, 10));
  const std::vector<ServiceResponse> responses = service.run();
  ASSERT_EQ(responses.size(), 4u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(responses[i].ok) << "request " << i;
    EXPECT_FALSE(responses[i].error.empty()) << "request " << i;
  }
  EXPECT_TRUE(responses[3].ok) << responses[3].error;
  EXPECT_EQ(service.stats().errors, 3u);
  EXPECT_EQ(service.stats().requests, 4u);
}

TEST(SolverService, ServeStreamReportsMalformedDocumentAndStops) {
  std::ostringstream req;
  io::write_instance(req, make({{4, 2, 0}, {6, 2, 0}}, 10));
  req << "\nstripack-instance v1\nstrip_width 0\nitems 1\n1 1 0\nedges 0\n";
  std::istringstream is(req.str());
  std::ostringstream os;
  SolverService service;
  const std::size_t served = service.serve_stream(is, os);
  EXPECT_EQ(served, 2u);
  const std::string out = os.str();
  EXPECT_NE(out.find("request 0\nstatus optimal"), std::string::npos)
      << out;
  EXPECT_NE(out.find("request 1\nstatus error"), std::string::npos) << out;
  EXPECT_NE(out.find("strip_width"), std::string::npos) << out;
}

// The request stream of perfbench's `mixed_served` workload
// (perfbench/driver/mixed_served.cpp): request i is a fresh instance of
// 6-11 items, widths in {0.1, ..., 0.6}, integer heights 1-4 and
// releases 0-2, drawn from a SplitMix64-derived seed and sent as text.
Instance mixed_served_request(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + i + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  Rng rng(z ^ (z >> 31));
  Instance instance;
  const auto n = rng.uniform_int(6, 11);
  for (std::int64_t k = 0; k < n; ++k) {
    const double width = 0.1 * static_cast<double>(rng.uniform_int(1, 6));
    const auto height = static_cast<double>(rng.uniform_int(1, 4));
    const auto release = static_cast<double>(rng.uniform_int(0, 2));
    (void)instance.add_item(width, height, release);
  }
  std::ostringstream os;
  io::write_instance(os, instance);
  std::istringstream is(os.str());
  return io::read_instance(is);
}

TEST(SolverService, WarmPoolReplayCertifiesEveryRequest) {
  // Seed 2, requests 0-374, one at a time through one service: the warm
  // class masters' dual re-solves hit long zero-step dual cycles on this
  // stream (m = 127), which without the dual simplex's Bland fallback end
  // in IterationLimit — a Stalled answer or a "left the warm path"
  // solver error at request 374. Every request must come back certified.
  SolverService service;
  for (std::uint64_t i = 0; i <= 374; ++i) {
    (void)service.enqueue(mixed_served_request(2, i));
    const std::vector<ServiceResponse> responses = service.run();
    ASSERT_EQ(responses.size(), 1u);
    const ServiceResponse& r = responses.front();
    ASSERT_TRUE(r.ok) << "request " << i << ": " << r.error;
    EXPECT_EQ(r.status, bnp::BnpStatus::Optimal) << "request " << i;
    EXPECT_NEAR(r.height, r.dual_bound, 1e-6) << "request " << i;
  }
}

}  // namespace
}  // namespace stripack::service
