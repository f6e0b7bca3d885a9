// tcp_similar: an open loop over loopback into an in-process
// `StripackServer`.
//
// Requests come from three fixed classes (shared widths and releases);
// per request, the class and the demand are drawn from the seed. Half
// the draws come from a small per-class hot set, so part of the stream
// repeats and is answered from the result cache; the rest are warm
// rhs-only re-solves on the class master. A single generator thread keeps
// at most two non-blocking connections, sends each request when it is
// due (or as soon as a connection frees up) and times it from when it
// was due.
//
// An untraced run measures a reference window at the reference rate
// (latency p50 and tail), offers the top ladder rate to read the delivered
// (saturated) throughput, and probes the fixed rate ladder for the highest
// rate whose median latency meets the limit. The reference window and the
// saturation step are cut into pieces spread over the run.
#include <poll.h>
#include <sys/prctl.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "io/instance_io.hpp"
#include "service/canonical.hpp"
#include "service/net/client.hpp"
#include "service/net/server.hpp"
#include "service/solver_service.hpp"
#include "util/net.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace net = stripack::service::net;
namespace util = stripack::util;

constexpr std::size_t kConnections = 2;
constexpr std::size_t kHotPerClass = 8;
constexpr double kHotShare = 0.5;
constexpr double kReferenceSeconds = 12.0;  // the whole reference window
constexpr double kStepSeconds = 3.0;        // one ladder step
constexpr double kTailPercentile = 90.0;    // the tail reported
constexpr double kLimitPercentile = 50.0;   // the percentile held to the limit

struct Request {
  stripack::Instance instance;
  std::string text;   // stripack-instance v1 document
  std::string frame;  // text behind its 8-byte frame header
};

/// Request `k` of the stream: class and demand drawn from the seed.
Request make_request(std::uint64_t seed, std::uint64_t k) {
  struct Template {
    double widths[5];
    double releases[5];
  };
  static constexpr Template kClasses[3] = {
      {{4, 6, 4, 6, 4}, {0, 0, 0, 0, 0}},
      {{3, 5, 7, 3, 5}, {0, 0, 0, 0, 0}},
      {{4, 6, 4, 6, 6}, {0, 2, 2, 0, 2}},
  };
  stripack::Rng rng(derive_seed(seed, k));
  const auto c = static_cast<std::size_t>(rng.uniform_int(0, 2));
  // Hot draws replay one of the class's fixed demand vectors.
  std::optional<stripack::Rng> hot;
  if (rng.uniform() < kHotShare) {
    const auto h = static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kHotPerClass) - 1));
    hot.emplace(derive_seed(~seed, c * kHotPerClass + h));
  }
  stripack::Rng& heights = hot ? *hot : rng;
  Request r;
  std::vector<stripack::Item> items;
  for (std::size_t i = 0; i < 5; ++i) {
    const auto h = static_cast<double>(heights.uniform_int(1, 4));
    items.push_back(stripack::Item{stripack::Rect{kClasses[c].widths[i], h},
                                   kClasses[c].releases[i]});
  }
  r.instance = stripack::Instance(std::move(items), 10.0);
  std::ostringstream os;
  stripack::io::write_instance(os, r.instance);
  r.text = os.str();
  r.frame = util::encode_frame(r.text);
  return r;
}

/// A `StripackServer` running its epoll loop on its own thread.
class Server {
 public:
  Server() : server_(net::ServerOptions{}) {
    port_ = server_.start();
    loop_ = std::thread([this] { (void)server_.run(); });
  }
  ~Server() {
    server_.request_drain();
    loop_.join();
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] net::ServerStats stats() const { return server_.stats(); }

 private:
  net::StripackServer server_;
  std::uint16_t port_ = 0;
  std::thread loop_;
};

/// One request's trip through the open loop.
struct Exchange {
  std::size_t request = 0;    // index into the stream
  std::int64_t due_ns = 0;
  std::int64_t noticed_ns = 0;  // when the generator saw it was due
  std::int64_t sent_ns = 0;     // first byte handed to the socket
  std::int64_t done_ns = 0;     // last response byte read (0: never)
  std::string body;

  [[nodiscard]] double latency_ms() const {
    return static_cast<double>(done_ns - due_ns) * 1e-6;
  }
};

/// Single-threaded open-loop generator over at most two connections.
class Generator {
 public:
  explicit Generator(std::uint16_t port) : port_(port) {}

  /// Offers `count` requests of `stream`, starting at `first` and
  /// wrapping around, at `rate` per second, then waits up to `drain_s` for the last responses.
  /// Exchanges still unanswered then are abandoned (done_ns stays 0).
  std::vector<Exchange> run(const std::vector<Request>& stream,
                            std::size_t first, std::size_t count,
                            double rate, double drain_s);

 private:
  struct Conn {
    util::Fd fd;
    std::optional<std::size_t> exchange;  // in flight
    const std::string* out = nullptr;
    std::size_t out_pos = 0;
    std::array<char, util::kFrameHeaderBytes> header{};
    std::size_t header_got = 0;
    std::uint32_t body_len = 0;
    std::string body;
  };

  void connect(Conn& c) const {
    c = Conn{};
    c.fd = util::connect_tcp("127.0.0.1", port_, 5.0);
    if (!util::set_nonblocking(c.fd.get())) {
      throw std::runtime_error("cannot make the client socket non-blocking");
    }
  }
  /// Writes what the socket takes; false on a transport error.
  static bool flush(Conn& c);
  /// Reads what is available; true once a whole response frame is in.
  static bool read(Conn& c, bool& error);

  std::uint16_t port_;
};

bool Generator::flush(Conn& c) {
  while (c.out != nullptr && c.out_pos < c.out->size()) {
    const util::IoResult r = util::write_some(
        c.fd.get(), c.out->data() + c.out_pos, c.out->size() - c.out_pos);
    if (r.kind == util::IoResult::Kind::Ok) {
      c.out_pos += r.bytes;
    } else if (r.kind == util::IoResult::Kind::WouldBlock) {
      return true;
    } else {
      return false;
    }
  }
  return true;
}

bool Generator::read(Conn& c, bool& error) {
  for (;;) {
    util::IoResult r;
    if (c.header_got < c.header.size()) {
      r = util::read_some(c.fd.get(), c.header.data() + c.header_got,
                          c.header.size() - c.header_got);
      if (r.kind == util::IoResult::Kind::Ok) {
        c.header_got += r.bytes;
        if (c.header_got == c.header.size()) {
          if (!util::decode_frame_header(c.header, c.body_len)) {
            error = true;
            return false;
          }
          c.body.clear();
          c.body.reserve(c.body_len);
        }
        continue;
      }
    } else if (c.body.size() < c.body_len) {
      char buf[4096];
      r = util::read_some(c.fd.get(), buf,
                          std::min<std::size_t>(sizeof buf,
                                                c.body_len - c.body.size()));
      if (r.kind == util::IoResult::Kind::Ok) {
        c.body.append(buf, r.bytes);
        continue;
      }
    } else {
      return true;
    }
    if (r.kind != util::IoResult::Kind::WouldBlock) error = true;
    return false;
  }
}

std::vector<Exchange> Generator::run(const std::vector<Request>& stream,
                                     std::size_t first, std::size_t count,
                                     double rate, double drain_s) {
  std::array<Conn, kConnections> conns;
  for (Conn& c : conns) connect(c);
  std::vector<Exchange> ex(count);
  const auto period_ns = static_cast<std::int64_t>(1e9 / rate);
  const std::int64_t start = now_ns() + 1'000'000;
  for (std::size_t j = 0; j < count; ++j) {
    ex[j].request = (first + j) % stream.size();
    ex[j].due_ns = start + static_cast<std::int64_t>(j) * period_ns;
  }
  const std::int64_t give_up =
      ex.back().due_ns + static_cast<std::int64_t>(drain_s * 1e9);
  std::deque<std::size_t> queue;  // due, not yet sent
  std::size_t next = 0;           // next exchange to fall due
  std::size_t done = 0;
  std::array<pollfd, kConnections> fds{};

  while (done < count) {
    std::int64_t now = now_ns();
    if (now > give_up) break;
    while (next < count && ex[next].due_ns <= now) {
      ex[next].noticed_ns = now;
      queue.push_back(next++);
    }
    for (Conn& c : conns) {
      if (c.exchange || queue.empty()) continue;
      const std::size_t j = queue.front();
      queue.pop_front();
      c.exchange = j;
      c.out = &stream[ex[j].request].frame;
      c.out_pos = 0;
      c.header_got = 0;
      c.body_len = 0;
      ex[j].sent_ns = now_ns();
      if (!flush(c)) {  // transport error: the exchange fails, reconnect
        ex[j].done_ns = 0;
        ++done;
        connect(c);
      }
    }
    // Sleep until the next request falls due (spinning when it is near),
    // or until a socket becomes ready.
    now = now_ns();
    std::int64_t wait_ns = give_up - now;
    if (next < count) wait_ns = ex[next].due_ns - now;
    if (!queue.empty()) wait_ns = std::min<std::int64_t>(wait_ns, 1'000'000);
    wait_ns = wait_ns < 200'000 ? 0 : wait_ns - 100'000;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      const Conn& c = conns[i];
      fds[i].fd = c.fd.get();
      fds[i].events = 0;
      if (c.exchange) {
        fds[i].events = POLLIN;
        if (c.out_pos < c.out->size()) fds[i].events |= POLLOUT;
      }
      fds[i].revents = 0;
    }
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                      static_cast<long>(wait_ns % 1'000'000'000)};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) continue;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      Conn& c = conns[i];
      const short revents = fds[i].revents;
      if (!c.exchange || revents == 0) continue;
      bool error = (revents & (POLLERR | POLLNVAL)) != 0;
      if (!error && (revents & POLLOUT) != 0) error = !flush(c);
      bool complete = false;
      if (!error && (revents & (POLLIN | POLLHUP)) != 0) {
        complete = read(c, error);
      }
      if (complete) {
        Exchange& e = ex[*c.exchange];
        e.done_ns = now_ns();
        e.body = std::move(c.body);
        c.body = {};
        c.exchange.reset();
        ++done;
      } else if (error) {
        ++done;  // the exchange stays unanswered
        connect(c);
      }
    }
  }
  return ex;
}

/// The fields of a `stripack-response v1` document the check needs,
/// parsed here rather than by the library.
struct Response {
  bool ok = false;
  bool optimal = false;
  bool cache_hit = false;
  double height = 0.0;
  double dual_bound = 0.0;
  stripack::Placement placement;
  std::string error;
};

Response parse_response(const std::string& body) {
  Response r;
  std::istringstream is(body);
  std::string line;
  std::string word;
  std::size_t items = 0;
  bool saw_end = false;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    ls >> word;
    if (word == "status") {
      ls >> word;
      r.optimal = word == "optimal";
      if (word == "error") r.error = "status error";
    } else if (word == "error") {
      r.error = line;
    } else if (word == "height") {
      ls >> r.height;
    } else if (word == "dual_bound") {
      ls >> r.dual_bound;
    } else if (word == "cache") {
      ls >> word;
      r.cache_hit = word == "hit";
    } else if (word == "items") {
      ls >> items;
      for (std::size_t i = 0; i < items && std::getline(is, line); ++i) {
        std::istringstream ps(line);
        stripack::Position p;
        ps >> p.x >> p.y;
        r.placement.push_back(p);
      }
    } else if (word == "end") {
      saw_end = true;
    }
  }
  r.ok = r.error.empty() && saw_end && r.placement.size() == items;
  if (!r.ok && r.error.empty()) r.error = "truncated response";
  return r;
}

/// Checked outcome of a batch of exchanges.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t optimal = 0;
  std::size_t cache_hits = 0;
  std::size_t invalid = 0;
  double ratio_sum = 0.0;
  std::vector<double> latency_ms;  // answered requests, from due
  std::vector<double> lag_ms;      // due -> noticed by the generator
};

/// Checks every answer of a window into `t`; returns, per exchange,
/// whether it was answered and passed the check.
std::vector<bool> check_exchanges(const std::vector<Request>& stream,
                                  const std::vector<Exchange>& ex, Tally& t) {
  std::vector<bool> good(ex.size(), false);
  for (std::size_t j = 0; j < ex.size(); ++j) {
    const Exchange& e = ex[j];
    ++t.attempted;
    if (e.done_ns == 0) {
      ++t.failed;
      continue;
    }
    t.latency_ms.push_back(e.latency_ms());
    t.lag_ms.push_back(static_cast<double>(e.noticed_ns - e.due_ns) * 1e-6);
    const Request& req = stream[e.request];
    const Response r = parse_response(e.body);
    if (!r.ok) {
      ++t.failed;
      std::fprintf(stderr, "request %zu failed: %s\n", e.request,
                   r.error.c_str());
      continue;
    }
    if (r.optimal) ++t.optimal;
    if (r.cache_hit) ++t.cache_hits;
    const AnswerCheck c =
        check_answer(req.instance, r.placement, r.height, r.dual_bound);
    if (!c.placement_valid) ++t.invalid;
    if (!c.ok) {
      ++t.failed;
      std::fprintf(stderr, "check failed on request %zu: %s\n", e.request,
                   c.why.c_str());
      continue;
    }
    t.ratio_sum += c.realized / r.dual_bound;
    good[j] = true;
  }
  return good;
}

/// Share of a step's requests answered correctly within `limit_ms`: the
/// median over equal sub-windows of the step (by due time), so a rare
/// scheduling stall on the host does not decide a whole step.
double share_within(const std::vector<Request>& stream,
                    const std::vector<Exchange>& ex, double limit_ms,
                    Tally& t) {
  constexpr std::size_t kSubWindows = 5;
  const std::vector<bool> good = check_exchanges(stream, ex, t);
  std::vector<double> shares;
  const std::size_t per = std::max<std::size_t>(1, ex.size() / kSubWindows);
  for (std::size_t b = 0; b + per <= ex.size(); b += per) {
    std::size_t within = 0;
    for (std::size_t j = b; j < b + per; ++j) {
      // A failed answer misses the limit whatever its latency.
      if (good[j] && ex[j].latency_ms() <= limit_ms) ++within;
    }
    shares.push_back(static_cast<double>(within) / static_cast<double>(per));
  }
  return median(std::move(shares));
}

struct Stream {
  std::vector<Request> requests;
  std::size_t cursor = 0;  // next unused request

  Stream(std::uint64_t seed, std::size_t n) {
    requests.reserve(n);
    for (std::size_t k = 0; k < n; ++k) requests.push_back(make_request(seed, k));
  }
  /// Reserves the next `n` requests (wrapping around); returns the index
  /// of the first.
  std::size_t take(std::size_t n) {
    const std::size_t first = cursor;
    cursor = (cursor + n) % requests.size();
    return first;
  }
};

/// Warms every class master and the hot cache entries with one closed
/// loop pass over the stream's first requests.
void warm_up(Server& server, const Stream& stream, std::size_t n) {
  net::ClientOptions copts;
  copts.port = server.port();
  net::FrameClient client(copts);
  for (std::size_t k = 0; k < n; ++k) {
    const net::ClientResult r = client.request(stream.requests[k].text);
    if (!r.ok) throw std::runtime_error("warm-up request failed: " + r.error);
  }
}

std::size_t count_for(double rate, double seconds) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(rate * seconds));
}

}  // namespace

Outcome run_tcp_similar(const RunOptions& o) {
  const TcpConfig& cfg = o.tcp;
  if (cfg.rates.empty() || cfg.reference_rate <= 0.0 ||
      cfg.tail_limit_ms <= 0.0) {
    throw std::invalid_argument(
        "tcp_similar needs --rates, --reference-rate and --tail-limit-ms");
  }
  (void)::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  Outcome out;
  constexpr std::size_t kWarmRequests = 256;
  // How long a window waits for its last answers: briefly on ladder steps,
  // which may run above capacity by design, and long enough elsewhere that
  // a scheduling stall does not turn into a failed request.
  constexpr double kStepDrainSeconds = 0.5;
  constexpr double kDrainSeconds = 5.0;

  // The stream repeats after kStreamLength requests, far beyond the reach
  // of the result cache.
  constexpr std::size_t kStreamLength = 1 << 15;
  // Set-ups run back to back before the timed part, each replacing the
  // last stream and server. Spread over the run, as on the other
  // workloads, they slowed the measured server afterwards: the saturated
  // delivered rate fell from about 24000/s to 5400/s in one run.
  std::optional<Stream> stream;
  std::unique_ptr<Server> server;
  SetupClock setups([&] {
    server.reset();
    stream.emplace(o.seed, kStreamLength);
    server = std::make_unique<Server>();
    warm_up(*server, *stream, kWarmRequests);
  });
  if (o.trace) {
    (void)setups.tick(0.0);  // a traced run needs one
  } else {
    setups.finish();
  }
  stream->cursor = kWarmRequests;

  if (!o.trace) {
    // Host scheduling stalls come in bursts of seconds, so every figure is
    // a median over pieces spread across the run: the reference window is
    // cut into sub-windows interleaved with the saturation steps and the
    // ladder probes, and each rung's share is the median over its probes.
    constexpr int kSubWindows = 8;
    constexpr int kProbes = kSubWindows - 2;
    Generator gen(server->port());
    Tally reference;
    std::vector<double> p50s;
    std::vector<double> tails;
    const std::size_t per_window =
        count_for(cfg.reference_rate, kReferenceSeconds / kSubWindows);
    auto reference_window = [&] {
      Tally sub;
      const std::vector<Exchange> ex =
          gen.run(stream->requests, stream->take(per_window), per_window,
                  cfg.reference_rate, kDrainSeconds);
      (void)check_exchanges(stream->requests, ex, sub);
      std::sort(sub.latency_ms.begin(), sub.latency_ms.end());
      p50s.push_back(percentile_sorted(sub.latency_ms, 50.0));
      tails.push_back(percentile_sorted(sub.latency_ms, kTailPercentile));
      reference.attempted += sub.attempted;
      reference.failed += sub.failed;
      reference.optimal += sub.optimal;
      reference.cache_hits += sub.cache_hits;
      reference.ratio_sum += sub.ratio_sum;
    };

    // Saturation: offer the top ladder rate for one step and count what is
    // delivered in each tenth of the span the requests fell due. Three
    // steps, at the start, middle and end of the run, pool their tenths;
    // the median tenth gives the delivered rate.
    const std::vector<double>& rates = cfg.rates;
    Tally saturated;
    std::vector<double> tenth_rates;  // answers per second, per tenth
    auto saturation_step = [&] {
      const std::size_t n_top = count_for(rates.back(), kStepSeconds);
      const std::vector<Exchange> top = gen.run(
          stream->requests, stream->take(n_top), n_top, rates.back(),
          kStepDrainSeconds);
      (void)check_exchanges(stream->requests, top, saturated);
      constexpr int kBins = 10;
      const std::int64_t t0 = top.front().due_ns;
      const std::int64_t bin_ns = (top.back().due_ns - t0) / kBins + 1;
      std::vector<double> per_bin(kBins, 0.0);
      for (const Exchange& e : top) {
        if (e.done_ns == 0 || e.done_ns < t0) continue;
        const std::int64_t b = (e.done_ns - t0) / bin_ns;
        if (b < kBins) per_bin[static_cast<std::size_t>(b)] += 1.0;
      }
      for (const double answers : per_bin) {
        tenth_rates.push_back(answers / (static_cast<double>(bin_ns) * 1e-9));
      }
    };
    reference_window();
    saturation_step();
    const double first_delivered = median(tenth_rates);
    reference_window();

    // Ladder: kProbes probes of one step each, starting at the highest rung
    // at or below the delivered capacity. A passing rung sends the next
    // probe up, a failing one down; once a passing rung sits right below a
    // failing one, the probes alternate between the two. The result
    // interpolates the share within the limit (median over each rung's
    // probes) between the highest passing rung and the rung above it.
    const double quantile = kLimitPercentile / 100.0;
    std::vector<std::vector<double>> probes(rates.size());
    auto share_at = [&](std::size_t i) { return median(probes[i]); };
    auto passes = [&](std::size_t i) {
      return !probes[i].empty() && share_at(i) >= quantile;
    };
    auto fails = [&](std::size_t i) {
      return !probes[i].empty() && share_at(i) < quantile;
    };
    Tally ladder;
    std::size_t i = 0;
    while (i + 1 < rates.size() && rates[i + 1] <= first_delivered) ++i;
    for (int k = 0; k < kProbes; ++k) {
      const std::size_t n = count_for(rates[i], kStepSeconds);
      const std::vector<Exchange> ex = gen.run(
          stream->requests, stream->take(n), n, rates[i], kStepDrainSeconds);
      probes[i].push_back(
          share_within(stream->requests, ex, cfg.tail_limit_ms, ladder));
      reference_window();
      if (k + 1 == kProbes / 2) saturation_step();
      if (passes(i)) {
        if (i + 1 < rates.size() && !fails(i + 1)) {
          ++i;  // try higher
        } else if (i + 1 < rates.size() &&
                   probes[i + 1].size() <= probes[i].size()) {
          ++i;  // re-probe the boundary pair
        }
      } else if (i > 0) {
        if (!passes(i - 1) || probes[i - 1].size() <= probes[i].size()) --i;
      }
    }
    saturation_step();
    const double delivered_rate = median(tenth_rates);

    std::size_t lo = rates.size();  // highest passing rung
    for (std::size_t r = 0; r < rates.size(); ++r) {
      if (passes(r)) lo = r;
    }
    double max_rate = 0.0;
    if (lo == rates.size()) {
      std::size_t lowest = 0;  // nothing passed: scale the lowest probe
      while (probes[lowest].empty()) ++lowest;
      max_rate = rates[lowest] * share_at(lowest) / quantile;
    } else if (lo + 1 == rates.size() || !fails(lo + 1)) {
      max_rate = rates[lo];  // nothing above it was seen to fail
    } else {
      const double s_lo = share_at(lo);
      const double s_hi = share_at(lo + 1);
      max_rate = rates[lo] + (rates[lo + 1] - rates[lo]) *
                                 (s_lo - quantile) /
                                 std::max(s_lo - s_hi, 1e-12);
    }

    // Only the reference window counts towards failed/attempted: ladder
    // steps above capacity abandon requests by design.
    const auto n = static_cast<double>(reference.attempted);
    const auto answered = n - static_cast<double>(reference.failed);
    out.attempted = reference.attempted;
    out.failed = reference.failed + ladder.invalid + saturated.invalid;
    out.add("throughput_per_s", delivered_rate, "1/s");
    out.add("latency_p50_ms", median(p50s), "ms");
    out.add("realized_over_bound", share(reference.ratio_sum, answered),
            "ratio");
    out.add("certified_share",
            share(static_cast<double>(reference.optimal), n), "share");
    out.add("setup_s", setups.median_s(), "s");
    out.notes.push_back(format(
        "max_rate_per_s %.6g 1/s; latency_tail_ms %.6g ms (median over %d "
        "windows of p%g of %zu requests at %g/s); failed_share %.6g; wire "
        "cache-hit share %.6g",
        max_rate, median(tails), kSubWindows, kTailPercentile, per_window,
        cfg.reference_rate,
        share(static_cast<double>(reference.failed), n),
        share(static_cast<double>(reference.cache_hits), n)));
    std::string ladder_note = "ladder share within the limit:";
    for (std::size_t r = 0; r < rates.size(); ++r) {
      for (const double share : probes[r]) {
        ladder_note += format(" %g/s=%.4f", rates[r], share);
      }
    }
    out.notes.push_back(ladder_note);
    return out;
  }

  // Traced run. The TCP leg offers the same requests at the reference rate
  // to two fresh, equally warmed servers, untraced then traced; its spans
  // are built from the generator's own timestamps (due -> sent ->
  // answered). The in-process leg replays the same requests through a
  // direct SolverService, twice, for the service and io spans and the
  // deterministic counters.
  server.reset();
  const std::size_t m = count_for(
      cfg.reference_rate, std::min(kReferenceSeconds, o.seconds / 10));
  Tracer net_tracer(true);
  auto tcp_pass = [&](bool traced, Tally& t, net::ServerStats& stats) {
    Server srv;
    warm_up(srv, *stream, kWarmRequests);
    Generator gen(srv.port());
    const std::vector<Exchange> ex = gen.run(
        stream->requests, kWarmRequests, m, cfg.reference_rate, kDrainSeconds);
    stats = srv.stats();
    (void)check_exchanges(stream->requests, ex, t);
    if (!traced) return;
    for (const Exchange& e : ex) {
      if (e.done_ns == 0) continue;
      const int root =
          net_tracer.record("request", e.request, -1, e.due_ns, e.done_ns);
      net_tracer.record("net.wait", e.request, root, e.due_ns, e.sent_ns);
      net_tracer.record("net.round_trip", e.request, root, e.sent_ns,
                        e.done_ns);
    }
  };
  Tally tcp_plain;
  Tally tcp_traced;
  net::ServerStats stats;
  tcp_pass(false, tcp_plain, stats);
  tcp_pass(true, tcp_traced, stats);

  // Release-layer replays are capped: the root LP costs more than a
  // served request.
  constexpr std::size_t kReleaseReplays = 2000;
  struct Replay {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::size_t invalid = 0;
    double ratio_sum = 0.0;
    double slice_ratio_sum = 0.0;
    double skyline_ratio_sum = 0.0;
    std::size_t worse_than_skyline = 0;
    std::size_t release_replays = 0;
    std::int64_t root_dfs_expansions = 0;
    double request_bytes = 0.0;
    double response_bytes = 0.0;
    std::vector<double> latency_ms;
    stripack::service::ServiceStats stats;
  };
  auto replay = [&](Tracer& tracer) {
    Replay r;
    stripack::service::SolverService service;
    Tracer off(false);
    for (std::size_t k = 0; k < kWarmRequests; ++k) {
      (void)serve_one(service, stream->requests[k].text, off, k);
    }
    const stripack::service::ServiceStats warm = service.stats();
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t k = (kWarmRequests + j) % stream->requests.size();
      const Request& req = stream->requests[k];
      const Served s = serve_one(service, req.text, tracer, k);
      r.latency_ms.push_back(s.latency_ms);
      ++r.attempted;
      r.request_bytes += static_cast<double>(req.text.size());
      r.response_bytes += static_cast<double>(s.response_text.size());
      if (!s.response.ok) {
        ++r.failed;
        std::fprintf(stderr, "replayed request %zu failed: %s\n", k,
                     s.response.error.c_str());
        continue;
      }
      AnswerCheck c;
      {
        const Scope check(tracer, "core.validate", k);
        c = check_answer(s.instance, s.response.placement, s.response.height,
                         s.response.dual_bound);
      }
      if (!c.placement_valid) ++r.invalid;
      if (!c.ok) {
        ++r.failed;
        std::fprintf(stderr, "check failed on replayed request %zu: %s\n", k,
                     c.why.c_str());
        continue;
      }
      r.ratio_sum += c.realized / s.response.dual_bound;
      r.slice_ratio_sum += c.realized / s.response.height;
      if (j < kReleaseReplays) {
        const ReleaseReplay rr = replay_release(
            stripack::service::canonicalize(s.instance).instance, s.instance,
            tracer, k);
        ++r.release_replays;
        r.root_dfs_expansions += rr.root_dfs_expansions;
        r.skyline_ratio_sum += rr.skyline_height / s.response.dual_bound;
        if (c.realized > rr.skyline_height + 1e-9) ++r.worse_than_skyline;
      }
    }
    r.stats = service.stats();
    r.stats.requests -= warm.requests;
    r.stats.cache_hits -= warm.cache_hits;
    r.stats.warm_roots -= warm.warm_roots;
    r.stats.degraded -= warm.degraded;
    r.stats.errors -= warm.errors;
    return r;
  };
  auto counters_of = [](const Replay& r) {
    const auto n = static_cast<double>(r.attempted);
    return Counters{
        {"service.cache_hit_ratio",
         share(static_cast<double>(r.stats.cache_hits), n)},
        {"service.warm_root_share",
         share(static_cast<double>(r.stats.warm_roots), n)},
        {"service.classes", static_cast<double>(r.stats.classes)},
        {"release.root_dfs_expansions",
         static_cast<double>(r.root_dfs_expansions)},
        {"realized_over_bound", r.ratio_sum},
    };
  };
  Tracer off(false);
  const Replay plain = replay(off);
  Tracer tracer(true);
  const Replay traced = replay(tracer);
  require_same_counters(counters_of(plain), counters_of(traced), out);

  out.attempted = tcp_plain.attempted + tcp_traced.attempted +
                  plain.attempted + traced.attempted;
  out.failed =
      tcp_plain.failed + tcp_traced.failed + plain.failed + traced.failed;

  const SpanTable net_spans = net_tracer.summarize();
  const SpanTable spans = tracer.summarize();
  const auto n = static_cast<double>(traced.attempted);
  const auto nr = static_cast<double>(traced.release_replays);
  const stripack::service::ServiceStats& st = traced.stats;
  const double round_trip_us =
      span_mean_ms(net_spans, "net.round_trip", false) * 1e3;
  out.add("service.enqueue_us",
          span_mean_ms(spans, "service.enqueue", true) * 1e3, "us");
  out.add("service.run_ms", span_mean_ms(spans, "service.run", true), "ms");
  out.add("service.cache_hit_ratio",
          share(static_cast<double>(st.cache_hits), n), "ratio");
  out.add("service.warm_root_share",
          share(static_cast<double>(st.warm_roots), n), "share");
  out.add("service.classes", static_cast<double>(st.classes), "count");
  out.add("service.degraded_share",
          share(static_cast<double>(st.degraded), n), "share");
  out.add("service.errors", static_cast<double>(st.errors), "count");
  out.add("io.parse_us", span_mean_ms(spans, "io.parse", true) * 1e3, "us");
  out.add("io.write_us", span_mean_ms(spans, "io.write", true) * 1e3, "us");
  out.add("io.request_bytes", share(traced.request_bytes, n), "bytes");
  out.add("io.response_bytes", share(traced.response_bytes, n), "bytes");
  out.add("net.round_trip_us", round_trip_us, "us");
  out.add("net.socket_tax_us",
          round_trip_us - span_mean_ms(spans, "request", false) * 1e3, "us");
  out.add("net.wait_for_connection_ms",
          span_mean_ms(net_spans, "net.wait", false), "ms");
  out.add("net.generator_lag_ms", mean(tcp_traced.lag_ms), "ms");
  out.add("net.protocol_errors", static_cast<double>(stats.protocol_errors),
          "count");
  out.add("net.deadline_expiries",
          static_cast<double>(stats.deadline_expiries), "count");
  out.add("net.overload_sheds", static_cast<double>(stats.overload_sheds),
          "count");
  out.add("net.connection_drops",
          static_cast<double>(stats.connection_drops), "count");
  out.add("net.dropped_results", static_cast<double>(stats.dropped_results),
          "count");
  out.add("release.make_problem_ms",
          span_mean_ms(spans, "release.make_problem", true), "ms");
  out.add("release.root_lp_ms", span_mean_ms(spans, "release.root_lp", true),
          "ms");
  out.add("release.root_dfs_expansions",
          static_cast<double>(traced.root_dfs_expansions), "count");
  out.add("release.realized_over_slice", share(traced.slice_ratio_sum, n),
          "ratio");
  out.add("release.skyline_over_bound", share(traced.skyline_ratio_sum, nr),
          "ratio");
  out.add("release.worse_than_skyline_share",
          share(static_cast<double>(traced.worse_than_skyline), nr), "share");
  out.add("core.validate_ms", span_mean_ms(spans, "core.validate", true),
          "ms");
  out.add("core.invalid_placements",
          static_cast<double>(tcp_plain.invalid + tcp_traced.invalid +
                              plain.invalid + traced.invalid),
          "count");
  // The TCP leg's spans come from timestamps the generator takes anyway;
  // the spans recorded live are the replay's, so its two passes give the
  // overhead.
  add_trace_overhead(out, plain.latency_ms, traced.latency_ms);
  out.notes.push_back(format(
      "TCP leg: %zu requests at %g/s; wire cache-hit share %.6g", m,
      cfg.reference_rate,
      share(static_cast<double>(tcp_traced.cache_hits),
            static_cast<double>(tcp_traced.attempted))));
  if (!o.trace_out.empty()) {
    net_tracer.write(o.trace_out);
    tracer.write(o.trace_out, /*append=*/true);
  }
  return out;
}

}  // namespace perfbench
