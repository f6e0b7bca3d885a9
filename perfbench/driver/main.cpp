// End-to-end benchmark driver for the three serving surfaces.
//
//   perfbench_driver --workload deep_proof|mixed_served|tcp_similar
//                    --seed N --seconds S --trace 0|1 [--trace-out PATH]
//                    [--rates R1,R2,...] [--reference-rate R]
//                    [--tail-limit-ms L]
//
// Prints one human-readable line per note, then, as its last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}. Untraced
// runs report the end-to-end metrics, traced runs the per-layer ones.
// perfbench/run.py builds this driver and passes the TCP settings from
// perfbench/config.json.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <string>

#include "common.hpp"

namespace {

using perfbench::Outcome;
using perfbench::RunOptions;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench_driver: %s\n", why.c_str());
  std::exit(2);
}

std::vector<double> parse_list(const std::string& text) {
  std::vector<double> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(std::stod(item));
  return out;
}

RunOptions parse(int argc, char** argv) {
  RunOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else if (flag == "--rates") {
      o.tcp.rates = parse_list(value);
    } else if (flag == "--reference-rate") {
      o.tcp.reference_rate = std::stod(value);
    } else if (flag == "--tail-limit-ms") {
      o.tcp.tail_limit_ms = std::stod(value);
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (o.seconds <= 0.0) usage("--seconds must be positive");
  return o;
}

void print(const Outcome& out) {
  for (const std::string& note : out.notes) std::printf("# %s\n", note.c_str());
  for (const perfbench::Metric& m : out.metrics) {
    std::printf("# %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              out.correct && out.failed == 0 ? "true" : "false",
              out.attempted, out.failed);
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const RunOptions o = parse(argc, argv);
  Outcome out;
  try {
    if (o.workload == "deep_proof") {
      out = perfbench::run_deep_proof(o);
    } else if (o.workload == "mixed_served") {
      out = perfbench::run_mixed_served(o);
    } else if (o.workload == "tcp_similar") {
      out = perfbench::run_tcp_similar(o);
    } else {
      usage("unknown workload '" + o.workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  if (out.attempted == 0) {
    std::fprintf(stderr, "perfbench_driver: no request completed\n");
    return 1;
  }
  print(out);
  return out.correct && out.failed == 0 ? 0 : 1;
}
