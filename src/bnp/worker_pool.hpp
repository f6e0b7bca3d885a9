// Deterministic parallel node evaluation for branch and price (bnp/solver).
//
// Batch-synchronous search: the solver pops the top-B open nodes, hands
// them here as tasks, and merges the results back in pop order. Each
// task is evaluated on a *fresh clone* of the frozen master
// (`ConfigLpSolver::clone()` — copied model/columns/branch rows/pattern
// cache, engine warm-started from the master's last optimal basis), so a
// node's result depends only on (master snapshot, its own root path) —
// never on which thread ran it, how many threads exist, or which other
// nodes share the batch. That is the determinism argument: for a fixed
// batch size B the explored tree, bounds and final packing are
// bit-identical across thread counts, in the spirit of the LP engine's
// `pricing_threads`.
//
// The pool's worker threads are owned here (a util::ThreadPool sized to
// the requested thread count, independent of the hardware count so
// sanitizer jobs exercise real concurrency even on single-core CI) and
// reused across batches.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "release/config_lp.hpp"
#include "util/thread_pool.hpp"

namespace stripack::bnp {

/// One node's evaluation order: activate these (master row, rhs) pairs on
/// a clone of the frozen master, then resolve under `cutoff`.
struct NodeTask {
  std::vector<std::pair<int, double>> path;
};

struct NodeEvaluation {
  release::FractionalSolution solution;
  /// Configuration columns the clone priced beyond the snapshot, for
  /// adoption into the master (deduplicated there).
  std::vector<release::AdoptableColumn> new_columns;
  /// The clone's own pricing counters.
  release::PricingStats pricing;
  /// 1 when the evaluation failed (threw, or exhausted the LP recovery
  /// ladder) and was retried once from a fresh clone of the frozen
  /// snapshot; the retry's outcome — recovered or an honest
  /// NumericalFailure — is what the fields above hold.
  int retries = 0;
};

class BnpWorkerPool {
 public:
  /// `threads` <= 1 evaluates on the calling thread (still through the
  /// same clone-per-node path, so results are identical); 0 means
  /// hardware concurrency.
  explicit BnpWorkerPool(int threads);
  ~BnpWorkerPool();

  [[nodiscard]] int threads() const { return threads_; }

  /// Evaluates every task against the frozen `master`; result i depends
  /// only on (master, tasks[i], cutoff, height_cap). `master` is only
  /// read (clone() is const and lock-free), so tasks run concurrently.
  /// With `height_cap` set, each clone resolves through
  /// `resolve_with_height_cap(*height_cap)` — the solver's
  /// cutoff-as-constraint mode, where a node that cannot beat the
  /// incumbent comes back certified infeasible with a Farkas
  /// certificate instead of cutoff-pruned. The cap row lives and dies
  /// with the clone; the frozen master is never touched.
  [[nodiscard]] std::vector<NodeEvaluation> evaluate(
      const release::ConfigLpSolver& master, std::span<const NodeTask> tasks,
      double cutoff, std::optional<double> height_cap = std::nullopt);

 private:
  std::unique_ptr<ThreadPool> pool_;  // null when serial
  int threads_ = 1;
};

}  // namespace stripack::bnp
