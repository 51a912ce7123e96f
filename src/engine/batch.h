// BatchRunner: execute many SolveRequests across a std::thread pool.
//
// The experiment harnesses and (later) serving layers all have the same
// shape — a bag of independent (instance, algorithm, options) solves —
// so the fan-out lives here once. Guarantees:
//
//   * results come back in request order, regardless of scheduling;
//   * per-request RNG seeding is deterministic: request i runs with
//     derive_seed(base_seed, i, request.seed), a pure function of the
//     request and its index — the same batch gives bit-identical results
//     at any thread count (test_engine.cpp locks this in);
//   * a failing request (unknown algorithm, wrong instance form, solver
//     limit) yields its error SolveResult without disturbing the batch;
//   * each worker thread owns one core::SolveWorkspace and threads it
//     through every request it executes (unless the request already
//     carries one), so a large sweep performs its per-solve buffer
//     allocations once per thread, not once per cell.
//
// Requests hold `const Instance*`; the caller keeps instances alive for
// the duration of run(). Instances are immutable after build, so many
// requests may share one instance across threads.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "engine/solver.h"

namespace vdist::engine {

struct BatchOptions {
  // 0 = std::thread::hardware_concurrency() (at least 1).
  unsigned num_threads = 0;
  // Mixed into every request's seed; lets a sweep re-run a whole batch
  // under a fresh seed without touching the requests.
  std::uint64_t base_seed = 0;
  // Invoked after each request completes (any worker thread, serialized
  // by the runner). `done` counts completed requests so far.
  std::function<void(const SolveResult&, std::size_t done, std::size_t total)>
      on_result{};
};

class BatchRunner {
 public:
  explicit BatchRunner(BatchOptions options = {});

  // Runs every request and returns results in request order.
  [[nodiscard]] std::vector<SolveResult> run(
      const std::vector<SolveRequest>& requests) const;

  // The effective seed for request `index` with per-request seed `seed`:
  // SplitMix64 over (base ^ index ^ seed). Exposed so tests and callers
  // can reproduce a single batch entry standalone.
  [[nodiscard]] static std::uint64_t derive_seed(std::uint64_t base_seed,
                                                 std::size_t index,
                                                 std::uint64_t request_seed);

  [[nodiscard]] unsigned num_threads() const noexcept { return threads_; }

 private:
  BatchOptions options_;
  unsigned threads_;
};

// One-liner for the common case.
[[nodiscard]] std::vector<SolveResult> solve_batch(
    const std::vector<SolveRequest>& requests, BatchOptions options = {});

}  // namespace vdist::engine
