// Online-vs-offline competitive-ratio harness: replay a full event trace
// through an engine::Session under any policy (online / repair / resolve)
// and, at every checkpoint prefix plus the trace end, solve an offline
// reference on the materialized snapshot instance from scratch. The
// report carries per-prefix (online, offline, ratio) rows and whole-trace
// aggregates (min / mean / final ratio), plus each prefix's Σ w_u(S)
// upper bound and the same relative gap SweepPlan aggregates report.
//
// The default offline reference is NOT the offline optimum: it is the
// §2.2 greedy in the session's own mode (Theorem 2.8's feasible winner,
// or the Corollary 2.7 augmented one), so a ratio measures a policy
// against the one-shot greedy on the same prefix. `offline = "exact"`
// (`vdist_cli compete --offline exact`) gives the proven optimum on
// instances small enough for branch-and-bound.
//
// The differential contract: against the default reference the resolve
// policy's ratio is 1.0 bit-exactly at every checkpoint — resolve
// maintains exactly the from-scratch solve of the overlay view, and the
// workload generators' parity-safety guarantee makes the materialized
// snapshot bit-compatible with that view. Repair stays within its
// declared drift bound at every aligned checkpoint; online has no
// per-prefix guarantee (that is the point of measuring it), and can
// exceed 1 against the greedy reference.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "engine/serving.h"
#include "model/events.h"
#include "model/instance.h"
#include "util/table.h"

namespace vdist::engine {

struct CompetitiveOptions {
  // The session under test (policy, mode, select, bound, ...). The
  // trace-derivation knobs (events / trace / family) are ignored here —
  // the caller provides the trace.
  ServeConfig serve;
  // Checkpoint interval in events; 0 = the trace end only. The final
  // prefix is always checkpointed.
  std::size_t every = 0;
  // Offline reference algorithm (solver-registry name: exact, pipeline,
  // ...). Empty = the §2.2 greedy matching the session's mode — the
  // reference under which resolve's ratio is 1.0 bit-exactly; "exact"
  // is the proven optimum.
  std::string offline;
  // kRepair: align the session's drift-refresh interval with `every` so
  // every gated prefix has had its chance to self-correct (the same rule
  // `vdist_cli serve --check` applies).
  bool align_refresh = true;
};

struct CompetitiveCheckpoint {
  std::size_t event = 0;  // prefix length (events applied so far)
  double online_objective = 0.0;
  double offline_objective = 0.0;
  double ratio = 0.0;        // online / offline (1.0 when both are 0)
  double upper_bound = 0.0;  // snapshot Σ w_u(S)
  double offline_gap = 0.0;  // (upper_bound - offline) / upper_bound
};

struct CompetitiveReport {
  std::string policy;
  std::string offline_algorithm;
  std::vector<CompetitiveCheckpoint> checkpoints;  // last = trace end
  // Aggregates over the checkpoints.
  double min_ratio = 0.0;
  double mean_ratio = 0.0;
  double final_ratio = 0.0;
  SessionCounters counters;
  double serve_wall_ms = 0.0;    // summed session repair wall
  double offline_wall_ms = 0.0;  // summed offline reference solves
};

// Replays the trace and measures. Throws std::invalid_argument on an
// unknown offline algorithm and std::runtime_error when an offline solve
// fails; session/apply errors propagate unchanged.
[[nodiscard]] CompetitiveReport run_competitive(
    const model::Instance& parent, std::span<const model::InstanceEvent> trace,
    const CompetitiveOptions& opts);

// One row per checkpoint: event, online, offline, ratio, upper_bound,
// offline_gap — the aligned-text / CSV emitter surface (util::Table).
[[nodiscard]] util::Table competitive_table(const CompetitiveReport& report);
void write_competitive_csv(std::ostream& os, const CompetitiveReport& report);
// The full report (config, aggregates, counters, checkpoint array) as one
// JSON document at round-trip precision.
void write_competitive_json(std::ostream& os, const CompetitiveReport& report);

}  // namespace vdist::engine
