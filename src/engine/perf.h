// The perf subsystem: a registered-scenario benchmark suite comparing the
// selection kernel (core/select.h) against its naive oracle at scaling
// instance sizes, recorded as a machine-readable BENCH JSON so the
// repository keeps a performance trajectory between PRs.
//
// Each case is a (scenario spec, algorithm, options) triple built through
// the ScenarioRegistry. run_perf() solves it under select=delta on one
// reusable SolveWorkspace, repeats `repetitions` times keeping the
// *minimum* wall time (robust against scheduler noise), and — on kernel
// cases, every algorithm except `serve` — measures select=naive the same
// way and cross-checks that both produced the identical objective: they
// are pick-for-pick equivalent by construction, so any mismatch is a
// kernel bug, not noise. Serve cases time the session's event loop, where
// the kernel is not what is measured; they run delta only, and their
// delta-vs-naive agreement is a test (tests/test_session_contract.cpp).
//
// `vdist_cli perf [--smoke] [--baseline FILE]` runs the suite, prints the
// table, writes BENCH_perf.json, can enforce a minimum delta-vs-naive
// speedup on the largest kernel case, and can diff the run against the
// committed BENCH JSON (exit 3 past --max-regress).
//
// BENCH_perf.json schema (one object):
//   {
//     "bench": "perf", "smoke": bool, "repetitions": N,
//     "provenance": {"git_sha": str, "compiler": str, "flags": str,
//                    "build_type": str, "hardware_concurrency": N},
//     "cases": [{
//       "label": str, "scenario": str, "algorithm": str,
//       "streams": N, "users": N, "edges": N,
//       "threads": N,        // worker threads the case runs on: the
//                            // enum cases' DFS threads (--threads); 1
//                            // for every other case, so a wall delta
//                            // against a different thread count is
//                            // visibly not like-for-like
//       "delta": {"ok": bool, "error": str, "wall_ms": x, "objective": x,
//                 "events_per_sec": x,  // serve cases: events stat /
//                                       // event-apply seconds; 0
//                                       // elsewhere, and 0 when threads
//                                       // exceed hardware_concurrency
//                 STAT: x, ...},  // every SolveResult::stats entry under
//                                 // its registry name: select_picks,
//                                 // select_evals, select_pairs_touched,
//                                 // select_rows_walked, select_heap_sifts,
//                                 // plus the algorithm's own stats
//       "naive": {...},           // kernel cases only, same shape
//       "speedup": x,             // kernel cases: naive / delta wall_ms
//       "objective_match": bool   // kernel cases: delta == naive exactly
//     }, ...],
//     "largest": {"label": str, "streams": N, "speedup": x,
//                 "objective_match": bool}   // kernel case, most streams
//   }
// The baseline differ compares the delta entries: wall_ms and
// select_evals gate; pairs/rows/sifts are shown to make a regression
// attributable to a phase but never gate.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "engine/scenario.h"
#include "util/json.h"
#include "util/table.h"

namespace vdist::engine {

// One suite entry: which workload, which algorithm, which fixed options
// (the `select` key is owned by the runner and must be left unset).
struct PerfCaseSpec {
  ScenarioSpec scenario;
  std::string algorithm;
  SolveOptions options;
  std::string label;  // defaults to "<scenario>-<streams>/<algorithm>"
};

struct PerfOptions {
  // Smoke mode: tiny sizes that exercise every code path in seconds (the
  // CI perf-smoke job runs this).
  bool smoke = false;
  // Wall-time repetitions per (case, strategy); 0 = 3 full / 2 smoke.
  int repetitions = 0;
  // Scenario seed for the built-in suite (and the request seed for every
  // solve); explicit `cases` keep their own scenario seeds.
  std::uint64_t seed = 1;
  // Case-label substring filter; empty runs everything. `vdist_cli perf
  // --filter enum` reruns just the enumeration cases while iterating.
  std::string filter;
  // Worker threads for the enumeration cases (`vdist_cli perf --threads
  // N` -> the enum solver's "threads" option). Recorded in each affected
  // case's `threads` field; results are bit-identical at any value, so
  // only the wall changes.
  int threads = 1;
  // Empty = default_perf_suite(smoke).
  std::vector<PerfCaseSpec> cases;
};

// One strategy's measurement of one case.
struct PerfMeasurement {
  bool ok = false;
  std::string error;
  double wall_ms = 0.0;  // minimum over the repetitions
  double objective = 0.0;
  // Serve cases: events applied per second of event-apply wall time
  // (the "events" stat over "repair_wall_ms"; best repetition). 0 for
  // algorithms without an event loop, and 0 when the case asks for
  // more worker threads than the box has cores — timesliced threads
  // produce a scheduler number, not an engine number.
  double events_per_sec = 0.0;
  // The solve's SolveResult::stats as reported (last repetition): the
  // select_* counters of report_select and the algorithm's own stats.
  std::map<std::string, double> stats;

  [[nodiscard]] double stat(const std::string& key,
                            double fallback = 0.0) const;
};

struct PerfCase {
  std::string label;
  std::string scenario;
  std::string algorithm;
  std::size_t streams = 0;
  std::size_t users = 0;
  std::size_t edges = 0;
  // Worker threads the case solves on (the enum cases' `threads`
  // option; 1 everywhere else).
  unsigned threads = 1;
  PerfMeasurement delta;
  // The naive-scan oracle; kernel cases only (absent on serve cases).
  std::optional<PerfMeasurement> naive;
  double speedup = 0.0;  // naive->wall_ms / delta.wall_ms (0 if !ok)
  bool objective_match = false;

  [[nodiscard]] bool ok() const {
    return delta.ok && (!naive || naive->ok);
  }
};

// Where this run came from: stamped into the BENCH JSON so entries are
// comparable across the trajectory (a wall-ms delta from a different
// compiler or machine is a different conversation than one from a code
// change).
struct PerfProvenance {
  std::string git_sha;     // configure-time HEAD ("unknown" outside git)
  std::string compiler;    // from the compiler's own version macros
  std::string flags;       // CMAKE_CXX_FLAGS + per-config flags
  std::string build_type;  // CMAKE_BUILD_TYPE
  unsigned hardware_concurrency = 0;
};
[[nodiscard]] PerfProvenance collect_provenance();

struct PerfReport {
  bool smoke = false;
  int repetitions = 0;
  PerfProvenance provenance;
  std::vector<PerfCase> cases;

  // The kernel case (one with a naive measurement) with the most streams
  // (ties: most edges); nullptr when there is none. The CI speedup gate
  // applies to this case.
  [[nodiscard]] const PerfCase* largest() const;
  // First per-case error across the suite; empty when every run worked.
  [[nodiscard]] std::string first_error() const;
};

// The built-in scaling suite over registered scenarios. Full mode tops
// out at a |S| >= 5000 SMD workload (the trajectory's headline number);
// smoke mode shrinks every size but keeps the shape. Includes the
// checkpointed-enumeration cases (depth 1 and 2) and the band-view case.
[[nodiscard]] std::vector<PerfCaseSpec> default_perf_suite(bool smoke);

// Runs the suite. Throws std::invalid_argument on bad specs (unknown
// scenario/algorithm names); per-run solver errors are recorded in the
// measurements instead.
[[nodiscard]] PerfReport run_perf(const PerfOptions& opts = {});

// One row per case: sizes, delta/naive wall, speedup, evals, match.
[[nodiscard]] util::Table perf_table(const PerfReport& report);

// The BENCH_perf.json document described above.
void write_perf_json(std::ostream& os, const PerfReport& report);

// --- Baseline regression diff (`vdist_cli perf --baseline FILE`) -------

// One label present in both the current report and the baseline JSON.
struct PerfBaselineEntry {
  std::string label;
  PerfMeasurement baseline;  // the baseline document's delta entry
  PerfMeasurement current;   // this run's delta measurement
  double wall_ratio = 0.0;   // current / baseline (> 1 = regression)
  double evals_ratio = 0.0;  // select_evals, current / baseline
};

struct PerfBaselineDiff {
  std::vector<PerfBaselineEntry> entries;
  std::vector<std::string> only_current;   // new cases, not gated
  std::vector<std::string> only_baseline;  // retired cases, not gated
  // The entry with the worst (largest) wall ratio; nullptr when empty.
  [[nodiscard]] const PerfBaselineEntry* worst() const;
  // True when any entry's gated ratio exceeds `max_regress`. `wall` and
  // `evals` select which ratios participate: evals are deterministic and
  // machine-independent (the right CI gate against a baseline produced
  // elsewhere); wall ratios compare wall clocks and only make sense on
  // comparable hardware.
  [[nodiscard]] bool regressed(double max_regress, bool wall = true,
                               bool evals = true) const;
};

// Matches current cases against a parsed BENCH JSON by label, comparing
// the delta entries of both sides. Throws std::runtime_error when
// `baseline` is not a perf document.
[[nodiscard]] PerfBaselineDiff diff_perf_baseline(
    const PerfReport& current, const util::JsonValue& baseline);

// One row per matched label: walls, wall ratio, evals ratio, and the
// pairs/rows/sifts counters of both sides.
[[nodiscard]] util::Table baseline_table(const PerfBaselineDiff& diff);

}  // namespace vdist::engine
