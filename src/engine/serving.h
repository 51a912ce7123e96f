// The serve option surface: the repair policies, the one struct that
// declares every serve knob, and the per-event accounting a serving
// engine::Session (engine/session.h) reports.
//
// ServeConfig is the typed home of every serve option — the solver
// registry's `serve` adapter, `vdist_cli serve`/`compete`, and sweep plan
// lines all parse through ServeConfig::from_options(), so a typo'd key or
// a bad value is rejected identically everywhere. Its session knobs are
// the SessionOptions base a Session is constructed from; the remaining
// fields only derive the registry adapter's event trace.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/greedy.h"
#include "core/select.h"
#include "engine/solver.h"

namespace vdist::engine {

enum class ServePolicy {
  kRepair,   // incremental repair + drift-bounded resolves (default)
  kResolve,  // from-scratch solve per event (differential baseline)
  kOnline,   // §5 Allocate as the repair policy (never revokes)
};

// Parses "repair" / "resolve" / "online"; throws std::invalid_argument.
[[nodiscard]] ServePolicy parse_serve_policy(const std::string& name);
[[nodiscard]] const char* to_string(ServePolicy policy) noexcept;

// A Session's knobs. The option-key names are ServeConfig::declared()'s;
// workspace and open_empty are caller wiring, not option keys.
struct SessionOptions {
  ServePolicy policy = ServePolicy::kRepair;
  // kRepair: relative drift (fresh - current) / max(fresh, 1) tolerated
  // before a drift check escalates to a full resolve.
  double bound = 0.05;
  // kRepair: events between drift checks; 1 checks after every event
  // (the parity-test setting), 0 never checks.
  int refresh = 64;
  // Which §2.2 winner the session maintains: kFeasible races A1/A2/Amax,
  // kAugmented races the semi-feasible greedy against Amax.
  core::SmdMode mode = core::SmdMode::kFeasible;
  core::SelectStrategy strategy = core::SelectStrategy::kDeltaHeap;
  // Reusable scratch (one per thread, as everywhere); null = the session
  // owns a private workspace. Must outlive the session.
  core::SolveWorkspace* workspace = nullptr;
  // kOnline knobs (Section 5): mu <= 0 derives the paper's value.
  double mu = 0.0;
  bool guard = true;
  // Open with every stream tombstoned — admission-style serving where
  // streams arrive through kStreamAdd events (the sim policy adapter).
  bool open_empty = false;
};

enum class RepairAction {
  kLocalRepair,  // touched users released + replayed, completion run
  kFullResolve,  // from-scratch solve (kResolve always; kRepair on drift)
  kOnlineStep,   // allocator offer/release/bookkeeping
};

// What one event cost and did.
struct RepairStats {
  RepairAction action = RepairAction::kLocalRepair;
  double objective = 0.0;  // session objective after the event
  double wall_ms = 0.0;
  std::size_t users_refreshed = 0;   // users released and replayed
  std::size_t streams_released = 0;  // added streams given back
  std::size_t streams_added = 0;     // streams admitted by the completion
  bool drift_checked = false;
  double drift = 0.0;  // meaningful when drift_checked
};

struct SessionCounters {
  std::size_t events = 0;
  std::size_t local_repairs = 0;
  std::size_t full_resolves = 0;  // includes the opening solve
  std::size_t drift_checks = 0;
  std::size_t online_accepts = 0;
  std::size_t online_rejects = 0;
};

// One declared serve option: the single source the registry's
// option_keys, the CLI's known-flag set, and the help text derive from.
struct ServeOptionSpec {
  const char* key;
  const char* fallback;
  const char* description;
};

// Every serve option, typed and validated in one place: the session's
// knobs plus the registry adapter's trace derivation.
struct ServeConfig : SessionOptions {
  // Registry-adapter knobs (`serve` derives an event trace per request;
  // the CLI replays an event file instead and ignores these).
  std::size_t events = 200;
  std::string trace;  // comma-separated workload key=value overrides
  // Which workload family derives the trace (the workload registry's
  // names: churn, zipf-drift, flash-crowd, diurnal, hetero-cap).
  std::string family = "churn";

  // The declared option surface, in help order.
  [[nodiscard]] static std::span<const ServeOptionSpec> declared();
  [[nodiscard]] static std::vector<std::string> option_keys();
  // Parses + validates every declared key (unknown keys are the
  // registry's / CLI's strict-mode concern; bad values throw
  // std::invalid_argument here, with the same message everywhere).
  [[nodiscard]] static ServeConfig from_options(const SolveOptions& opts);

  // kRepair's bound is guaranteed at its own drift checks, so a gate
  // measuring every `every` events (serve --check, compete --every) must
  // land on one: a refresh that divides `every` already does, anything
  // else becomes `every`. No-op for other policies and every == 0.
  void align_refresh(std::size_t every);
};

// What Session::check_parity() found: the maintained objective vs a
// from-scratch solve of the materialized current world.
struct ParityReport {
  bool ok = true;
  double current = 0.0;  // maintained objective
  double fresh = 0.0;    // from-scratch solve of snapshot()
  double drift = 0.0;    // (fresh - current) / max(fresh, 1)
  std::string detail;    // set when !ok
};

}  // namespace vdist::engine
