// The serving-session API: a long-lived solve over a mutable instance.
//
// The paper states its algorithms as one-shot optimizations; a video
// server's reality is a stream of small world changes. A Session opens on
// a cap-form Instance, keeps a model::InstanceOverlay as the live world,
// consumes typed model::InstanceEvents, and maintains an always-valid
// assignment plus per-event RepairStats. Three repair policies:
//
//   * kRepair (default) — incremental repair. The session keeps the §2
//     greedy's live state — one core::GreedyEngine's per-user residual
//     caps, per-stream residual utility w̄ and sorted rows, plus the
//     added-stream sequence (engine/repair_core.h) — and reacts to an
//     event by releasing only the touched users/streams: the affected
//     user's pairs are replayed against the unchanged added sequence
//     (O(deg)) with each w̄ delta applied exactly, and a greedy
//     *completion* reconsiders the pool only when the event could have
//     opened room (joins, restores, freed budget/capacity). The opening
//     solve, every full resolve and every completion run the same code
//     as GreedyEngine::run and GreedyEngine::add_stream, not a copy of
//     its arithmetic. Every `refresh` events the session
//     scores a from-scratch greedy (scoring mode, no assignment build);
//     relative drift beyond `bound` triggers a full resolve that
//     rebuilds the state.
//   * kResolve — per-event from-scratch solve_unit_skew on the overlay
//     view: bit-identical to a one-shot `greedy` solve of the overlay's
//     materialized instance after every event (the differential anchor,
//     and the baseline the ≥10x repair speedup is measured against).
//   * kOnline — the §5 Allocate allocator as a repair policy, through the
//     shared core::OnlineDriver: stream add/remove events become offers
//     and releases (decisions never revoked, per the paper); user events
//     update the allocator's capacity bounds and the ground-truth
//     objective only.
//
// The objective is the Section-2 value of the maintained solution under
// the *current* overlay: for kRepair/kResolve the Theorem 2.8 feasible
// winner (or the Corollary 2.7 semi-feasible one under kAugmented); for
// kOnline the capped utility of the accepted pairs.
//
// Options come from SessionOptions (engine/serving.h); a parsed
// ServeConfig is one, so callers construct `Session(parent, cfg)`.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/allocate_online.h"
#include "core/greedy.h"
#include "core/select.h"
#include "engine/repair_core.h"
#include "engine/serving.h"
#include "model/events.h"
#include "model/overlay.h"
#include "model/validate.h"

namespace vdist::engine {

class Session {
 public:
  // Requires parent.is_smd() && parent.is_unit_skew() (throws
  // std::invalid_argument otherwise). The parent must outlive the
  // session; the opening solve runs here.
  explicit Session(const model::Instance& parent, SessionOptions opts = {});
  Session(model::Instance&&, SessionOptions = {}) = delete;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Applies one event and repairs per the policy. Invalid ids throw
  // std::invalid_argument (the overlay's validation) with the session
  // state unchanged.
  RepairStats apply(const model::InstanceEvent& event);

  // The session objective under the current overlay (see the header
  // comment); maintained by apply().
  [[nodiscard]] double objective() const noexcept { return objective_; }

  // The maintained assignment, materialized lazily against instance().
  // Valid until the next apply().
  [[nodiscard]] const model::Assignment& assignment();

  // The overlay's current base (stable entity ids; rebuilt on appends).
  [[nodiscard]] const model::Instance& instance() const noexcept {
    return overlay_.instance();
  }
  [[nodiscard]] const model::InstanceOverlay& overlay() const noexcept {
    return overlay_;
  }
  [[nodiscard]] ServePolicy policy() const noexcept { return opts_.policy; }
  [[nodiscard]] const SessionCounters& counters() const noexcept {
    return counters_;
  }
  // The kRepair policy's maintained state (read-only; idle under the
  // other policies).
  [[nodiscard]] const RepairCore& repair_core() const noexcept {
    return repair_;
  }
  // Selection-kernel work accumulated across every repair/resolve.
  [[nodiscard]] const core::SelectStats& select_stats() const noexcept {
    return select_;
  }
  // Which race candidate objective() reflects ("greedy", "A1", "A2",
  // "Amax", or "online"). Valid until the next apply().
  [[nodiscard]] const char* variant() const noexcept;

  // From-scratch §2.2 winner value of the *current* overlay state
  // (scoring mode, no assignment). The parity yardstick for any policy,
  // and what drift checks compare against.
  [[nodiscard]] double fresh_objective();

  // Bakes the current world into a standalone Instance (the validation /
  // parity snapshot; bit-compatible with the live view while no live
  // pair exceeds its cap — the event generator's guarantee).
  [[nodiscard]] model::Instance snapshot() const {
    return overlay_.materialize();
  }
  // The maintained assignment re-accounted on snapshot() — caps and
  // utilities as the session serves them now, not the parent's — and
  // validated there.
  [[nodiscard]] model::ValidationReport validate_on_snapshot();
  // Solves snapshot() from scratch and compares: kResolve demands
  // bit-equality, kRepair drift within bound (+1e-9 slack), kOnline is
  // trivially ok (Allocate's competitiveness is not a per-event bound).
  [[nodiscard]] ParityReport check_parity();

 private:
  struct AcceptedStream {  // kOnline bookkeeping, per stream
    core::OnlineDriver::Offer offer;
    std::vector<std::size_t> taken;
    bool active = false;
  };

  void open();
  // The overlay's current state as the repair core's world binding.
  // Rebind after every mutation — appends move the arrays.
  [[nodiscard]] WorldRef world() const noexcept {
    return WorldRef{&overlay_.instance(), overlay_.edge_utilities(),
                    overlay_.total_utilities(), overlay_.capacities(),
                    overlay_.stream_alive_flags()};
  }
  [[nodiscard]] RepairCore::Context repair_context() const noexcept {
    return RepairCore::Context{ws_, opts_.strategy, opts_.mode};
  }
  // --- kRepair internals -------------------------------------------------
  void repair_apply(const model::InstanceEvent& event, RepairStats& stats);
  void full_resolve_repair();
  // Sets objective_ and winner_ from the repair core's race.
  void race_repair();
  // --- kResolve internals ------------------------------------------------
  void resolve_apply();
  // --- kOnline internals -------------------------------------------------
  void online_open();
  void online_apply(const model::InstanceEvent& event, RepairStats& stats);
  void online_offer(model::StreamId s, RepairStats& stats);
  [[nodiscard]] double online_objective() const;

  SessionOptions opts_;
  std::unique_ptr<core::SolveWorkspace> owned_ws_;
  core::SolveWorkspace* ws_ = nullptr;
  model::InstanceOverlay overlay_;

  SessionCounters counters_;
  core::SelectStats select_;
  double objective_ = 0.0;

  // kRepair state (engine/repair_core.h), on its own workspace so fresh
  // scoring solves can share ws_ without clobbering it.
  RepairCore repair_;
  core::Winner winner_ = core::Winner::kGreedy;  // what objective_ reflects

  // kResolve state.
  std::optional<core::SmdSolveResult> resolved_;

  // kOnline state.
  std::optional<core::OnlineDriver> driver_;
  std::vector<AcceptedStream> accepted_;

  std::optional<model::Assignment> assignment_;  // lazy cache
};

}  // namespace vdist::engine
