// The §2 greedy's live repair state behind engine::Session's kRepair
// policy.
//
// WorldRef is a read-only binding of the serving world — the structural
// base plus the four effective arrays an InstanceOverlay maintains.
// RepairCore owns one core::GreedyEngine on its own SolveWorkspace, and
// that engine's state is the repair state: per-user residuals and
// accumulators, pool residual utilities w̄, the spent budget, the cost
// order and the sorted user rows. The open and every full resolve are
// the engine's construction plus run() — the solve_unit_skew path — and
// a repair edits the engine's state through its live-repair entry
// points, then re-runs the engine's own loop. RepairCore adds the added
// sequence, each user's assigned streams in order, and the §2.2 race's
// exact totals kept per touched user, and exposes the event lifecycle
// as pre_event / post_event around the caller's world mutation.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/greedy.h"
#include "core/select.h"
#include "engine/serving.h"
#include "model/events.h"
#include "model/instance.h"
#include "model/view.h"

namespace vdist::engine {

// Read-only view of the live serving world: the structural base plus the
// effective per-entity arrays (what InstanceOverlay::view() binds).
struct WorldRef {
  const model::Instance* base = nullptr;
  std::span<const double> edge_utility;   // effective, per base edge
  std::span<const double> total_utility;  // effective, per stream
  std::span<const double> capacity;       // effective, per user
  std::span<const char> stream_alive;

  [[nodiscard]] std::size_t num_users() const noexcept {
    return capacity.size();
  }
  [[nodiscard]] std::size_t num_streams() const noexcept {
    return total_utility.size();
  }
  [[nodiscard]] double budget() const noexcept { return base->budget(0); }
  [[nodiscard]] bool alive(model::StreamId s) const noexcept {
    return stream_alive[static_cast<std::size_t>(s)] != 0;
  }
  // Effective utility of the (u, s) pair; 0 when absent.
  [[nodiscard]] double pair_utility(model::UserId u,
                                    model::StreamId s) const noexcept;
  [[nodiscard]] model::InstanceView view() const noexcept {
    return model::InstanceView(*base, edge_utility, total_utility, capacity);
  }
};

// What an event touches, derived once per event from the world's entity
// counts: a user event names one user; an append names the next free id.
struct EventKind {
  bool user_event = false;
  bool appends_user = false;
  bool appends_stream = false;
};
[[nodiscard]] EventKind classify_event(const model::InstanceEvent& event,
                                       std::size_t num_users,
                                       std::size_t num_streams) noexcept;

class RepairCore {
 public:
  // Per-call solve context (the owner's knobs; never stored). The
  // workspace serves the drift check's fresh solves only: the repair
  // state lives on RepairCore's own.
  struct Context {
    core::SolveWorkspace* workspace = nullptr;
    core::SelectStrategy strategy = core::SelectStrategy::kDeltaHeap;
    core::SmdMode mode = core::SmdMode::kFeasible;
  };

  // Pre-mutation snapshot for one event. The caller must have validated
  // the event's ids against the world first; pre_event() reads them.
  struct PreEvent {
    EventKind kind;
    std::size_t old_num_users = 0;
    double old_cap = 0.0;     // touched user's effective cap
    double old_pair_w = 0.0;  // kUtilityChange: the pair's old value
  };

  RepairCore() = default;
  RepairCore(const RepairCore&) = delete;
  RepairCore& operator=(const RepairCore&) = delete;

  // From-scratch rebuild: a fresh engine on the world plus its run().
  void resolve(const WorldRef& w, const Context& ctx,
               core::SelectStats& select);

  [[nodiscard]] PreEvent pre_event(const WorldRef& w,
                                   const model::InstanceEvent& event,
                                   const EventKind& kind);
  // Finishes the incremental repair after the caller mutated the world
  // (and, on appends, rebound `w` to the rebuilt base). Fills
  // stats.users_refreshed / streams_released / streams_added.
  void post_event(const WorldRef& w, const model::InstanceEvent& event,
                  const PreEvent& pre, core::SelectStats& select,
                  RepairStats& stats);

  // The §2.2 race over the maintained state: the maintained totals plus
  // the world's Amax. O(1) + amax_value's O(|S| + deg).
  [[nodiscard]] core::RaceResult race(const WorldRef& w,
                                      core::SmdMode mode) const;

  // The maintained race totals: bit-equal to core::race_scores() over
  // user_w() and user_last_w() under the world's caps.
  [[nodiscard]] core::RaceScores race_scores() const noexcept {
    return totals_.value();
  }
  [[nodiscard]] std::span<const double> user_w() const noexcept {
    return engine_ ? engine_->user_w() : std::span<const double>{};
  }
  [[nodiscard]] std::span<const double> user_last_w() const noexcept {
    return engine_ ? engine_->user_last_w() : std::span<const double>{};
  }

  // A race winner of the maintained state as an Assignment (built from
  // the maintained semi-feasible assignment; core::materialize_winner).
  [[nodiscard]] model::Assignment winner_assignment(const WorldRef& w,
                                                    core::Winner winner) const;

 private:
  // A greedy completion over the pool (alive, not added, w̄ > kAbsEps)
  // by the engine's own run loop; returns the number of streams added.
  // Every stream that is added or tombstoned keeps w̄ <= 0 (the engine's
  // drop_stream, and propagation only lowers w̄), so repool() leaves it
  // out without a pass of its own.
  std::size_t complete(core::SelectStats& select);
  // Takes the engine's record of the picks since the last call into the
  // added sequence and the per-user lists; returns the number of picks.
  std::size_t take_picks();
  void rebind(const WorldRef& w);
  // Re-assigns user u by replaying its added streams in added order.
  void refresh_user(const WorldRef& w, model::UserId u,
                    std::span<const double> old_w);
  // Notes that user uu's accumulators or cap changed. flush_shares()
  // then swaps each noted user's old share in totals_ for its new one,
  // once per user however many of its pairs moved.
  void mark_stale(std::size_t uu) {
    if (stale_[uu] != 0) return;
    stale_[uu] = 1;
    stale_users_.push_back(uu);
  }
  void flush_shares(const WorldRef& w) noexcept;
  // Rebuilds every share and totals_ from the accumulators.
  void rebuild_shares(const WorldRef& w);

  // The engine and its workspace (owned: the drift check's fresh solves
  // reuse the session's workspace).
  core::SolveWorkspace ws_;
  std::optional<core::GreedyEngine> engine_;
  std::vector<std::vector<model::StreamId>> assigned_;  // per user, in order
  // Per user: its race share (core::user_race_share) as added to
  // totals_, so a change subtracts exactly what was added.
  std::vector<core::RaceScores> share_;
  core::RaceTotals totals_;
  std::vector<char> stale_;               // per user: share_ out of date
  std::vector<std::size_t> stale_users_;  // the users flagged in stale_
  std::vector<std::int32_t> added_seq_;   // per stream: add order, -1 = pool
  std::int32_t next_seq_ = 0;
  // Per-event scratch: the touched user's pre-event pair utilities, the
  // (add-sequence, adjacency-position) replay keys and their positions.
  std::vector<double> snap_w_;
  std::vector<std::pair<std::int32_t, std::uint32_t>> replay_;
  std::vector<std::uint32_t> replay_pos_;
};

// From-scratch §2.2 winner value of the world (scoring mode, no
// assignment build) — the drift-check yardstick. Bit-equal to
// solve_unit_skew of the materialized world: same engine, same race.
[[nodiscard]] double fresh_winner_objective(const WorldRef& w,
                                            const RepairCore::Context& ctx,
                                            core::SelectStats& select);

}  // namespace vdist::engine
