// The §2 greedy's live repair state behind engine::Session's kRepair
// policy.
//
// WorldRef is a read-only binding of the serving world — the structural
// base plus the four effective arrays an InstanceOverlay maintains.
// RepairCore holds everything the incremental repair needs between
// events (per-user residuals, the added sequence, pool residual
// utilities w̄, budget accounting, the §2.2 race's exact totals kept per
// touched user) and exposes the event lifecycle as pre_event /
// post_event around the caller's world mutation.
#pragma once

#include <cstdint>
#include <span>
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

class RepairCore {
 public:
  // Per-call solve context (the owner's knobs; never stored).
  struct Context {
    core::SolveWorkspace* workspace = nullptr;
    core::SelectStrategy strategy = core::SelectStrategy::kDeltaHeap;
    core::SmdMode mode = core::SmdMode::kFeasible;
  };

  // Pre-mutation snapshot for one event. The caller must have validated
  // the event's ids against the world first; pre_event() reads them.
  struct PreEvent {
    bool user_event = false;
    bool appends_user = false;
    bool appends_stream = false;
    std::size_t old_num_users = 0;
    double old_clamp = 0.0;   // touched user's clamped residual
    double old_cap = 0.0;     // touched user's effective cap
    double old_pair_w = 0.0;  // kUtilityChange: the pair's old value
  };

  // From-scratch rebuild: engine-identical init (pool w̄ = effective
  // totals, tombstoned streams start dead at 0) + greedy completion.
  void resolve(const WorldRef& w, const Context& ctx,
               core::SelectStats& select);

  [[nodiscard]] PreEvent pre_event(const WorldRef& w,
                                   const model::InstanceEvent& event);
  // Finishes the incremental repair after the caller mutated the world
  // (and, on appends, rebound `w` to the rebuilt base). Fills
  // stats.users_refreshed / streams_released / streams_added.
  void post_event(const WorldRef& w, const model::InstanceEvent& event,
                  const PreEvent& pre, const Context& ctx,
                  core::SelectStats& select, RepairStats& stats);

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
    return user_w_;
  }
  [[nodiscard]] std::span<const double> user_last_w() const noexcept {
    return user_last_w_;
  }

  // A race winner of the maintained state as an Assignment (built from
  // the maintained semi-feasible assignment; core::materialize_winner).
  [[nodiscard]] model::Assignment winner_assignment(const WorldRef& w,
                                                    core::Winner winner) const;

 private:
  [[nodiscard]] std::size_t run_completion(const WorldRef& w,
                                           const Context& ctx,
                                           core::SelectStats& select);
  void reset(const WorldRef& w);
  void rebind(const WorldRef& w);
  void refresh_cost_arrays(const WorldRef& w);
  void refresh_user(const WorldRef& w, model::UserId u, double old_clamp,
                    const double* old_w);
  void add_stream_state(const WorldRef& w, model::StreamId s, double cost,
                        core::StreamSelector* selector);
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

  // Mirrors GreedyEngine's invariants, owner-held so fresh scoring solves
  // can share the workspace without clobbering it.
  std::vector<double> rem_;          // per user: cap - assigned w
  std::vector<double> user_w_;       // per user: assigned (current) w
  std::vector<double> user_last_w_;  // per user: last assigned pair's w
  std::vector<std::vector<model::StreamId>> assigned_;  // per user, in order
  // Per user: its race share (core::user_race_share) as added to
  // totals_, so a change subtracts exactly what was added.
  std::vector<core::RaceScores> share_;
  core::RaceTotals totals_;
  std::vector<char> stale_;               // per user: share_ out of date
  std::vector<std::size_t> stale_users_;  // the users flagged in stale_
  std::vector<double> wbar_;                 // per stream (pool streams live)
  std::vector<double> cost_;                 // per stream
  std::vector<model::StreamId> cost_order_;  // ascending cost
  std::vector<std::int32_t> added_seq_;      // per stream: add order, -1 = pool
  std::int32_t next_seq_ = 0;
  double used_ = 0.0;
  // Per-event scratch: the touched user's pre-event pair utilities and
  // the (add-sequence, adjacency-position) replay keys.
  std::vector<double> snap_w_;
  std::vector<std::pair<std::int32_t, std::int32_t>> replay_;
};

// From-scratch §2.2 winner value of the world (scoring mode, no
// assignment build) — the drift-check yardstick. Bit-equal to
// solve_unit_skew of the materialized world: same engine, same race.
[[nodiscard]] double fresh_winner_objective(const WorldRef& w,
                                            const RepairCore::Context& ctx,
                                            core::SelectStats& select);

}  // namespace vdist::engine
