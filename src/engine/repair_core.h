// The §2 greedy's live repair state behind engine::Session's kRepair
// policy.
//
// WorldRef is a read-only binding of the serving world — the structural
// base plus the four effective arrays an InstanceOverlay maintains.
// RepairCore holds everything the incremental repair needs between
// events (per-user residuals, the added sequence, pool residual
// utilities w̄, budget accounting) and exposes the event lifecycle as
// pre_event / post_event around the caller's world mutation.
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

  // The §2.2 race over the maintained state's per-user accumulators.
  [[nodiscard]] core::RaceResult race(const WorldRef& w,
                                      core::SmdMode mode) const;

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

  // Mirrors GreedyEngine's invariants, owner-held so fresh scoring solves
  // can share the workspace without clobbering it.
  std::vector<double> rem_;          // per user: cap - assigned w
  std::vector<double> user_w_;       // per user: assigned (current) w
  std::vector<double> user_last_w_;  // per user: last assigned pair's w
  std::vector<std::vector<model::StreamId>> assigned_;  // per user, in order
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
