#include "engine/repair_core.h"

#include <algorithm>
#include <utility>

#include "util/float_cmp.h"

namespace vdist::engine {

using model::EventType;
using model::InstanceEvent;
using model::StreamId;
using model::UserId;

double WorldRef::pair_utility(UserId u, StreamId s) const noexcept {
  const auto e = base->find_edge(u, s);
  return e ? edge_utility[static_cast<std::size_t>(*e)] : 0.0;
}

EventKind classify_event(const InstanceEvent& event, std::size_t num_users,
                         std::size_t num_streams) noexcept {
  const EventType type = event.type;
  EventKind kind;
  kind.user_event =
      type == EventType::kUserJoin || type == EventType::kUserLeave ||
      type == EventType::kCapacityChange || type == EventType::kUtilityChange;
  kind.appends_user = type == EventType::kUserJoin && event.user >= 0 &&
                      static_cast<std::size_t>(event.user) == num_users;
  kind.appends_stream = type == EventType::kStreamAdd && event.stream >= 0 &&
                        static_cast<std::size_t>(event.stream) == num_streams;
  return kind;
}

void RepairCore::resolve(const WorldRef& w, const Context& ctx,
                         core::SelectStats& select) {
  engine_.emplace(w.view(), ws_, core::GreedyOptions{ctx.strategy, &ws_});
  assigned_.resize(w.num_users());
  for (auto& list : assigned_) list.clear();
  added_seq_.assign(w.num_streams(), -1);
  next_seq_ = 0;
  rebuild_shares(w);
  engine_->run();
  select.merge(engine_->select_stats());
  (void)take_picks();  // resolve needs no count
  flush_shares(w);
}

std::size_t RepairCore::take_picks() {
  const auto picks = engine_->added_streams();
  for (const StreamId s : picks) {
    added_seq_[static_cast<std::size_t>(s)] = next_seq_++;
    engine_->drop_stream(s);
  }
  for (const core::AssignedPair& p : engine_->assigned_pairs()) {
    const auto uu = static_cast<std::size_t>(p.user);
    assigned_[uu].push_back(p.stream);
    mark_stale(uu);
  }
  const std::size_t count = picks.size();
  engine_->clear_log();
  return count;
}

std::size_t RepairCore::complete(core::SelectStats& select) {
  engine_->repool();
  engine_->run();
  select.merge(engine_->select_stats());
  return take_picks();
}

// Re-binds the engine to the world an append rebuilt. Entity ids are
// stable, so the added sequence and the assigned lists survive; the
// accounting is replayed and the pool residuals are recomputed against
// the new edge-id space.
void RepairCore::rebind(const WorldRef& w) {
  const std::size_t U = w.num_users();
  const std::size_t S = w.num_streams();
  engine_->rebind(w.view());
  assigned_.resize(U);
  added_seq_.resize(S, -1);
  for (std::size_t uu = 0; uu < U; ++uu)
    if (!assigned_[uu].empty()) refresh_user(w, static_cast<UserId>(uu), {});
  for (std::size_t s = 0; s < S; ++s) {
    if (added_seq_[s] < 0)
      engine_->reset_wbar(static_cast<StreamId>(s));
    else
      engine_->drop_stream(static_cast<StreamId>(s));
  }
  rebuild_shares(w);
}

void RepairCore::refresh_user(const WorldRef& w, UserId u,
                              std::span<const double> old_w) {
  const model::Instance& inst = *w.base;
  const auto uu = static_cast<std::size_t>(u);
  const auto edges = inst.edges_of(u);
  const auto streams = inst.streams_of(u);
  replay_.clear();
  for (std::size_t t = 0; t < edges.size(); ++t) {
    const auto ss = static_cast<std::size_t>(streams[t]);
    if (added_seq_[ss] >= 0 &&
        w.edge_utility[static_cast<std::size_t>(edges[t])] > 0.0)
      replay_.emplace_back(added_seq_[ss], static_cast<std::uint32_t>(t));
  }
  std::sort(replay_.begin(), replay_.end());
  replay_pos_.clear();
  for (const auto& key : replay_) replay_pos_.push_back(key.second);
  const std::size_t kept = engine_->reassign_user(u, replay_pos_, old_w);
  // Only an added stream with w > 0 — one in the replay — can have
  // gained w̄ here; put it back out of reach of the next repool().
  for (const std::uint32_t t : replay_pos_) engine_->drop_stream(streams[t]);
  assigned_[uu].clear();
  for (std::size_t i = 0; i < kept; ++i)
    assigned_[uu].push_back(streams[replay_pos_[i]]);
  mark_stale(uu);
}

void RepairCore::flush_shares(const WorldRef& w) noexcept {
  const auto user_w = engine_->user_w();
  const auto user_last_w = engine_->user_last_w();
  const auto swap_share = [&](std::size_t uu) {
    const core::RaceScores next =
        core::user_race_share(user_w[uu], user_last_w[uu], w.capacity[uu]);
    totals_.sub(share_[uu]);
    totals_.add(next);
    share_[uu] = next;
    stale_[uu] = 0;
  };
  // The sum is exact, so the update order is free: a long list (a
  // completion from scratch marks most users) is swept in user order,
  // which walks the per-user arrays sequentially instead of at random.
  if (stale_users_.size() * 8 > stale_.size()) {
    for (std::size_t uu = 0; uu < stale_.size(); ++uu)
      if (stale_[uu] != 0) swap_share(uu);
  } else {
    for (const std::size_t uu : stale_users_) swap_share(uu);
  }
  stale_users_.clear();
}

void RepairCore::rebuild_shares(const WorldRef& w) {
  const std::size_t U = w.num_users();
  const auto user_w = engine_->user_w();
  const auto user_last_w = engine_->user_last_w();
  share_.resize(U);
  stale_.assign(U, 0);
  stale_users_.clear();
  totals_ = {};
  for (std::size_t uu = 0; uu < U; ++uu) {
    share_[uu] =
        core::user_race_share(user_w[uu], user_last_w[uu], w.capacity[uu]);
    totals_.add(share_[uu]);
  }
}

core::RaceResult RepairCore::race(const WorldRef& w,
                                  core::SmdMode mode) const {
  return core::race(mode, totals_.value(), core::amax_value(w.view()));
}

model::Assignment RepairCore::winner_assignment(const WorldRef& w,
                                                core::Winner winner) const {
  model::Assignment semi(*w.base);
  for (std::size_t uu = 0; uu < assigned_.size(); ++uu)
    for (const StreamId s : assigned_[uu])
      semi.assign(static_cast<UserId>(uu), s);
  return core::materialize_winner(w.view(), winner, std::move(semi),
                                  engine_->user_w());
}

RepairCore::PreEvent RepairCore::pre_event(const WorldRef& w,
                                           const InstanceEvent& event,
                                           const EventKind& kind) {
  PreEvent pre;
  pre.kind = kind;
  pre.old_num_users = w.num_users();
  if (kind.appends_user || kind.appends_stream || !kind.user_event)
    return pre;
  // Pre-event snapshot: the user's cap and per-adjacency utilities.
  const auto uu = static_cast<std::size_t>(event.user);
  pre.old_cap = w.capacity[uu];
  const auto edges = w.base->edges_of(event.user);
  snap_w_.resize(edges.size());
  for (std::size_t t = 0; t < edges.size(); ++t)
    snap_w_[t] = w.edge_utility[static_cast<std::size_t>(edges[t])];
  if (event.type == EventType::kUtilityChange)
    pre.old_pair_w = w.pair_utility(event.user, event.stream);
  return pre;
}

void RepairCore::post_event(const WorldRef& w, const InstanceEvent& event,
                            const PreEvent& pre, core::SelectStats& select,
                            RepairStats& stats) {
  const model::Instance& inst = *w.base;
  const EventType type = event.type;
  bool needs_completion = false;

  if (pre.kind.appends_user || pre.kind.appends_stream) {
    rebind(w);
    if (pre.kind.appends_user) {
      refresh_user(w, static_cast<UserId>(pre.old_num_users), {});
      stats.users_refreshed = 1;
    }
    needs_completion = true;
  } else if (pre.kind.user_event) {
    const auto u = event.user;
    refresh_user(w, u, snap_w_);
    engine_->resort_row(u);
    stats.users_refreshed = 1;
    switch (type) {
      case EventType::kUserJoin:
        needs_completion = true;
        break;
      case EventType::kUserLeave:
        needs_completion = false;  // w̄ only decreased, budget unchanged
        break;
      case EventType::kCapacityChange:
        needs_completion =
            w.capacity[static_cast<std::size_t>(u)] > pre.old_cap;
        break;
      case EventType::kUtilityChange: {
        const double new_w = event.value;
        const bool on_added =
            added_seq_[static_cast<std::size_t>(event.stream)] >= 0;
        // More room appears when an assigned pair shrinks (capacity is
        // freed) or a pool pair grows (the pool stream got stronger).
        needs_completion =
            on_added ? new_w < pre.old_pair_w : new_w > pre.old_pair_w;
        break;
      }
      default:
        break;
    }
  } else if (type == EventType::kStreamRemove) {
    const StreamId s = event.stream;
    const auto ss = static_cast<std::size_t>(s);
    if (added_seq_[ss] >= 0) {
      // Release: give the stream back, refresh every user it served.
      // Pool deltas only depend on each user's residual change (the
      // other pairs' utilities are untouched), so no utility snapshot.
      added_seq_[ss] = -1;
      engine_->release_stream(s);
      stats.streams_released = 1;
      for (model::EdgeId e = inst.first_edge(s); e < inst.last_edge(s); ++e) {
        const UserId u = inst.edge_user(e);
        const auto& list = assigned_[static_cast<std::size_t>(u)];
        if (std::find(list.begin(), list.end(), s) == list.end()) continue;
        refresh_user(w, u, {});
        ++stats.users_refreshed;
      }
      needs_completion = true;  // budget and capacity were freed
    }
    engine_->drop_stream(s);
    // The tombstone leaves s's entries in its users' sorted rows above
    // their new value of 0; rows only have to be exact for pool streams,
    // and a restore re-sorts them.
  } else {  // kStreamAdd restore
    // The restored stream re-enters the pool mid-solve: its residual is
    // what the current residual caps leave it, and its users' rows get
    // its utilities back. (An added stream is alive: nothing to restore.)
    const StreamId s = event.stream;
    if (added_seq_[static_cast<std::size_t>(s)] < 0) {
      engine_->reset_wbar(s);
      for (model::EdgeId e = inst.first_edge(s); e < inst.last_edge(s); ++e)
        engine_->resort_row(inst.edge_user(e));
    }
    needs_completion = true;
  }

  if (needs_completion) stats.streams_added = complete(select);
  flush_shares(w);
}

double fresh_winner_objective(const WorldRef& w, const RepairCore::Context& ctx,
                              core::SelectStats& select) {
  const model::InstanceView view = w.view();
  core::GreedyOptions gopts;
  gopts.strategy = ctx.strategy;
  gopts.workspace = ctx.workspace;
  gopts.build_assignment = false;  // scoring mode: values only
  core::GreedyEngine engine(view, *ctx.workspace, gopts);
  engine.run();
  select.merge(engine.result().select);
  return core::race(ctx.mode, engine.race_scores(), core::amax_value(view))
      .value;
}

}  // namespace vdist::engine
