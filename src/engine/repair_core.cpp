#include "engine/repair_core.h"

#include <algorithm>
#include <utility>

#include "util/float_cmp.h"
#include "util/hotpath.h"

namespace vdist::engine {

using model::EventType;
using model::InstanceEvent;
using model::StreamId;
using model::UserId;
using util::approx_le;
using util::kAbsEps;

namespace {

[[nodiscard]] double clamp0(double x) noexcept { return x > 0.0 ? x : 0.0; }

}  // namespace

double WorldRef::pair_utility(UserId u, StreamId s) const noexcept {
  const auto e = base->find_edge(u, s);
  return e ? edge_utility[static_cast<std::size_t>(*e)] : 0.0;
}

void RepairCore::refresh_cost_arrays(const WorldRef& w) {
  const model::Instance& inst = *w.base;
  const std::size_t S = w.num_streams();
  cost_.resize(S);
  for (std::size_t s = 0; s < S; ++s)
    cost_[s] = inst.cost(static_cast<StreamId>(s), 0);
  cost_order_.resize(S);
  for (std::size_t s = 0; s < S; ++s)
    cost_order_[s] = static_cast<StreamId>(s);
  std::sort(cost_order_.begin(), cost_order_.end(),
            [&](StreamId a, StreamId b) {
              const double ca = cost_[static_cast<std::size_t>(a)];
              const double cb = cost_[static_cast<std::size_t>(b)];
              if (ca != cb) return ca < cb;
              return a < b;
            });
}

void RepairCore::reset(const WorldRef& w) {
  const std::size_t U = w.num_users();
  const std::size_t S = w.num_streams();
  rem_.resize(U);
  for (std::size_t u = 0; u < U; ++u) rem_[u] = w.capacity[u];
  user_w_.assign(U, 0.0);
  user_last_w_.assign(U, 0.0);
  assigned_.resize(U);
  for (auto& list : assigned_) list.clear();
  rebuild_shares(w);
  // Engine-identical init: a pool stream's residual utility starts at its
  // (effective) total — tombstoned streams start dead at 0.
  wbar_.resize(S);
  for (std::size_t s = 0; s < S; ++s) wbar_[s] = w.total_utility[s];
  refresh_cost_arrays(w);
  added_seq_.assign(S, -1);
  next_seq_ = 0;
  used_ = 0.0;
}

void RepairCore::resolve(const WorldRef& w, const Context& ctx,
                         core::SelectStats& select) {
  reset(w);
  (void)run_completion(w, ctx, select);  // resolve needs no count
  flush_shares(w);
}

// Re-derives every per-entity array after an overlay rebuild (append).
// Entity ids are stable, so the assigned lists survive; the accounting
// and the pool residuals are recomputed against the new edge-id space.
void RepairCore::rebind(const WorldRef& w) {
  const model::Instance& inst = *w.base;
  const std::size_t U = w.num_users();
  const std::size_t S = w.num_streams();
  rem_.resize(U);
  user_w_.resize(U);
  user_last_w_.resize(U);
  assigned_.resize(U);
  const std::size_t old_S = added_seq_.size();
  added_seq_.resize(S);
  for (std::size_t s = old_S; s < S; ++s) added_seq_[s] = -1;
  refresh_cost_arrays(w);
  for (std::size_t uu = 0; uu < U; ++uu) {
    const auto u = static_cast<UserId>(uu);
    rem_[uu] = w.capacity[uu];
    user_w_[uu] = 0.0;
    user_last_w_[uu] = 0.0;
    for (const StreamId s : assigned_[uu]) {
      const double wv = w.pair_utility(u, s);
      user_w_[uu] += wv;
      user_last_w_[uu] = wv;
      rem_[uu] -= wv;
    }
  }
  rebuild_shares(w);
  wbar_.assign(S, 0.0);
  for (std::size_t ss = 0; ss < S; ++ss) {
    const auto s = static_cast<StreamId>(ss);
    if (added_seq_[ss] >= 0) continue;
    double total = 0.0;
    for (model::EdgeId e = inst.first_edge(s); e < inst.last_edge(s); ++e) {
      const double wv = w.edge_utility[static_cast<std::size_t>(e)];
      if (wv <= 0.0) continue;
      const double c =
          clamp0(rem_[static_cast<std::size_t>(inst.edge_user(e))]);
      total += wv < c ? wv : c;
    }
    wbar_[ss] = total;
  }
}

void RepairCore::refresh_user(const WorldRef& w, UserId u, double old_clamp,
                              const double* old_w) {
  const model::Instance& inst = *w.base;
  const auto uu = static_cast<std::size_t>(u);
  const auto edges = inst.edges_of(u);
  const auto streams = inst.streams_of(u);

  // Release and replay the added sequence for this user alone.
  assigned_[uu].clear();
  user_w_[uu] = 0.0;
  user_last_w_[uu] = 0.0;
  rem_[uu] = w.capacity[uu];
  replay_.clear();
  for (std::size_t t = 0; t < edges.size(); ++t) {
    const auto ss = static_cast<std::size_t>(streams[t]);
    if (added_seq_[ss] >= 0 &&
        w.edge_utility[static_cast<std::size_t>(edges[t])] > 0.0)
      replay_.emplace_back(added_seq_[ss], static_cast<std::int32_t>(t));
  }
  std::sort(replay_.begin(), replay_.end());
  for (const auto& [seq, t] : replay_) {
    if (rem_[uu] <= kAbsEps) break;
    const double wv = w.edge_utility[static_cast<std::size_t>(
        edges[static_cast<std::size_t>(t)])];
    assigned_[uu].push_back(streams[static_cast<std::size_t>(t)]);
    user_w_[uu] += wv;
    user_last_w_[uu] = wv;
    rem_[uu] -= wv;
  }
  mark_stale(uu);

  // Exact w̄ deltas for the user's pool streams: contribution moved from
  // min(w_old, old_clamp) to min(w_new, new_clamp).
  const double new_clamp = clamp0(rem_[uu]);
  for (std::size_t t = 0; t < edges.size(); ++t) {
    const auto ss = static_cast<std::size_t>(streams[t]);
    if (added_seq_[ss] >= 0 || !w.alive(streams[t])) continue;
    const double w_new = w.edge_utility[static_cast<std::size_t>(edges[t])];
    const double w_old = old_w != nullptr ? old_w[t] : w_new;
    const double contrib_new = w_new > 0.0 ? std::min(w_new, new_clamp) : 0.0;
    const double contrib_old = w_old > 0.0 ? std::min(w_old, old_clamp) : 0.0;
    const double delta = contrib_new - contrib_old;
    if (delta != 0.0) wbar_[ss] += delta;
  }
}

void RepairCore::add_stream_state(const WorldRef& w, StreamId s, double cost,
                                  core::StreamSelector* selector) {
  const model::Instance& inst = *w.base;
  used_ += cost;
  added_seq_[static_cast<std::size_t>(s)] = next_seq_++;
  std::size_t rows = 0;
  std::size_t pairs = 0;
  const model::EdgeId lo = inst.first_edge(s);
  const model::EdgeId hi = inst.last_edge(s);
  for (model::EdgeId e = lo; e < hi; ++e) {
    const UserId u = inst.edge_user(e);
    const auto uu = static_cast<std::size_t>(u);
    if (e + 1 < hi) {
      // As in GreedyEngine::add_stream: the stream's users are sparse in
      // user space, so pull the next residual and adjacency row early.
      const UserId un = inst.edge_user(e + 1);
      VDIST_PREFETCH(rem_.data() + static_cast<std::size_t>(un));
      VDIST_PREFETCH(inst.edges_of(un).data());
    }
    const double wv = w.edge_utility[static_cast<std::size_t>(e)];
    if (rem_[uu] <= kAbsEps || wv <= 0.0) continue;
    assigned_[uu].push_back(s);
    user_w_[uu] += wv;
    user_last_w_[uu] = wv;
    mark_stale(uu);
    const double rem_old = rem_[uu];
    rem_[uu] -= wv;
    const double rem_new_clamped = clamp0(rem_[uu]);
    // The same per-pair delta arithmetic as GreedyEngine::add_stream —
    // only pairs whose contribution actually changed are touched. (The
    // instance CSR is unsorted here, so the scan can't early-break like
    // the greedy's descending-w rows; it still skips unchanged pairs.)
    const auto adj_edges = inst.edges_of(u);
    const auto adj_streams = inst.streams_of(u);
    ++rows;
    for (std::size_t t = 0; t < adj_edges.size(); ++t) {
      const StreamId sp = adj_streams[t];
      const auto sps = static_cast<std::size_t>(sp);
      if (sp == s || added_seq_[sps] >= 0) continue;
      const double we =
          w.edge_utility[static_cast<std::size_t>(adj_edges[t])];
      if (we <= rem_new_clamped) continue;  // contribution unchanged
      const double before = we < rem_old ? we : rem_old;
      wbar_[sps] += rem_new_clamped - before;
      ++pairs;
      if (selector != nullptr && selector->contains(sp)) {
        if (wbar_[sps] <= kAbsEps)
          selector->remove(sp);
        else
          selector->update(sp, wbar_[sps]);
      }
    }
  }
  wbar_[static_cast<std::size_t>(s)] = 0.0;
  if (selector != nullptr) selector->note_propagation(rows, pairs);
}

std::size_t RepairCore::run_completion(const WorldRef& w, const Context& ctx,
                                       core::SelectStats& select) {
  const std::size_t S = wbar_.size();
  core::StreamSelector selector;
  selector.reset(*ctx.workspace, wbar_, cost_, ctx.strategy);
  for (std::size_t s = 0; s < S; ++s)
    if (added_seq_[s] >= 0 || wbar_[s] <= kAbsEps)
      selector.remove(static_cast<StreamId>(s));

  const double B = w.budget();
  std::size_t added = 0;
  std::size_t cursor = 0;
  for (;;) {
    // Bulk budget cutoff, as in the untraced GreedyEngine::run(): once
    // the cheapest pool stream no longer fits, nothing ever will.
    while (cursor < cost_order_.size() &&
           !selector.contains(cost_order_[cursor]))
      ++cursor;
    if (cursor >= cost_order_.size()) break;
    if (!approx_le(
            used_ + cost_[static_cast<std::size_t>(cost_order_[cursor])], B))
      break;
    const StreamId best = selector.pop_best();
    if (best == model::kInvalidStream) break;
    if (wbar_[static_cast<std::size_t>(best)] <= kAbsEps) break;
    if (!approx_le(used_ + cost_[static_cast<std::size_t>(best)], B))
      continue;  // skipped this round; future events may readmit it
    add_stream_state(w, best, cost_[static_cast<std::size_t>(best)],
                     &selector);
    ++added;
  }
  select.merge(selector.stats());
  return added;
}

void RepairCore::flush_shares(const WorldRef& w) noexcept {
  const auto swap_share = [&](std::size_t uu) {
    const core::RaceScores next =
        core::user_race_share(user_w_[uu], user_last_w_[uu], w.capacity[uu]);
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
  share_.resize(U);
  stale_.assign(U, 0);
  stale_users_.clear();
  totals_ = {};
  for (std::size_t uu = 0; uu < U; ++uu) {
    share_[uu] =
        core::user_race_share(user_w_[uu], user_last_w_[uu], w.capacity[uu]);
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
  return core::materialize_winner(w.view(), winner, std::move(semi), user_w_);
}

RepairCore::PreEvent RepairCore::pre_event(const WorldRef& w,
                                           const InstanceEvent& event) {
  const EventType type = event.type;
  PreEvent pre;
  pre.user_event =
      type == EventType::kUserJoin || type == EventType::kUserLeave ||
      type == EventType::kCapacityChange || type == EventType::kUtilityChange;
  pre.appends_user = type == EventType::kUserJoin && event.user >= 0 &&
                     static_cast<std::size_t>(event.user) == w.num_users();
  pre.appends_stream =
      type == EventType::kStreamAdd && event.stream >= 0 &&
      static_cast<std::size_t>(event.stream) == w.num_streams();
  pre.old_num_users = w.num_users();
  if (pre.appends_user || pre.appends_stream) return pre;
  if (pre.user_event) {
    // Pre-event snapshot: clamped residual and per-adjacency utilities.
    const auto uu = static_cast<std::size_t>(event.user);
    pre.old_clamp = clamp0(rem_[uu]);
    pre.old_cap = w.capacity[uu];
    const auto edges = w.base->edges_of(event.user);
    snap_w_.resize(edges.size());
    for (std::size_t t = 0; t < edges.size(); ++t)
      snap_w_[t] = w.edge_utility[static_cast<std::size_t>(edges[t])];
    if (type == EventType::kUtilityChange)
      pre.old_pair_w = w.pair_utility(event.user, event.stream);
  }
  return pre;
}

void RepairCore::post_event(const WorldRef& w, const InstanceEvent& event,
                            const PreEvent& pre, const Context& ctx,
                            core::SelectStats& select, RepairStats& stats) {
  const model::Instance& inst = *w.base;
  const EventType type = event.type;
  bool needs_completion = false;

  if (pre.appends_user || pre.appends_stream) {
    rebind(w);
    if (pre.appends_user) {
      const auto u = static_cast<UserId>(pre.old_num_users);
      refresh_user(w, u, clamp0(rem_[pre.old_num_users]), nullptr);
      stats.users_refreshed = 1;
    }
    needs_completion = true;
  } else if (pre.user_event) {
    const auto u = event.user;
    refresh_user(w, u, pre.old_clamp, snap_w_.data());
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
      used_ -= cost_[ss];
      stats.streams_released = 1;
      for (model::EdgeId e = inst.first_edge(s); e < inst.last_edge(s); ++e) {
        const UserId u = inst.edge_user(e);
        const auto uu = static_cast<std::size_t>(u);
        const auto& list = assigned_[uu];
        if (std::find(list.begin(), list.end(), s) == list.end()) continue;
        refresh_user(w, u, clamp0(rem_[uu]), nullptr);
        ++stats.users_refreshed;
      }
      needs_completion = true;  // budget and capacity were freed
    }
    wbar_[ss] = 0.0;
  } else {  // kStreamAdd restore
    const StreamId s = event.stream;
    const auto ss = static_cast<std::size_t>(s);
    // The restored stream re-enters the pool mid-solve: its residual is
    // what the current residual caps leave it.
    double total = 0.0;
    for (model::EdgeId e = inst.first_edge(s); e < inst.last_edge(s); ++e) {
      const double wv = w.edge_utility[static_cast<std::size_t>(e)];
      if (wv <= 0.0) continue;
      const double c =
          clamp0(rem_[static_cast<std::size_t>(inst.edge_user(e))]);
      total += wv < c ? wv : c;
    }
    wbar_[ss] = total;
    needs_completion = true;
  }

  if (needs_completion) stats.streams_added = run_completion(w, ctx, select);
  flush_shares(w);
}

double fresh_winner_objective(const WorldRef& w, const RepairCore::Context& ctx,
                              core::SelectStats& select) {
  const model::InstanceView view = w.view();
  core::GreedyOptions gopts;
  gopts.strategy = ctx.strategy;
  gopts.workspace = ctx.workspace;
  gopts.record_trace = false;
  gopts.build_assignment = false;  // scoring mode: values only
  core::GreedyEngine engine(view, *ctx.workspace, gopts);
  engine.run();
  select.merge(engine.result().select);
  return core::race(ctx.mode, engine.race_scores(), core::amax_value(view))
      .value;
}

}  // namespace vdist::engine
