#include "core/greedy.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "util/float_cmp.h"
#include "util/hotpath.h"
#include "util/radix.h"

namespace vdist::core {

using model::Assignment;
using model::EdgeId;
using model::Instance;
using model::InstanceView;
using model::StreamId;
using model::UserId;
using util::approx_le;

namespace {

[[nodiscard]] double clamp0(double x) noexcept { return x > 0.0 ? x : 0.0; }

// Lemma 2.6's Amax stream: the first stream of maximal total utility, or
// kInvalidStream when no stream has positive total.
[[nodiscard]] StreamId amax_stream(const InstanceView& view) noexcept {
  StreamId best = model::kInvalidStream;
  double best_w = -1.0;
  for (std::size_t s = 0; s < view.num_streams(); ++s) {
    const double w = view.total_utility(static_cast<StreamId>(s));
    if (w > best_w) {
      best_w = w;
      best = static_cast<StreamId>(s);
    }
  }
  return best_w > 0.0 ? best : model::kInvalidStream;
}

}  // namespace

const char* winner_name(Winner winner) noexcept {
  switch (winner) {
    case Winner::kGreedy:
      return "greedy";
    case Winner::kA1:
      return "A1";
    case Winner::kA2:
      return "A2";
    case Winner::kAmax:
      break;
  }
  return "Amax";
}

RaceScores race_scores(const InstanceView& view,
                       std::span<const double> user_w,
                       std::span<const double> user_last_w) {
  RaceTotals totals;
  const std::size_t users = view.num_users();
  for (std::size_t u = 0; u < users; ++u)
    totals.add(user_race_share(user_w[u], user_last_w[u],
                               view.capacity(static_cast<UserId>(u))));
  return totals.value();
}

double amax_value(const InstanceView& view) noexcept {
  const StreamId best = amax_stream(view);
  if (best == model::kInvalidStream) return 0.0;
  util::ExactSum w_amax;
  for (EdgeId e = view.first_edge(best); e < view.last_edge(best); ++e) {
    const double w = view.edge_utility(e);
    if (w > 0.0) w_amax.add(std::min(view.capacity(view.edge_user(e)), w));
  }
  return w_amax.value();
}

RaceResult race(SmdMode mode, const RaceScores& scores,
                double w_amax) noexcept {
  if (mode == SmdMode::kAugmented) {
    if (scores.capped >= w_amax) return {scores.capped, Winner::kGreedy};
    return {w_amax, Winner::kAmax};
  }
  if (scores.w1 >= scores.w2 && scores.w1 >= w_amax)
    return {scores.w1, Winner::kA1};
  if (scores.w2 >= w_amax) return {scores.w2, Winner::kA2};
  return {w_amax, Winner::kAmax};
}

Assignment materialize_winner(const InstanceView& view, Winner winner,
                              Assignment semi,
                              std::span<const double> user_w) {
  if (winner == Winner::kGreedy) return semi;
  if (winner == Winner::kAmax) return best_single_stream(view);
  const bool keep_rest = winner == Winner::kA1;
  Assignment out(view.base());
  for (std::size_t uu = 0; uu < view.num_users(); ++uu) {
    const auto u = static_cast<UserId>(uu);
    const auto streams = semi.streams_of(u);
    if (streams.empty()) continue;
    if (keep_rest) {
      const bool over_cap = !approx_le(user_w[uu], view.capacity(u));
      const std::size_t keep = streams.size() - (over_cap ? 1 : 0);
      for (std::size_t t = 0; t < keep; ++t) out.assign(u, streams[t]);
    } else {
      out.assign(u, streams.back());
    }
  }
  return out;
}

void CompletionTrace::clear() {
  ++revision;
  pick.clear();
  applied.clear();
  runner_up.clear();
  pick_eff.clear();
  margin_clear.clear();
  final_w1_add.clear();
  final_w2_add.clear();
  tie_begin.clear();
  tie_member.clear();
  assign_begin.clear();
  assign_user.clear();
  assign_w.clear();
  assign_umask.clear();
  touch_begin.clear();
  touch_stream.clear();
  touch_wbar.clear();
  death_begin.clear();
  death_stream.clear();
  ended_on_budget = false;
  end_used = 0.0;
  final_user_w.clear();
  final_user_last_w.clear();
  user_tl_begin.clear();
  tl_pick.clear();
  tl_w.clear();
}

void CompletionTrace::finalize(const model::InstanceView& view,
                               std::span<const double> user_w,
                               std::span<const double> user_last_w) {
  const std::size_t num_users = view.num_users();
  // CSR sentinels (the recording loop pushed one begin per pick).
  tie_begin.push_back(static_cast<std::uint32_t>(tie_member.size()));
  assign_begin.push_back(static_cast<std::uint32_t>(assign_user.size()));
  touch_begin.push_back(static_cast<std::uint32_t>(touch_stream.size()));
  death_begin.push_back(static_cast<std::uint32_t>(death_stream.size()));
  final_user_w.assign(user_w.begin(), user_w.end());
  final_user_last_w.assign(user_last_w.begin(), user_last_w.end());
  // Per-user split shares at completion end, as race_scores() derives
  // them: a clean user in a full-consume replay (core/replay.cpp)
  // contributes exactly these two terms.
  final_w1_add.resize(num_users);
  final_w2_add.resize(num_users);
  for (std::size_t uu = 0; uu < num_users; ++uu) {
    const RaceScores share =
        user_race_share(final_user_w[uu], final_user_last_w[uu],
                        view.capacity(static_cast<model::UserId>(uu)));
    final_w1_add[uu] = share.w1;
    final_w2_add[uu] = share.w2;
  }
  // Invert the per-pick assign CSR into per-user timelines (pick order is
  // preserved within each user: picks are scanned in order).
  user_tl_begin.assign(num_users + 1, 0);
  for (const model::UserId u : assign_user)
    ++user_tl_begin[static_cast<std::size_t>(u) + 1];
  for (std::size_t u = 1; u <= num_users; ++u)
    user_tl_begin[u] += user_tl_begin[u - 1];
  tl_pick.resize(assign_user.size());
  tl_w.resize(assign_user.size());
  std::vector<std::uint32_t> cursor(user_tl_begin.begin(),
                                    user_tl_begin.end() - 1);
  const std::size_t picks = pick.size();
  for (std::size_t i = 0; i < picks; ++i) {
    for (std::uint32_t j = assign_begin[i]; j < assign_begin[i + 1]; ++j) {
      const auto u = static_cast<std::size_t>(assign_user[j]);
      const std::uint32_t at = cursor[u]++;
      tl_pick[at] = static_cast<std::uint32_t>(i);
      tl_w[at] = assign_w[j];
    }
  }
}

GreedyEngine::GreedyEngine(InstanceView view, SolveWorkspace& ws,
                           const GreedyOptions& opts)
    : view_(view),
      ws_(ws),
      strategy_(opts.strategy),
      build_assignment_(opts.build_assignment),
      result_{Assignment(view.base()), 0.0, {}, {}} {
  init();
}

void GreedyEngine::init() {
  const std::size_t users = view_.num_users();
  const std::size_t streams = view_.num_streams();
  ws_.taken.assign(streams, 0);
  ws_.rem.resize(users);
  for (std::size_t u = 0; u < users; ++u)
    ws_.rem[u] = view_.capacity(static_cast<UserId>(u));
  ws_.user_w.assign(users, 0.0);
  ws_.user_last_w.assign(users, 0.0);
  ws_.wbar.resize(streams);
  ws_.cost.resize(streams);
  for (std::size_t s = 0; s < streams; ++s) {
    ws_.wbar[s] = view_.total_utility(static_cast<StreamId>(s));
    ws_.cost[s] = view_.cost(static_cast<StreamId>(s));
  }
  // User-major copy of the (surrogate) utilities, each user's adjacency
  // sorted by DESCENDING utility with the stream ids in parallel. The w̄
  // propagation of add_stream only has to touch pairs whose fractional
  // contribution min(w, rem) actually changed — with the row sorted, the
  // first pair with w <= rem ends the scan (everything after it is
  // unchanged too). Reordering is exact: each pair's delta lands in its
  // own stream accumulator, so per-user visit order never affects a
  // single floating-point sum.
  ws_.user_edge_w.resize(view_.num_edges());
  ws_.user_edge_s.resize(view_.num_edges());
  sort_rows(0, users);
  // Streams by ascending cost: run()'s budget cutoff reads the cheapest
  // stream still in the pool off this order. Stable LSD radix on the
  // order-preserving key keeps cost ties in ascending-id input order —
  // exactly the old (cost, id) comparator's tie rule, a fraction of the
  // branches.
  ws_.cost_order.resize(streams);
  ws_.radix_keys.resize(streams);
  for (std::size_t s = 0; s < streams; ++s) {
    ws_.cost_order[s] = static_cast<StreamId>(s);
    ws_.radix_keys[s] = util::radix_key_from_double(ws_.cost[s]);
  }
  util::radix_sort_pairs(ws_.radix_keys, ws_.cost_order,
                         ws_.radix_key_scratch, ws_.radix_val_scratch);
  // Propagation-batching scratch: the mark array stays all-zero between
  // picks (add_stream clears the marks it set).
  ws_.touched.clear();
  ws_.touch_mark.assign(streams, 0);
  ws_.pair_log.clear();
  repool();
}

void GreedyEngine::sort_rows(std::size_t first, std::size_t last) {
  // Each row is sorted in place in the destination arrays by an
  // in-tandem insertion sort — rows are short on every registered
  // scenario, and skipping the build-pairs / sort / copy-back round trip
  // halves this loop's share of the constructor. The order (w desc,
  // stream asc on ties) is a unique total order per row (within-user CSR
  // streams are strictly ascending), so the big-row std::sort spill
  // below produces the bit-identical arrays.
  constexpr std::size_t kInsertionSortMaxDeg = 48;
  std::vector<std::pair<double, StreamId>> spill;
  for (std::size_t u = first; u < last; ++u) {
    const auto edges = view_.edges_of(static_cast<UserId>(u));
    const auto streams_of_u = view_.streams_of(static_cast<UserId>(u));
    const std::size_t deg = edges.size();
    const std::size_t begin = view_.user_edge_begin(static_cast<UserId>(u));
    double* const w_row = ws_.user_edge_w.data() + begin;
    StreamId* const s_row = ws_.user_edge_s.data() + begin;
    if (deg <= kInsertionSortMaxDeg) {
      // Gather first — the utility reads are a random-index gather over
      // the per-edge span, kept out of the shift loop — then stable-
      // insertion-sort the row in place. Stability makes the stream
      // tie-break free: equal-w pairs keep their input order, which is
      // ascending stream (within-user CSR order).
      for (std::size_t t = 0; t < deg; ++t)
        w_row[t] = view_.edge_utility(edges[t]);
      std::copy(streams_of_u.begin(), streams_of_u.end(), s_row);
      for (std::size_t t = 1; t < deg; ++t) {
        const double w = w_row[t];
        const StreamId sp = s_row[t];
        std::size_t j = t;
        while (j > 0 && w_row[j - 1] < w) {
          w_row[j] = w_row[j - 1];
          s_row[j] = s_row[j - 1];
          --j;
        }
        w_row[j] = w;
        s_row[j] = sp;
      }
    } else {
      spill.clear();
      for (std::size_t t = 0; t < deg; ++t)
        spill.emplace_back(view_.edge_utility(edges[t]), streams_of_u[t]);
      std::sort(spill.begin(), spill.end(), [](const auto& a,
                                               const auto& b) {
        if (a.first != b.first) return a.first > b.first;
        return a.second < b.second;  // deterministic on w ties
      });
      for (std::size_t t = 0; t < deg; ++t) {
        w_row[t] = spill[t].first;
        s_row[t] = spill[t].second;
      }
    }
  }
}

void GreedyEngine::repool() {
  selector_.reset(ws_, ws_.wbar, ws_.cost, strategy_);
  // Streams with no extractable utility are dead on arrival: drop them
  // from the pool now so the selection kernel never spends tie-breaking
  // work on the zero-effectiveness drain tail. (The run loop's
  // wbar <= kAbsEps break made them unreachable anyway.)
  for (std::size_t s = 0; s < ws_.wbar.size(); ++s)
    if (ws_.wbar[s] <= util::kAbsEps)
      selector_.remove(static_cast<StreamId>(s));
  cost_cursor_ = 0;
}

void GreedyEngine::add_seed(StreamId s) {
  const auto ss = static_cast<std::size_t>(s);
  // Duplicate detection is NOT pool membership: a zero-utility stream
  // leaves the pool at construction (dead-stream removal) yet a seed
  // naming it must still be force-added and charged, exactly as before
  // the pool pruning existed.
  if (ws_.taken[ss]) return;  // duplicate seed (or already popped)
  const double c = ws_.cost[ss];
  if (!approx_le(used_ + c, view_.budget()))
    throw std::invalid_argument("greedy seed does not fit the budget");
  ++result_.trace.num_considered;
  add_stream(s, c);
  ws_.taken[ss] = 1;
  selector_.remove(s);
}

void GreedyEngine::run() { run_loop(); }

void GreedyEngine::run(CompletionTrace& rec) {
  rec.clear();
  rec_ = &rec;
  run_loop();
  rec.end_used = used_;
  rec.finalize(view_, ws_.user_w, ws_.user_last_w);
  rec_ = nullptr;
}

void GreedyEngine::run_loop() {
  const double B = view_.budget();
  for (;;) {
    // Budget cutoff: eager dead-stream removal keeps only wbar > eps
    // streams in the pool, so the moment the cheapest of them stops
    // fitting, every remaining pop would be a considered-and-skipped
    // row. They are accounted for in bulk instead of draining the heap
    // one sift at a time.
    while (cost_cursor_ < ws_.cost_order.size() &&
           !selector_.contains(ws_.cost_order[cost_cursor_]))
      ++cost_cursor_;
    if (cost_cursor_ >= ws_.cost_order.size()) break;  // pool empty
    const double cheapest =
        ws_.cost[static_cast<std::size_t>(ws_.cost_order[cost_cursor_])];
    if (!approx_le(used_ + cheapest, B)) {
      result_.trace.num_considered += selector_.pool_size();
      result_.trace.skipped_budget += selector_.pool_size();
      if (rec_ != nullptr) rec_->ended_on_budget = true;
      break;
    }
    const StreamId best = selector_.pop_best();
    if (best == model::kInvalidStream) break;
    const auto bs = static_cast<std::size_t>(best);
    ws_.taken[bs] = 1;
    if (ws_.wbar[bs] <= util::kAbsEps) break;  // nothing left to gain
    ++result_.trace.num_considered;
    const double c = ws_.cost[bs];
    const bool fits = approx_le(used_ + c, B);
    if (rec_ != nullptr) {
      rec_->pick.push_back(best);
      rec_->applied.push_back(fits ? 1 : 0);
      // Tolerance-tied candidates from this pop (heap strategies leave
      // them in ws_.tied). An empty range means a singleton tie set.
      rec_->tie_begin.push_back(
          static_cast<std::uint32_t>(rec_->tie_member.size()));
      if (ws_.tied.size() > 1)
        for (const SelectHeapEntry& e : ws_.tied)
          rec_->tie_member.push_back(e.stream);
      // Settle the heap before propagation: the exact best effectiveness
      // among the remaining pool at this step.
      rec_->runner_up.push_back(selector_.settle_top_eff());
      rec_->pick_eff.push_back(select_effectiveness(ws_.wbar[bs], c));
      rec_->margin_clear.push_back(
          util::margin_gt(rec_->pick_eff.back(), rec_->runner_up.back()) ? 1
                                                                         : 0);
      rec_->assign_begin.push_back(
          static_cast<std::uint32_t>(rec_->assign_user.size()));
      rec_->touch_begin.push_back(
          static_cast<std::uint32_t>(rec_->touch_stream.size()));
      rec_->death_begin.push_back(
          static_cast<std::uint32_t>(rec_->death_stream.size()));
    }
    if (fits)
      add_stream(best, c);
    else
      ++result_.trace.skipped_budget;
    if (rec_ != nullptr) {
      std::uint64_t um = 0;
      if (view_.num_users() <= 64)
        for (std::uint32_t j = rec_->assign_begin.back();
             j < rec_->assign_user.size(); ++j)
          um |= std::uint64_t{1}
                << static_cast<std::size_t>(rec_->assign_user[j]);
      rec_->assign_umask.push_back(um);
    }
  }
}

// Assigns `s` to every user with positive residual, charging its cost
// and propagating each exact residual change into w̄ of the remaining
// streams. Selector bookkeeping is batched: the edge loop only gathers
// the set of touched streams (deduplicated through the mark array) while
// applying each exact per-pair w̄ delta, and one pass afterwards pushes
// remove/update per touched stream. Equivalent pick-for-pick: staleness
// is binary (any bump between two pops invalidates the same entries), a
// dead stream never rejoins the pool, and an out-of-pool stream's w̄ —
// which the old per-pair in_pool check froze — is never read again, so
// every live stream sees the identical delta sequence.
void GreedyEngine::add_stream(StreamId s, double cost) {
  used_ += cost;
  added_streams_.push_back(s);
  double* const rem = ws_.rem.data();
  double* const wbar = ws_.wbar.data();
  const char* const in_pool = ws_.in_pool.data();
  const double* const user_edge_w = ws_.user_edge_w.data();
  const StreamId* const user_edge_s = ws_.user_edge_s.data();
  char* const touch_mark = ws_.touch_mark.data();
  auto& touched = ws_.touched;
  touched.clear();
  std::size_t rows = 0;
  std::size_t pairs = 0;
  const EdgeId lo = view_.first_edge(s);
  const EdgeId hi = view_.last_edge(s);
  for (EdgeId e = lo; e < hi; ++e) {
    const UserId u = view_.edge_user(e);
    const auto uu = static_cast<std::size_t>(u);
    if (e + 1 < hi) {
      // The stream's user list is sparse and effectively random in user
      // space: pull the next user's residual and the head of its sorted
      // row while this row is being walked.
      const UserId un = view_.edge_user(e + 1);
      VDIST_PREFETCH(rem + static_cast<std::size_t>(un));
      VDIST_PREFETCH(user_edge_w + view_.user_edge_begin(un));
    }
    const double w = view_.edge_utility(e);
    if (rem[uu] <= util::kAbsEps || w <= 0.0) continue;
    if (build_assignment_) {
      ws_.pair_log.push_back({u, s, e});
      assignment_dirty_ = true;
    }
    if (rec_ != nullptr) {
      rec_->assign_user.push_back(u);
      rec_->assign_w.push_back(w);
    }
    ws_.user_w[uu] += w;
    ws_.user_last_w[uu] = w;
    const double rem_old = rem[uu];
    result_.capped_utility += std::min(w, rem_old);
    rem[uu] -= w;
    const double rem_new = rem[uu];
    // rem_old > 0 here, so the old contribution min(we, max(rem_old, 0))
    // is min(we, rem_old); the clamped new residual covers the rest.
    const double rem_new_clamped = rem_new > 0.0 ? rem_new : 0.0;
    const std::size_t row_begin = view_.user_edge_begin(u);
    const double* const we_row = user_edge_w + row_begin;
    const StreamId* const sp_row = user_edge_s + row_begin;
    const std::size_t deg = view_.streams_of(u).size();
    ++rows;
    for (std::size_t t = 0; t < deg; ++t) {
      const double we = we_row[t];
      // Rows are sorted by descending w: the first pair whose
      // contribution min(w, rem) is unchanged (w <= clamped residual,
      // including every zero-surrogate pair) ends the scan.
      if (we <= rem_new_clamped) break;
      const StreamId sp = sp_row[t];
      if (sp == s) continue;
      // w > clamped residual and rem_old > clamped residual, so the
      // contribution dropped from min(we, rem_old) to the clamp: always
      // a real delta.
      const double before = we < rem_old ? we : rem_old;
      const auto sps = static_cast<std::size_t>(sp);
      wbar[sps] += rem_new_clamped - before;
      ++pairs;
      if (touch_mark[sps] == 0) {
        touch_mark[sps] = 1;
        touched.push_back(sp);
      }
    }
  }
  for (const StreamId sp : touched) {
    const auto sps = static_cast<std::size_t>(sp);
    touch_mark[sps] = 0;
    if (!in_pool[sps]) continue;  // left the pool before this pick
    // Record pool members only (pre-removal, so a stream dying at this
    // pick still gets its final value): a replay keeps no stream alive
    // past its parent's death — clean copies die with the parent's
    // recorded decision, dirty survivors bail — so out-of-pool streams'
    // w̄, which the engine itself never reads again, need no image.
    if (rec_ != nullptr) {
      rec_->touch_stream.push_back(sp);
      rec_->touch_wbar.push_back(wbar[sps]);
    }
    // A stream whose residual utility just died can never be picked
    // (the run loop breaks on it); dropping it here keeps the heap's
    // near-zero tie band empty instead of re-sifting dead entries.
    if (wbar[sps] <= util::kAbsEps) {
      selector_.remove(sp);
      if (rec_ != nullptr) rec_->death_stream.push_back(sp);
    } else
      selector_.update(sp, wbar[sps]);
  }
  selector_.note_propagation(rows, pairs);
}

void GreedyEngine::sync_assignment() {
  if (!assignment_dirty_) return;
  result_.assignment.clear();
  // Count each user's pairs first so every per-user stream list
  // allocates exactly once instead of doubling through the replay.
  auto& counts = ws_.user_pair_count;
  counts.assign(view_.num_users(), 0);
  for (const AssignedPair& p : ws_.pair_log)
    ++counts[static_cast<std::size_t>(p.user)];
  for (std::size_t u = 0; u < counts.size(); ++u)
    if (counts[u] > 0)
      result_.assignment.reserve_streams(static_cast<UserId>(u),
                                         static_cast<std::size_t>(counts[u]));
  for (const AssignedPair& p : ws_.pair_log)
    result_.assignment.assign_edge(p.user, p.stream, p.edge);
  assignment_dirty_ = false;
}

const GreedyResult& GreedyEngine::result() {
  sync_assignment();
  result_.select = selector_.stats();
  return result_;
}

GreedyResult GreedyEngine::take() && {
  sync_assignment();
  result_.select = selector_.stats();
  return std::move(result_);
}

void GreedyEngine::save(GreedyCheckpoint& out) const {
  out.rem.assign(ws_.rem.begin(), ws_.rem.end());
  out.wbar.assign(ws_.wbar.begin(), ws_.wbar.end());
  out.taken.assign(ws_.taken.begin(), ws_.taken.end());
  out.user_w.assign(ws_.user_w.begin(), ws_.user_w.end());
  out.user_last_w.assign(ws_.user_last_w.begin(), ws_.user_last_w.end());
  out.added_streams.assign(added_streams_.begin(), added_streams_.end());
  selector_.save(out.selector);
  out.used = used_;
  out.capped_utility = result_.capped_utility;
  out.cost_cursor = cost_cursor_;
  out.num_considered = result_.trace.num_considered;
  out.skipped_budget = result_.trace.skipped_budget;
  if (build_assignment_)
    out.pair_log.assign(ws_.pair_log.begin(), ws_.pair_log.end());
}

void GreedyEngine::restore(const GreedyCheckpoint& in) {
  std::copy(in.rem.begin(), in.rem.end(), ws_.rem.begin());
  std::copy(in.wbar.begin(), in.wbar.end(), ws_.wbar.begin());
  std::copy(in.taken.begin(), in.taken.end(), ws_.taken.begin());
  std::copy(in.user_w.begin(), in.user_w.end(), ws_.user_w.begin());
  std::copy(in.user_last_w.begin(), in.user_last_w.end(),
            ws_.user_last_w.begin());
  added_streams_.assign(in.added_streams.begin(), in.added_streams.end());
  selector_.restore(in.selector);
  cost_cursor_ = in.cost_cursor;
  used_ = in.used;
  result_.capped_utility = in.capped_utility;
  result_.trace.num_considered = in.num_considered;
  result_.trace.skipped_budget = in.skipped_budget;
  if (build_assignment_) {
    ws_.pair_log.assign(in.pair_log.begin(), in.pair_log.end());
    assignment_dirty_ = true;  // lazily rebuilt on the next result()
  }
}

void GreedyEngine::clear_log() noexcept {
  added_streams_.clear();
  ws_.pair_log.clear();
  assignment_dirty_ = false;
}

std::size_t GreedyEngine::reassign_user(UserId u,
                                        std::span<const std::uint32_t> replay,
                                        std::span<const double> old_w) {
  const auto uu = static_cast<std::size_t>(u);
  const auto edges = view_.edges_of(u);
  const auto streams = view_.streams_of(u);
  double& rem = ws_.rem[uu];
  const double old_clamp = clamp0(rem);
  rem = view_.capacity(u);
  ws_.user_w[uu] = 0.0;
  ws_.user_last_w[uu] = 0.0;
  std::size_t kept = 0;
  for (const std::uint32_t t : replay) {
    if (rem <= util::kAbsEps) break;
    const double w = view_.edge_utility(edges[t]);
    ws_.user_w[uu] += w;
    ws_.user_last_w[uu] = w;
    rem -= w;
    ++kept;
  }
  const double new_clamp = clamp0(rem);
  for (std::size_t t = 0; t < edges.size(); ++t) {
    const double w_new = view_.edge_utility(edges[t]);
    const double w_old = old_w.empty() ? w_new : old_w[t];
    const double contrib_new = w_new > 0.0 ? std::min(w_new, new_clamp) : 0.0;
    const double contrib_old = w_old > 0.0 ? std::min(w_old, old_clamp) : 0.0;
    const double delta = contrib_new - contrib_old;
    if (delta != 0.0) ws_.wbar[static_cast<std::size_t>(streams[t])] += delta;
  }
  return kept;
}

void GreedyEngine::resort_row(UserId u) {
  sort_rows(static_cast<std::size_t>(u), static_cast<std::size_t>(u) + 1);
}

void GreedyEngine::reset_wbar(StreamId s) noexcept {
  double total = 0.0;
  for (EdgeId e = view_.first_edge(s); e < view_.last_edge(s); ++e) {
    const double w = view_.edge_utility(e);
    if (w <= 0.0) continue;
    const double c = clamp0(ws_.rem[static_cast<std::size_t>(view_.edge_user(e))]);
    total += w < c ? w : c;
  }
  ws_.wbar[static_cast<std::size_t>(s)] = total;
}

void GreedyEngine::rebind(InstanceView view) {
  view_ = view;
  result_.assignment = Assignment(view.base());
  added_streams_.clear();
  assignment_dirty_ = false;
  init();
}

RaceScores GreedyEngine::race_scores() const {
  return core::race_scores(view_, ws_.user_w, ws_.user_last_w);
}

Assignment GreedyEngine::materialize_assignment() const {
  Assignment out(view_.base());
  // Replay against fresh caps on the generic scratch (ws_.rem is live
  // engine state): the pair set only depends on the added-stream order
  // and the residual trajectory, which this reproduces exactly.
  auto& rem = ws_.scratch;
  rem.resize(view_.num_users());
  for (std::size_t u = 0; u < rem.size(); ++u)
    rem[u] = view_.capacity(static_cast<UserId>(u));
  for (const StreamId s : added_streams_) {
    for (EdgeId e = view_.first_edge(s); e < view_.last_edge(s); ++e) {
      const UserId u = view_.edge_user(e);
      const auto uu = static_cast<std::size_t>(u);
      const double w = view_.edge_utility(e);
      if (rem[uu] <= util::kAbsEps || w <= 0.0) continue;
      out.assign_edge(u, s, e);
      rem[uu] -= w;
    }
  }
  return out;
}

Assignment GreedyEngine::materialize_winner(Winner winner) const {
  // Amax never reads the semi-feasible solution: skip its replay.
  if (winner == Winner::kAmax) return best_single_stream(view_);
  return core::materialize_winner(view_, winner, materialize_assignment(),
                                  ws_.user_w);
}

GreedyResult greedy_unit_skew(const InstanceView& view,
                              const GreedyOptions& opts) {
  return greedy_unit_skew_seeded(view, {}, opts);
}

GreedyResult greedy_unit_skew(const Instance& inst,
                              const GreedyOptions& opts) {
  return greedy_unit_skew_seeded(InstanceView::cap_form(inst), {}, opts);
}

GreedyResult greedy_unit_skew_seeded(const InstanceView& view,
                                     std::span<const StreamId> seeds,
                                     const GreedyOptions& opts) {
  SolveWorkspace local;
  SolveWorkspace& ws = opts.workspace != nullptr ? *opts.workspace : local;
  GreedyOptions engine_opts = opts;
  engine_opts.workspace = &ws;
  engine_opts.build_assignment = true;  // the assignment IS the result
  GreedyEngine engine(view, ws, engine_opts);
  for (StreamId s : seeds) engine.add_seed(s);
  engine.run();
  return std::move(engine).take();
}

GreedyResult greedy_unit_skew_seeded(const Instance& inst,
                                     std::span<const StreamId> seeds,
                                     const GreedyOptions& opts) {
  return greedy_unit_skew_seeded(InstanceView::cap_form(inst), seeds, opts);
}

Assignment best_single_stream(const InstanceView& view) {
  const StreamId best = amax_stream(view);
  Assignment a(view.base());
  if (best != model::kInvalidStream)
    for (EdgeId e = view.first_edge(best); e < view.last_edge(best); ++e)
      if (view.edge_utility(e) > 0.0) a.assign(view.edge_user(e), best);
  return a;
}

Assignment best_single_stream(const Instance& inst) {
  return best_single_stream(InstanceView::cap_form(inst));
}

double view_capped_utility(const InstanceView& view, const Assignment& a) {
  double total = 0.0;
  for (std::size_t uu = 0; uu < view.num_users(); ++uu) {
    const auto u = static_cast<UserId>(uu);
    const auto streams = a.streams_of(u);
    if (streams.empty()) continue;
    double w = 0.0;
    for (StreamId s : streams) w += view.pair_utility(u, s);
    total += std::min(view.capacity(u), w);
  }
  return total;
}


FeasibleSplit split_last_stream(const InstanceView& view,
                                const Assignment& semi) {
  FeasibleSplit out{Assignment(view.base()), Assignment(view.base()), 0.0,
                    0.0};
  for (std::size_t uu = 0; uu < view.num_users(); ++uu) {
    const auto u = static_cast<UserId>(uu);
    const auto streams = semi.streams_of(u);
    if (streams.empty()) continue;
    // Only users the greedy saturated past W_u lose their last stream.
    double w = 0.0;
    for (StreamId s : streams) w += view.pair_utility(u, s);
    const bool over_cap = !approx_le(w, view.capacity(u));
    const std::size_t keep = streams.size() - (over_cap ? 1 : 0);
    for (std::size_t t = 0; t < keep; ++t) {
      out.a1.assign(u, streams[t]);
      out.w1 += view.pair_utility(u, streams[t]);
    }
    out.a2.assign(u, streams.back());
    out.w2 += view.pair_utility(u, streams.back());
  }
  return out;
}

FeasibleSplit split_last_stream(const Instance& inst, const Assignment& semi) {
  return split_last_stream(InstanceView::cap_form(inst), semi);
}

SmdSolveResult solve_unit_skew(const InstanceView& view, SmdMode mode,
                               const GreedyOptions& opts) {
  SolveWorkspace local;
  SolveWorkspace& ws = opts.workspace != nullptr ? *opts.workspace : local;
  GreedyOptions engine_opts = opts;
  engine_opts.workspace = &ws;
  engine_opts.build_assignment = false;  // score, then build the winner only
  GreedyEngine engine(view, ws, engine_opts);
  engine.run();
  const RaceResult won = race(mode, engine.race_scores(), amax_value(view));
  return {engine.materialize_winner(won.winner), won.value,
          winner_name(won.winner), engine.result().select};
}

SmdSolveResult solve_unit_skew(const Instance& inst, SmdMode mode,
                               const GreedyOptions& opts) {
  return solve_unit_skew(InstanceView::cap_form(inst), mode, opts);
}

}  // namespace vdist::core
