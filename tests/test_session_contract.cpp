// engine::Session — the serving contract every caller (the `serve`
// solver, `vdist_cli serve`/`compete`, the simulator's SessionPolicy)
// relies on:
//   * per workload family and policy, check_parity() holds after every
//     event and the maintained assignment stays feasible on the
//     materialized world; a repair session's race totals equal a
//     from-scratch fold of its accumulators in any user order;
//   * replay is deterministic: the same trace yields the same per-event
//     RepairStats, counters, variant and pair set;
//   * the drift-check cadence, escalation and ParityReport arithmetic
//     behave as declared;
//   * the select kernels (also through the serve solver on the perf smoke
//     configurations), a caller-supplied workspace and the augmented
//     mode serve the same values as their from-scratch counterparts;
//   * invalid events are rejected before anything is counted or moved;
//   * ServeConfig's declared surface is the single source of the serve
//     knobs.
#include "engine/session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/greedy.h"
#include "engine/registry.h"
#include "engine/scenario.h"
#include "gen/events.h"
#include "gen/random_instances.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace vdist::engine {
namespace {

using model::EventType;
using model::Instance;
using model::InstanceEvent;
using model::StreamId;
using model::UserId;

Instance cap_instance(std::uint64_t seed, std::size_t streams = 25,
                      std::size_t users = 12) {
  gen::RandomCapConfig cfg;
  cfg.num_streams = streams;
  cfg.num_users = users;
  cfg.seed = seed;
  return gen::random_cap_instance(cfg);
}

std::vector<InstanceEvent> churn(const Instance& inst, std::uint64_t seed,
                                 std::size_t events = 40) {
  gen::EventTraceConfig cfg;
  cfg.num_events = events;
  cfg.seed = seed;
  return gen::make_event_trace(inst, cfg);
}

SessionOptions with_policy(ServePolicy policy) {
  SessionOptions opts;
  opts.policy = policy;
  return opts;
}

// The full pair set of the maintained assignment, as comparable data.
std::set<std::pair<UserId, StreamId>> pair_set(Session& session) {
  std::set<std::pair<UserId, StreamId>> pairs;
  const model::Assignment& a = session.assignment();
  for (std::size_t u = 0; u < session.instance().num_users(); ++u)
    for (const StreamId s : a.streams_of(static_cast<UserId>(u)))
      pairs.emplace(static_cast<UserId>(u), s);
  return pairs;
}

// The repair core's maintained race totals against core::race_scores()
// folded from scratch over its own accumulators, and that fold against
// the same per-user arrays in a shuffled user order (caps shuffled
// alike): all bit-equal.
void expect_maintained_race_is_a_fold(const Session& session, util::Rng& rng,
                                      std::size_t step) {
  const RepairCore& repair = session.repair_core();
  const model::InstanceOverlay& overlay = session.overlay();
  const auto bits = [](const core::RaceScores& r) {
    return std::array<std::uint64_t, 3>{std::bit_cast<std::uint64_t>(r.capped),
                                        std::bit_cast<std::uint64_t>(r.w1),
                                        std::bit_cast<std::uint64_t>(r.w2)};
  };
  const auto fold = bits(core::race_scores(overlay.view(), repair.user_w(),
                                           repair.user_last_w()));
  ASSERT_EQ(bits(repair.race_scores()), fold) << "after " << step << " events";

  std::vector<std::size_t> order(repair.user_w().size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);
  std::vector<double> user_w;
  std::vector<double> user_last_w;
  std::vector<double> caps;
  for (const std::size_t u : order) {
    user_w.push_back(repair.user_w()[u]);
    user_last_w.push_back(repair.user_last_w()[u]);
    caps.push_back(overlay.capacities()[u]);
  }
  const model::InstanceView shuffled(overlay.instance(),
                                     overlay.edge_utilities(),
                                     overlay.total_utilities(), caps);
  ASSERT_EQ(bits(core::race_scores(shuffled, user_w, user_last_w)), fold)
      << "shuffled users, after " << step << " events";
}

// --- Per family and policy ---------------------------------------------

struct FamilyCase {
  const char* family;
  ServePolicy policy;
};

class SessionFamilyTest : public ::testing::TestWithParam<FamilyCase> {};

TEST_P(SessionFamilyTest, ContractHoldsAfterEveryEvent) {
  const FamilyCase& fc = GetParam();
  const Instance inst = cap_instance(9, 30, 12);
  const auto trace = workload::WorkloadRegistry::global().generate(
      fc.family, inst, {{"events", "60"}, {"seed", "21"}});
  SessionOptions opts = with_policy(fc.policy);
  opts.refresh = 1;  // repair self-corrects at every event
  Session session(inst, opts);
  // A repair session's full resolves rebuild the greedy from scratch and
  // score it through the same race as a one-shot solve: bit-equal.
  const auto expect_resolve_matches_a_solve = [&session](std::size_t step) {
    ASSERT_EQ(session.objective(),
              core::solve_unit_skew(session.snapshot()).utility)
        << "after " << step << " events";
  };
  util::Rng rng(5);
  if (fc.policy == ServePolicy::kRepair) {
    expect_resolve_matches_a_solve(0);
    ASSERT_NO_FATAL_FAILURE(expect_maintained_race_is_a_fold(session, rng, 0));
  }
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const RepairStats stats = session.apply(trace[i]);
    ASSERT_EQ(stats.objective, session.objective()) << "event " << i;
    if (fc.policy == ServePolicy::kRepair) {
      if (stats.action == RepairAction::kFullResolve)
        expect_resolve_matches_a_solve(i + 1);
      ASSERT_NO_FATAL_FAILURE(
          expect_maintained_race_is_a_fold(session, rng, i + 1));
    }
    const ParityReport parity = session.check_parity();
    ASSERT_TRUE(parity.ok) << parity.detail << " at event " << i;
    ASSERT_EQ(parity.current, session.objective()) << "event " << i;
    if (fc.policy == ServePolicy::kOnline) {
      // Decisions are never revoked, so a lowered cap can leave a user
      // over-served; the objective counts capped utility only.
      EXPECT_EQ(stats.action, RepairAction::kOnlineStep);
      ASSERT_LE(session.objective(),
                session.snapshot().utility_upper_bound() + 1e-9)
          << "event " << i;
    } else {
      ASSERT_TRUE(session.validate_on_snapshot().feasible()) << "event " << i;
    }
  }
  EXPECT_EQ(session.counters().events, trace.size());
  if (fc.policy != ServePolicy::kRepair) return;

  // The augmented race keeps its totals the same way. Bound 0 escalates
  // every measured drift, so full rebuilds mix with per-user updates.
  opts.mode = core::SmdMode::kAugmented;
  opts.bound = 0.0;
  Session augmented(inst, opts);
  ASSERT_NO_FATAL_FAILURE(expect_maintained_race_is_a_fold(augmented, rng, 0));
  for (std::size_t i = 0; i < trace.size(); ++i) {
    augmented.apply(trace[i]);
    const ParityReport parity = augmented.check_parity();
    ASSERT_TRUE(parity.ok) << parity.detail << " at event " << i;
    ASSERT_NO_FATAL_FAILURE(
        expect_maintained_race_is_a_fold(augmented, rng, i + 1));
  }
}

std::string family_case_name(
    const ::testing::TestParamInfo<FamilyCase>& info) {
  std::string name = info.param.family;
  std::replace(name.begin(), name.end(), '-', '_');
  return name + "_" + to_string(info.param.policy);
}

INSTANTIATE_TEST_SUITE_P(
    Families, SessionFamilyTest,
    ::testing::Values(FamilyCase{"churn", ServePolicy::kRepair},
                      FamilyCase{"churn", ServePolicy::kResolve},
                      FamilyCase{"churn", ServePolicy::kOnline},
                      FamilyCase{"zipf-drift", ServePolicy::kRepair},
                      FamilyCase{"zipf-drift", ServePolicy::kResolve},
                      FamilyCase{"zipf-drift", ServePolicy::kOnline},
                      FamilyCase{"flash-crowd", ServePolicy::kRepair},
                      FamilyCase{"flash-crowd", ServePolicy::kResolve},
                      FamilyCase{"flash-crowd", ServePolicy::kOnline},
                      FamilyCase{"diurnal", ServePolicy::kRepair},
                      FamilyCase{"diurnal", ServePolicy::kResolve},
                      FamilyCase{"diurnal", ServePolicy::kOnline},
                      FamilyCase{"hetero-cap", ServePolicy::kRepair},
                      FamilyCase{"hetero-cap", ServePolicy::kResolve},
                      FamilyCase{"hetero-cap", ServePolicy::kOnline}),
    family_case_name);

// --- Determinism --------------------------------------------------------

TEST(SessionContract, ReplayIsDeterministicUnderEveryPolicy) {
  const Instance inst = cap_instance(23);
  const auto trace = churn(inst, 7, 60);
  for (const ServePolicy policy :
       {ServePolicy::kRepair, ServePolicy::kResolve, ServePolicy::kOnline}) {
    SessionOptions opts = with_policy(policy);
    opts.refresh = 4;
    Session a(inst, opts);
    Session b(inst, opts);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const RepairStats sa = a.apply(trace[i]);
      const RepairStats sb = b.apply(trace[i]);
      ASSERT_EQ(sa.objective, sb.objective) << to_string(policy) << " " << i;
      ASSERT_EQ(sa.action, sb.action) << to_string(policy) << " " << i;
      ASSERT_EQ(sa.users_refreshed, sb.users_refreshed);
      ASSERT_EQ(sa.streams_released, sb.streams_released);
      ASSERT_EQ(sa.streams_added, sb.streams_added);
      ASSERT_EQ(sa.drift_checked, sb.drift_checked);
      ASSERT_EQ(sa.drift, sb.drift);
    }
    EXPECT_EQ(a.counters().local_repairs, b.counters().local_repairs);
    EXPECT_EQ(a.counters().full_resolves, b.counters().full_resolves);
    EXPECT_EQ(a.counters().drift_checks, b.counters().drift_checks);
    EXPECT_EQ(a.counters().online_accepts, b.counters().online_accepts);
    EXPECT_EQ(a.counters().online_rejects, b.counters().online_rejects);
    EXPECT_STREQ(a.variant(), b.variant());
    EXPECT_EQ(pair_set(a), pair_set(b)) << to_string(policy);
  }
}

// --- Counters and the drift-check cadence -------------------------------

TEST(SessionContract, ResolveCountsEveryEventAsAFullResolve) {
  const Instance inst = cap_instance(31);
  Session session(inst, with_policy(ServePolicy::kResolve));
  const auto trace = churn(inst, 13, 25);
  for (const InstanceEvent& event : trace) {
    const RepairStats stats = session.apply(event);
    EXPECT_EQ(stats.action, RepairAction::kFullResolve);
    EXPECT_FALSE(stats.drift_checked);
  }
  EXPECT_EQ(session.counters().events, trace.size());
  EXPECT_EQ(session.counters().full_resolves, trace.size() + 1);
  EXPECT_EQ(session.counters().local_repairs, 0u);
  EXPECT_EQ(session.counters().drift_checks, 0u);
}

TEST(SessionContract, RefreshSetsTheDriftCheckCadence) {
  const Instance inst = cap_instance(37);
  const auto trace = churn(inst, 3, 40);
  for (const int refresh : {0, 1, 5}) {
    SessionOptions opts = with_policy(ServePolicy::kRepair);
    opts.refresh = refresh;
    Session session(inst, opts);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const RepairStats stats = session.apply(trace[i]);
      const bool due = refresh > 0 && (i + 1) % refresh == 0;
      ASSERT_EQ(stats.drift_checked, due) << "refresh " << refresh << " " << i;
    }
    const std::size_t expected =
        refresh == 0 ? 0 : trace.size() / static_cast<std::size_t>(refresh);
    EXPECT_EQ(session.counters().drift_checks, expected) << refresh;
    // Every event is either repaired locally or escalated to a resolve.
    EXPECT_EQ(session.counters().local_repairs +
                  session.counters().full_resolves,
              trace.size() + 1)
        << refresh;
  }
}

// Each user's assigned streams in assignment order.
std::vector<std::vector<StreamId>> ordered_streams(
    const model::Assignment& a, std::size_t users) {
  std::vector<std::vector<StreamId>> out(users);
  for (std::size_t u = 0; u < users; ++u) {
    const auto streams = a.streams_of(static_cast<UserId>(u));
    out[u].assign(streams.begin(), streams.end());
  }
  return out;
}

// With no tolerance every measured drift escalates, in either mode. The
// maintained and the fresh objective run one race over per-user
// accumulators, so identical solutions score identical bits: a drift
// below 1e-9 can only come from a repaired solution that holds the fresh
// solution's very pairs in another per-user order (the accumulators sum
// in assignment order). The second session, whose bound lets such drifts
// stand, checks exactly that at every one of them.
TEST(SessionContract, ZeroBoundEscalatesEveryMeasuredDrift) {
  const Instance inst = cap_instance(41, 40, 16);
  const auto trace = churn(inst, 19, 80);
  for (const core::SmdMode mode :
       {core::SmdMode::kFeasible, core::SmdMode::kAugmented}) {
    SessionOptions opts = with_policy(ServePolicy::kRepair);
    opts.refresh = 1;
    opts.bound = 0.0;
    opts.mode = mode;
    Session session(inst, opts);
    std::size_t escalations = 0;
    for (const InstanceEvent& event : trace) {
      const RepairStats stats = session.apply(event);
      ASSERT_TRUE(stats.drift_checked);
      if (stats.action == RepairAction::kFullResolve) {
        ++escalations;
        EXPECT_GT(stats.drift, 0.0);
      } else {
        EXPECT_LE(stats.drift, 0.0);
      }
      // With no tolerance the maintained value never trails a fresh solve.
      const ParityReport parity = session.check_parity();
      ASSERT_TRUE(parity.ok) << parity.detail;
    }
    EXPECT_EQ(session.counters().full_resolves, escalations + 1);

    opts.bound = 1e-9;
    Session lenient(inst, opts);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const RepairStats stats = lenient.apply(trace[i]);
      if (!(stats.drift > 0.0 && stats.drift < 1e-9)) continue;
      const Instance snap = lenient.snapshot();
      const core::SmdSolveResult fresh = core::solve_unit_skew(snap, mode);
      std::set<std::pair<UserId, StreamId>> fresh_pairs;
      for (std::size_t u = 0; u < snap.num_users(); ++u)
        for (const StreamId s :
             fresh.assignment.streams_of(static_cast<UserId>(u)))
          fresh_pairs.emplace(static_cast<UserId>(u), s);
      ASSERT_EQ(pair_set(lenient), fresh_pairs) << "event " << i;
      ASSERT_NE(ordered_streams(lenient.assignment(), snap.num_users()),
                ordered_streams(fresh.assignment, snap.num_users()))
          << "identical solutions drifted by " << stats.drift << " at event "
          << i;
    }
  }
}

// --- Parity reports -----------------------------------------------------

TEST(SessionContract, CheckParityReportsTheDriftItMeasured) {
  const Instance inst = cap_instance(43, 40, 16);
  SessionOptions opts = with_policy(ServePolicy::kRepair);
  opts.refresh = 0;  // never self-correct: let drift accumulate
  Session session(inst, opts);
  for (const InstanceEvent& event : churn(inst, 29, 60)) {
    session.apply(event);
    const ParityReport parity = session.check_parity();
    EXPECT_EQ(parity.current, session.objective());
    EXPECT_EQ(parity.fresh,
              core::solve_unit_skew(session.snapshot()).utility);
    EXPECT_EQ(parity.drift,
              (parity.fresh - parity.current) / std::max(parity.fresh, 1.0));
    EXPECT_EQ(parity.ok, parity.drift <= opts.bound + 1e-9);
    EXPECT_EQ(parity.detail.empty(), parity.ok);
  }
}

// fresh_objective() scores the live world through the repair core, while
// check_parity() solves the materialized snapshot; both run the same
// engine and the same race, so they agree bit for bit.
TEST(SessionContract, FreshObjectiveMatchesASolveOfTheSnapshot) {
  const Instance inst = cap_instance(47);
  const auto trace = churn(inst, 31, 30);
  for (const core::SmdMode mode :
       {core::SmdMode::kFeasible, core::SmdMode::kAugmented}) {
    SessionOptions opts = with_policy(ServePolicy::kRepair);
    opts.refresh = 0;
    opts.mode = mode;
    Session session(inst, opts);
    const auto expect_match = [&session, mode](std::size_t step) {
      ASSERT_EQ(session.fresh_objective(),
                core::solve_unit_skew(session.snapshot(), mode).utility)
          << "after " << step << " events";
    };
    expect_match(0);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      session.apply(trace[i]);
      expect_match(i + 1);
    }
  }
}

TEST(SessionContract, OnlineParityIsTriviallyOk) {
  const Instance inst = cap_instance(53);
  Session session(inst, with_policy(ServePolicy::kOnline));
  for (const InstanceEvent& event : churn(inst, 37, 30)) {
    session.apply(event);
    const ParityReport parity = session.check_parity();
    EXPECT_TRUE(parity.ok);
    EXPECT_EQ(parity.current, session.objective());
    EXPECT_EQ(parity.fresh, session.objective());
    EXPECT_EQ(parity.drift, 0.0);
  }
  EXPECT_STREQ(session.variant(), "online");
}

// --- Kernels, workspaces and modes --------------------------------------

TEST(SessionContract, SelectKernelsServeIdentically) {
  const Instance inst = cap_instance(59, 40, 16);
  const auto trace = churn(inst, 41, 60);
  for (const ServePolicy policy :
       {ServePolicy::kRepair, ServePolicy::kResolve}) {
    SessionOptions delta = with_policy(policy);
    delta.refresh = 8;
    SessionOptions naive = delta;
    naive.strategy = core::SelectStrategy::kNaiveScan;
    Session a(inst, delta), b(inst, naive);
    ASSERT_EQ(a.objective(), b.objective());
    for (std::size_t i = 0; i < trace.size(); ++i) {
      a.apply(trace[i]);
      b.apply(trace[i]);
      ASSERT_EQ(a.objective(), b.objective()) << to_string(policy) << " " << i;
    }
    EXPECT_EQ(pair_set(a), pair_set(b));
  }
  // The `vdist_cli perf --smoke` serve configurations, through the serve
  // solver: the perf suite times these under delta only, so the
  // delta-vs-naive agreement it no longer measures is asserted here.
  ScenarioSpec spec;
  spec.name = "cap";
  spec.params.set("streams", 60).set("users", 20);
  spec.seed = 1;
  const Instance world = build_scenario(spec);
  const std::pair<const char*, const char*> configs[] = {
      {"repair", "churn"}, {"resolve", "churn"}, {"repair", "flash-crowd"}};
  for (const auto& [policy, family] : configs) {
    SolveResult by[2];
    const char* strategies[] = {"delta", "naive"};
    for (int k = 0; k < 2; ++k) {
      SolveRequest req;
      req.instance = &world;
      req.algorithm = "serve";
      req.options.set("policy", policy)
          .set("events", 300)
          .set("family", family)
          .set("select", strategies[k]);
      req.seed = 1;
      by[k] = solve(req);
      ASSERT_TRUE(by[k].ok) << policy << "/" << family << ": " << by[k].error;
    }
    const std::string where = std::string(policy) + "/" + family;
    EXPECT_EQ(by[0].objective, by[1].objective) << where;
    for (const char* stat : {"select_picks", "local_repairs", "full_resolves"})
      EXPECT_EQ(by[0].stat(stat), by[1].stat(stat)) << where << " " << stat;
  }
}

TEST(SessionContract, CallerWorkspaceMatchesPrivateWorkspace) {
  const Instance inst = cap_instance(61);
  const auto trace = churn(inst, 43, 40);
  core::SolveWorkspace ws;
  for (const ServePolicy policy :
       {ServePolicy::kRepair, ServePolicy::kResolve, ServePolicy::kOnline}) {
    SessionOptions shared = with_policy(policy);
    shared.workspace = &ws;  // reused across the three policies in turn
    Session owned(inst, with_policy(policy));
    Session borrowed(inst, shared);
    ASSERT_EQ(owned.objective(), borrowed.objective());
    for (const InstanceEvent& event : trace) {
      owned.apply(event);
      borrowed.apply(event);
      ASSERT_EQ(owned.objective(), borrowed.objective()) << to_string(policy);
    }
    EXPECT_EQ(pair_set(owned), pair_set(borrowed)) << to_string(policy);
  }
}

TEST(SessionContract, AugmentedResolveMatchesAnAugmentedSolve) {
  const Instance inst = cap_instance(67);
  SessionOptions opts = with_policy(ServePolicy::kResolve);
  opts.mode = core::SmdMode::kAugmented;
  Session session(inst, opts);
  for (const InstanceEvent& event : churn(inst, 47, 40)) {
    session.apply(event);
    const core::SmdSolveResult fresh =
        core::solve_unit_skew(session.snapshot(), core::SmdMode::kAugmented);
    ASSERT_EQ(session.objective(), fresh.utility);
    ASSERT_EQ(std::string(session.variant()), fresh.variant);
    ASSERT_TRUE(session.check_parity().ok);
  }
}

TEST(SessionContract, AugmentedRepairStaysWithinTheBound) {
  const Instance inst = cap_instance(71);
  SessionOptions opts = with_policy(ServePolicy::kRepair);
  opts.mode = core::SmdMode::kAugmented;
  opts.refresh = 1;
  Session session(inst, opts);
  for (const InstanceEvent& event : churn(inst, 53, 40)) {
    session.apply(event);
    const ParityReport parity = session.check_parity();
    ASSERT_TRUE(parity.ok) << parity.detail;
  }
  EXPECT_GT(session.counters().drift_checks, 0u);
}

TEST(SessionContract, ResolveVariantNamesTheRaceWinner) {
  const Instance inst = cap_instance(73);
  Session session(inst, with_policy(ServePolicy::kResolve));
  EXPECT_EQ(std::string(session.variant()),
            core::solve_unit_skew(inst).variant);
  for (const InstanceEvent& event : churn(inst, 59, 30)) {
    session.apply(event);
    ASSERT_EQ(std::string(session.variant()),
              core::solve_unit_skew(session.snapshot()).variant);
  }
}

TEST(SessionContract, SelectStatsAccumulateAcrossEvents) {
  const Instance inst = cap_instance(79);
  Session session(inst, with_policy(ServePolicy::kResolve));
  std::size_t picks = session.select_stats().picks;
  EXPECT_GT(picks, 0u);  // the opening solve picked streams
  for (const InstanceEvent& event : churn(inst, 61, 20)) {
    session.apply(event);
    // Every resolve re-runs the greedy, so the totals strictly grow.
    EXPECT_GT(session.select_stats().picks, picks);
    picks = session.select_stats().picks;
  }
}

// --- Round trips ---------------------------------------------------------

TEST(SessionContract, LeaveThenRejoinRestoresTheResolveSolution) {
  const Instance inst = cap_instance(83);
  Session session(inst, with_policy(ServePolicy::kResolve));
  const double opening = session.objective();
  const auto opening_pairs = pair_set(session);
  ASSERT_FALSE(opening_pairs.empty());
  const UserId u = opening_pairs.begin()->first;
  InstanceEvent leave;
  leave.type = EventType::kUserLeave;
  leave.user = u;
  session.apply(leave);
  EXPECT_TRUE(session.assignment().streams_of(u).empty());
  InstanceEvent rejoin;
  rejoin.type = EventType::kUserJoin;
  rejoin.user = u;
  rejoin.value = 0.0;  // keep the declared cap
  session.apply(rejoin);
  EXPECT_EQ(session.objective(), opening);
  EXPECT_EQ(pair_set(session), opening_pairs);
}

TEST(SessionContract, RemoveThenRestoreStreamRestoresTheResolveSolution) {
  const Instance inst = cap_instance(89);
  Session session(inst, with_policy(ServePolicy::kResolve));
  const double opening = session.objective();
  const auto opening_pairs = pair_set(session);
  ASSERT_FALSE(opening_pairs.empty());
  const StreamId s = opening_pairs.begin()->second;
  InstanceEvent remove;
  remove.type = EventType::kStreamRemove;
  remove.stream = s;
  session.apply(remove);
  EXPECT_FALSE(session.assignment().in_range(s));
  InstanceEvent restore;
  restore.type = EventType::kStreamAdd;
  restore.stream = s;
  session.apply(restore);
  EXPECT_EQ(session.objective(), opening);
  EXPECT_EQ(pair_set(session), opening_pairs);
}

TEST(SessionContract, OpenEmptyThenAdmittingEveryStreamMatchesTheFullOpening) {
  const Instance inst = cap_instance(97, 18, 8);
  SessionOptions opts = with_policy(ServePolicy::kResolve);
  const Session full(inst, opts);
  opts.open_empty = true;
  Session session(inst, opts);
  EXPECT_EQ(session.objective(), 0.0);
  for (std::size_t s = 0; s < inst.num_streams(); ++s) {
    InstanceEvent add;
    add.type = EventType::kStreamAdd;
    add.stream = static_cast<StreamId>(s);
    session.apply(add);
  }
  EXPECT_EQ(session.objective(), full.objective());
}

TEST(SessionContract, ZeroCapacityDropsTheUsersPairs) {
  const Instance inst = cap_instance(101);
  for (const ServePolicy policy :
       {ServePolicy::kRepair, ServePolicy::kResolve}) {
    Session session(inst, with_policy(policy));
    const auto pairs = pair_set(session);
    ASSERT_FALSE(pairs.empty());
    const UserId u = pairs.begin()->first;
    InstanceEvent zero;
    zero.type = EventType::kCapacityChange;
    zero.user = u;
    zero.value = 0.0;
    session.apply(zero);
    EXPECT_TRUE(session.assignment().streams_of(u).empty())
        << to_string(policy);
    EXPECT_TRUE(session.validate_on_snapshot().feasible()) << to_string(policy);
  }
}

TEST(SessionContract, OnlineReoffersARestoredStreamOnce) {
  const Instance inst = cap_instance(103);
  Session session(inst, with_policy(ServePolicy::kOnline));
  const auto offers = [&session] {
    return session.counters().online_accepts +
           session.counters().online_rejects;
  };
  const std::size_t opening = offers();
  EXPECT_EQ(opening, inst.num_streams());
  InstanceEvent remove;
  remove.type = EventType::kStreamRemove;
  remove.stream = 0;
  session.apply(remove);
  EXPECT_EQ(offers(), opening);  // a departure is a release, not an offer
  InstanceEvent add;
  add.type = EventType::kStreamAdd;
  add.stream = 0;
  session.apply(add);
  EXPECT_EQ(offers(), opening + 1);
  // Restoring a stream that is already alive offers nothing.
  session.apply(add);
  EXPECT_EQ(offers(), opening + 1);
}

// --- Appends and validation ---------------------------------------------

TEST(SessionContract, AppendsThenChurnKeepResolveParity) {
  const Instance inst = cap_instance(107, 15, 8);
  Session session(inst, with_policy(ServePolicy::kResolve));

  // A brand-new user interested in two existing streams.
  InstanceEvent user_append;
  user_append.type = EventType::kUserJoin;
  user_append.user = static_cast<UserId>(inst.num_users());
  user_append.value = 12.0;
  user_append.interests = {{.stream = 0, .utility = 3.0},
                           {.stream = 4, .utility = 2.5}};
  // A brand-new stream with two interested users, one of them the
  // freshly appended one.
  InstanceEvent stream_append;
  stream_append.type = EventType::kStreamAdd;
  stream_append.stream = static_cast<StreamId>(inst.num_streams());
  stream_append.value = 4.0;
  stream_append.interests = {{.user = 1, .utility = 2.0},
                             {.user = user_append.user, .utility = 1.5}};
  for (const InstanceEvent& event : {user_append, stream_append}) {
    session.apply(event);
    ASSERT_TRUE(session.check_parity().ok);
  }
  EXPECT_EQ(session.instance().num_users(), inst.num_users() + 1);
  EXPECT_EQ(session.instance().num_streams(), inst.num_streams() + 1);
  // Churn on top of the grown world keeps parity too.
  const Instance grown = session.snapshot();
  for (const InstanceEvent& event : churn(grown, 61, 20)) {
    session.apply(event);
    const ParityReport parity = session.check_parity();
    ASSERT_TRUE(parity.ok) << parity.detail;
  }
}

TEST(SessionContract, InvalidEventsNameTheEntityAndCountNothing) {
  const Instance inst = cap_instance(109);
  for (const ServePolicy policy :
       {ServePolicy::kRepair, ServePolicy::kResolve, ServePolicy::kOnline}) {
    Session session(inst, with_policy(policy));
    const double objective = session.objective();
    const auto pairs = pair_set(session);

    InstanceEvent bad;
    bad.type = EventType::kUserLeave;
    bad.user = 999;
    try {
      session.apply(bad);
      FAIL() << "unknown user must throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("user_leave: unknown user 999"),
                std::string::npos)
          << e.what();
    }
    InstanceEvent bad_stream;
    bad_stream.type = EventType::kStreamRemove;
    bad_stream.stream = -1;
    EXPECT_THROW(session.apply(bad_stream), std::invalid_argument);
    InstanceEvent bad_cap;
    bad_cap.type = EventType::kCapacityChange;
    bad_cap.user = 0;
    bad_cap.value = -2.0;
    EXPECT_THROW(session.apply(bad_cap), std::invalid_argument);

    // Nothing counted, nothing moved, and the session still serves.
    EXPECT_EQ(session.counters().events, 0u) << to_string(policy);
    EXPECT_EQ(session.objective(), objective) << to_string(policy);
    EXPECT_EQ(pair_set(session), pairs) << to_string(policy);
    InstanceEvent ok;
    ok.type = EventType::kUserLeave;
    ok.user = 0;
    session.apply(ok);
    EXPECT_EQ(session.counters().events, 1u);
    EXPECT_TRUE(session.check_parity().ok) << to_string(policy);
  }
}

// --- ServeConfig ---------------------------------------------------------

TEST(ServeConfig, OptionKeysFollowTheDeclaredOrder) {
  const auto declared = ServeConfig::declared();
  const std::vector<std::string> keys = ServeConfig::option_keys();
  ASSERT_EQ(keys.size(), declared.size());
  std::set<std::string> unique;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(keys[i], declared[i].key);
    ASSERT_NE(declared[i].fallback, nullptr) << keys[i];
    EXPECT_NE(std::string(declared[i].description), "") << keys[i];
    unique.insert(keys[i]);
  }
  EXPECT_EQ(unique.size(), keys.size()) << "a key is declared twice";
  EXPECT_EQ(keys.front(), "policy");
}

TEST(ServeConfig, DeclaredFallbacksParseToTheSessionDefaults) {
  // Feeding every declared fallback back in explicitly must land on the
  // same config as leaving every key out — and on SessionOptions{}.
  SolveOptions explicit_opts;
  for (const ServeOptionSpec& spec : ServeConfig::declared())
    explicit_opts.set(spec.key, spec.fallback);
  const ServeConfig parsed = ServeConfig::from_options(explicit_opts);
  const ServeConfig defaults = ServeConfig::from_options({});
  const SessionOptions session_defaults;
  for (const SessionOptions* cfg :
       {static_cast<const SessionOptions*>(&parsed),
        static_cast<const SessionOptions*>(&defaults)}) {
    EXPECT_EQ(cfg->policy, session_defaults.policy);
    EXPECT_EQ(cfg->bound, session_defaults.bound);
    EXPECT_EQ(cfg->refresh, session_defaults.refresh);
    EXPECT_EQ(cfg->mode, session_defaults.mode);
    EXPECT_EQ(cfg->strategy, session_defaults.strategy);
    EXPECT_EQ(cfg->mu, session_defaults.mu);
    EXPECT_EQ(cfg->guard, session_defaults.guard);
    EXPECT_EQ(cfg->workspace, nullptr);
    EXPECT_FALSE(cfg->open_empty);
  }
  EXPECT_EQ(parsed.events, defaults.events);
  EXPECT_EQ(parsed.trace, defaults.trace);
  EXPECT_EQ(parsed.family, defaults.family);
}

TEST(ServeConfig, OnlineKnobsReachTheSession) {
  SolveOptions opts;
  opts.set("policy", "online").set("mu", "2.5").set("guard", "0");
  const ServeConfig cfg = ServeConfig::from_options(opts);
  EXPECT_EQ(cfg.policy, ServePolicy::kOnline);
  EXPECT_EQ(cfg.mu, 2.5);
  EXPECT_FALSE(cfg.guard);
  const Instance inst = cap_instance(113);
  const Session session(inst, cfg);
  EXPECT_EQ(session.policy(), ServePolicy::kOnline);
  EXPECT_EQ(session.counters().online_accepts +
                session.counters().online_rejects,
            inst.num_streams());
}

TEST(ServeSolver, StrictModeRejectsUndeclaredServeKeys) {
  const Instance inst = cap_instance(127);
  SolveRequest req;
  req.instance = &inst;
  req.algorithm = "serve";
  req.strict = true;
  req.options.set("policy", "resolve").set("events", 10);
  ASSERT_TRUE(engine::solve(req).ok);
  // Only declared keys are serve options; anything else is a typo.
  for (const char* key : {"shards", "queue", "workers"}) {
    SolveRequest bad = req;
    bad.options.set(key, "2");
    const SolveResult r = engine::solve(bad);
    EXPECT_FALSE(r.ok) << key;
    EXPECT_NE(r.error.find(key), std::string::npos) << r.error;
  }
}

}  // namespace
}  // namespace vdist::engine
