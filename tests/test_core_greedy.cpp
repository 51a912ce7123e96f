#include "core/greedy.h"

#include <gtest/gtest.h>

#include "core/submodular.h"
#include "gen/random_instances.h"
#include "model/factory.h"
#include "model/validate.h"

namespace vdist::core {
namespace {

using model::build_cap_instance;
using model::Instance;

TEST(Greedy, RequiresCapForm) {
  const Instance skewed = model::build_smd_instance(
      {1.0}, 10.0, {5.0}, {{0, 0, 2.0, 1.0}});
  EXPECT_THROW(greedy_unit_skew(skewed), std::invalid_argument);
  model::InstanceBuilder b(2, 1);
  b.set_budget(0, 1.0);
  b.set_budget(1, 1.0);
  const Instance mmd = std::move(b).build();
  EXPECT_THROW(greedy_unit_skew(mmd), std::invalid_argument);
}

TEST(Greedy, PicksByCostEffectivenessOrder) {
  // Effectiveness: s0 = 6/2 = 3, s1 = 5/5 = 1, s2 = 8/4 = 2.
  const Instance inst = build_cap_instance(
      {2.0, 5.0, 4.0}, 100.0, {100.0},
      {{0, 0, 6.0}, {0, 1, 5.0}, {0, 2, 8.0}});
  const GreedyResult g = greedy_unit_skew(inst);
  EXPECT_EQ(g.trace.num_considered, 3u);
  const auto order = g.assignment.streams_of(0);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 1);
  EXPECT_DOUBLE_EQ(g.capped_utility, 19.0);
}

TEST(Greedy, SkipsUnaffordableAndContinues) {
  // s0 (eff 3) then s1 (cost 9 won't fit after s0: 2+9 > 10), then s2 fits.
  const Instance inst = build_cap_instance(
      {2.0, 9.0, 4.0}, 10.0, {100.0},
      {{0, 0, 6.0}, {0, 1, 24.0}, {0, 2, 8.0}});
  const GreedyResult g = greedy_unit_skew(inst);
  EXPECT_EQ(g.trace.skipped_budget, 1u);
  EXPECT_DOUBLE_EQ(g.assignment.server_cost(0), 6.0);
  EXPECT_DOUBLE_EQ(g.capped_utility, 14.0);
  EXPECT_FALSE(g.assignment.has(0, 1));
}

TEST(Greedy, SaturatesUsersAtMostOnce) {
  // Cap 3, each stream worth 2: second assignment overshoots (semi-
  // feasible), third adds nothing and is not assigned.
  const Instance inst = build_cap_instance(
      {1.0, 1.0, 1.0}, 100.0, {3.0},
      {{0, 0, 2.0}, {0, 1, 2.0}, {0, 2, 2.0}});
  const GreedyResult g = greedy_unit_skew(inst);
  EXPECT_DOUBLE_EQ(g.capped_utility, 3.0);
  EXPECT_DOUBLE_EQ(g.assignment.utility(), 4.0) << "raw may exceed the cap";
  EXPECT_EQ(g.assignment.streams_of(0).size(), 2u);
  const auto rep = model::validate(g.assignment);
  EXPECT_EQ(rep.feasibility, model::Feasibility::kSemiFeasible);
}

TEST(Greedy, ZeroCostStreamsTakenFirst) {
  const Instance inst = build_cap_instance(
      {0.0, 1.0}, 1.0, {100.0}, {{0, 0, 0.5}, {0, 1, 50.0}});
  const GreedyResult g = greedy_unit_skew(inst);
  ASSERT_EQ(g.assignment.streams_of(0).size(), 2u);
  EXPECT_EQ(g.assignment.streams_of(0)[0], 0);
  EXPECT_EQ(g.assignment.streams_of(0)[1], 1);
}

TEST(Greedy, FractionalResidualDrivesSelection) {
  // Two users. s1 saturates user 0 exactly; afterwards s0's residual
  // utility is zero and s2 is the only stream still worth anything.
  const Instance inst = build_cap_instance(
      {1.0, 2.0, 1.0}, 100.0, {9.0, 10.0},
      {{0, 0, 4.0},               // s0: user 0 only, eff 4
       {0, 1, 9.0}, {1, 1, 1.0},  // s1: eff (9+1)/2 = 5 initially
       {1, 2, 3.0}});             // s2: eff 3
  const GreedyResult g = greedy_unit_skew(inst);
  // First pick: s1 (eff 5). Then user0 rem = 0 => s0 eff 0 leaves the
  // pool unconsidered; s2 eff 3.
  EXPECT_EQ(g.trace.num_considered, 2u);
  const auto user0 = g.assignment.streams_of(0);
  const auto user1 = g.assignment.streams_of(1);
  ASSERT_EQ(user0.size(), 1u);
  EXPECT_EQ(user0[0], 1);
  ASSERT_EQ(user1.size(), 2u);
  EXPECT_EQ(user1[0], 1);
  EXPECT_EQ(user1[1], 2);
  EXPECT_DOUBLE_EQ(g.capped_utility, 9.0 + 1.0 + 3.0);
}

TEST(Greedy, ServerBudgetNeverViolated) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    gen::RandomCapConfig cfg;
    cfg.num_streams = 30;
    cfg.num_users = 12;
    cfg.budget_fraction = 0.25;
    cfg.seed = seed;
    const Instance inst = gen::random_cap_instance(cfg);
    const GreedyResult g = greedy_unit_skew(inst);
    EXPECT_TRUE(model::validate(g.assignment).server_feasible());
    EXPECT_LE(g.assignment.server_cost(0), inst.budget(0) * (1 + 1e-9));
  }
}

TEST(Greedy, MatchesSubmodularSetFunctionGreedy) {
  // Algorithm 1's fractional residual w̄(S) equals the marginal of the
  // capped set function (Lemma 2.1); both greedy paths must agree.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    gen::RandomCapConfig cfg;
    cfg.num_streams = 18;
    cfg.num_users = 7;
    cfg.seed = seed * 31 + 5;
    const Instance inst = gen::random_cap_instance(cfg);
    const GreedyResult g = greedy_unit_skew(inst);
    CapUtilityOracle oracle(inst);
    std::vector<double> costs(inst.num_streams());
    for (std::size_t s = 0; s < costs.size(); ++s)
      costs[s] = inst.cost(static_cast<model::StreamId>(s), 0);
    const SubmodularResult sub =
        knapsack_greedy(oracle, costs, inst.budget(0), {.lazy = false});
    EXPECT_NEAR(g.capped_utility, sub.value, 1e-9)
        << "seed " << cfg.seed;
  }
}

TEST(BestSingleStream, PicksMaxTotalUtility) {
  const Instance inst = build_cap_instance(
      {1.0, 1.0}, 10.0, {10.0, 10.0},
      {{0, 0, 2.0}, {1, 0, 2.0}, {0, 1, 3.0}});
  const model::Assignment amax = best_single_stream(inst);
  EXPECT_TRUE(amax.has(0, 0));
  EXPECT_TRUE(amax.has(1, 0));
  EXPECT_DOUBLE_EQ(amax.utility(), 4.0);
}

TEST(FixedGreedy, BlockingExampleOfSection22) {
  // The paper's weakness example: a tiny high-effectiveness stream blocks
  // a budget-filling stream of much larger absolute utility. Plain greedy
  // gets 1.1; the fix returns the single big stream (10).
  const Instance inst = build_cap_instance(
      {1.0, 10.0}, 10.0, {100.0},
      {{0, 0, 1.1}, {0, 1, 10.0}});
  const GreedyResult g = greedy_unit_skew(inst);
  EXPECT_DOUBLE_EQ(g.capped_utility, 1.1);
  const SmdSolveResult fixed = solve_unit_skew(inst, SmdMode::kFeasible);
  EXPECT_DOUBLE_EQ(fixed.utility, 10.0);
  EXPECT_EQ(fixed.variant, "Amax");
}

TEST(SplitLastStream, PartitionsPerUserAssignments) {
  const Instance inst = build_cap_instance(
      {1.0, 1.0, 1.0}, 100.0, {3.0},
      {{0, 0, 2.0}, {0, 1, 2.0}, {0, 2, 2.0}});
  const GreedyResult g = greedy_unit_skew(inst);
  const FeasibleSplit split = split_last_stream(inst, g.assignment);
  // w(A1) + w(A2) >= w(A) (raw), and both are feasible.
  EXPECT_GE(split.w1 + split.w2 + 1e-12, g.assignment.utility());
  EXPECT_TRUE(model::validate(split.a1).feasible());
  EXPECT_TRUE(model::validate(split.a2).feasible());
  EXPECT_EQ(split.a2.streams_of(0).size(), 1u);
}

TEST(SolveUnitSkew, FeasibleModeAlwaysFeasible) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    gen::RandomCapConfig cfg;
    cfg.num_streams = 25;
    cfg.num_users = 10;
    cfg.cap_fraction = 0.4;  // binding caps
    cfg.seed = seed * 7;
    const Instance inst = gen::random_cap_instance(cfg);
    const SmdSolveResult r = solve_unit_skew(inst, SmdMode::kFeasible);
    EXPECT_TRUE(model::validate(r.assignment).feasible()) << "seed " << seed;
    EXPECT_NEAR(r.utility, r.assignment.utility(), 1e-9);
  }
}

TEST(SolveUnitSkew, AugmentedModeIsSemiFeasibleAndNoWorse) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    gen::RandomCapConfig cfg;
    cfg.num_streams = 20;
    cfg.num_users = 8;
    cfg.cap_fraction = 0.4;
    cfg.seed = seed * 13;
    const Instance inst = gen::random_cap_instance(cfg);
    const SmdSolveResult feas = solve_unit_skew(inst, SmdMode::kFeasible);
    const SmdSolveResult aug = solve_unit_skew(inst, SmdMode::kAugmented);
    EXPECT_TRUE(model::validate(aug.assignment).server_feasible());
    // The augmented candidate set dominates the feasible one in capped
    // utility (greedy >= max(A1, A2) because w(A1)+w(A2) >= w(A) splits).
    EXPECT_GE(aug.utility + 1e-9, feas.utility * 0.5);
  }
}

TEST(GreedySeeded, SeedsAreForceAssignedFirst) {
  const Instance inst = build_cap_instance(
      {5.0, 1.0}, 6.0, {100.0}, {{0, 0, 1.0}, {0, 1, 3.0}});
  const model::StreamId seeds[] = {0};
  const GreedyResult g = greedy_unit_skew_seeded(inst, seeds);
  const auto order = g.assignment.streams_of(0);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(g.trace.num_considered, 2u);
}

// A seed with zero total utility never enters the selection pool (dead-
// stream pruning), but seeding it must still force-add and charge it —
// pool membership is not the duplicate check.
TEST(GreedySeeded, ZeroUtilitySeedIsStillChargedOnce) {
  // Stream 0 has no interested users; cost 5 of budget 6.
  const Instance inst = build_cap_instance(
      {5.0, 1.0, 1.0}, 6.0, {10.0}, {{0, 1, 4.0}, {0, 2, 3.0}});
  const model::StreamId seeds[] = {0, 0};  // duplicate dead seed
  const GreedyResult g = greedy_unit_skew_seeded(inst, seeds);
  // The charge leaves room for exactly one of streams 1/2: the greedy
  // adds stream 1 (higher effectiveness) and budget-skips stream 2.
  EXPECT_EQ(g.trace.num_considered, 3u);
  EXPECT_EQ(g.trace.skipped_budget, 1u);
  EXPECT_EQ(g.capped_utility, 4.0);
  EXPECT_EQ(g.assignment.range_size(), 1u);
  EXPECT_TRUE(g.assignment.has(0, 1));
}

TEST(GreedySeeded, OversizedSeedThrows) {
  const Instance inst = build_cap_instance(
      {5.0, 6.0}, 6.0, {100.0}, {{0, 0, 1.0}, {0, 1, 3.0}});
  const model::StreamId seeds[] = {0, 1};  // 5 + 6 > 6
  EXPECT_THROW(greedy_unit_skew_seeded(inst, seeds), std::invalid_argument);
}

TEST(Greedy, EmptyInstanceDegenerates) {
  model::InstanceBuilder b(1, 1);
  b.set_budget(0, 5.0);
  const Instance inst = std::move(b).build();
  const GreedyResult g = greedy_unit_skew(inst);
  EXPECT_EQ(g.capped_utility, 0.0);
  EXPECT_EQ(g.trace.num_considered, 0u);
  EXPECT_EQ(g.assignment.num_assigned_pairs(), 0u);
}

}  // namespace
}  // namespace vdist::core
