// Parameterized approximation-ratio tests: every theorem bound of
// Sections 2-4 is checked empirically against the exact optimum on
// families of random instances. These are the library's property tests —
// the proven worst-case factors must hold on every sampled instance.
#include <gtest/gtest.h>

#include <cmath>

#include "core/exact.h"
#include "core/greedy.h"
#include "core/mmd_solver.h"
#include "core/partial_enum.h"
#include "core/skew_bands.h"
#include "gen/random_instances.h"
#include "model/factory.h"
#include "model/validate.h"

namespace vdist::core {
namespace {

constexpr double kE = 2.718281828459045;

struct RatioCase {
  std::size_t streams;
  std::size_t users;
  double budget_fraction;
  double cap_fraction;
  std::uint64_t seed;
};

std::vector<RatioCase> cap_cases() {
  std::vector<RatioCase> cases;
  std::uint64_t seed = 1;
  for (std::size_t streams : {8u, 12u, 16u})
    for (std::size_t users : {4u, 8u})
      for (double bf : {0.2, 0.5})
        for (double cf : {0.35, 0.8})
          cases.push_back({streams, users, bf, cf, seed++});
  return cases;
}

class CapRatioTest : public ::testing::TestWithParam<RatioCase> {};

TEST_P(CapRatioTest, FeasibleGreedyWithinTheorem28Bound) {
  const RatioCase& rc = GetParam();
  gen::RandomCapConfig cfg;
  cfg.num_streams = rc.streams;
  cfg.num_users = rc.users;
  cfg.budget_fraction = rc.budget_fraction;
  cfg.cap_fraction = rc.cap_fraction;
  cfg.seed = rc.seed;
  const model::Instance inst = gen::random_cap_instance(cfg);

  const ExactResult opt = solve_exact(inst);
  ASSERT_TRUE(opt.proven_optimal);
  const SmdSolveResult alg = solve_unit_skew(inst, SmdMode::kFeasible);

  EXPECT_TRUE(model::validate(alg.assignment).feasible());
  EXPECT_LE(alg.utility, opt.utility + 1e-6) << "ALG cannot beat OPT";
  // Theorem 2.8: ALG >= OPT * (e-1)/(3e).
  const double bound = opt.utility * (kE - 1.0) / (3.0 * kE);
  EXPECT_GE(alg.utility + 1e-9, bound)
      << "streams=" << rc.streams << " users=" << rc.users
      << " seed=" << rc.seed;
}

TEST_P(CapRatioTest, AugmentedGreedyWithinCorollary27Bound) {
  const RatioCase& rc = GetParam();
  gen::RandomCapConfig cfg;
  cfg.num_streams = rc.streams;
  cfg.num_users = rc.users;
  cfg.budget_fraction = rc.budget_fraction;
  cfg.cap_fraction = rc.cap_fraction;
  cfg.seed = rc.seed + 1000;
  const model::Instance inst = gen::random_cap_instance(cfg);

  const ExactResult opt = solve_exact(inst);
  ASSERT_TRUE(opt.proven_optimal);
  const SmdSolveResult aug = solve_unit_skew(inst, SmdMode::kAugmented);
  EXPECT_TRUE(model::validate(aug.assignment).server_feasible());
  // Corollary 2.7: capped utility >= OPT * (e-1)/(2e).
  const double bound = opt.utility * (kE - 1.0) / (2.0 * kE);
  EXPECT_GE(aug.utility + 1e-9, bound) << "seed=" << cfg.seed;
}

TEST_P(CapRatioTest, PartialEnumAtLeastAsGoodAsGreedy) {
  const RatioCase& rc = GetParam();
  gen::RandomCapConfig cfg;
  cfg.num_streams = rc.streams;
  cfg.num_users = rc.users;
  cfg.budget_fraction = rc.budget_fraction;
  cfg.cap_fraction = rc.cap_fraction;
  cfg.seed = rc.seed + 2000;
  const model::Instance inst = gen::random_cap_instance(cfg);

  const SmdSolveResult greedy = solve_unit_skew(inst, SmdMode::kFeasible);
  PartialEnumOptions opts;
  opts.seed_size = 2;  // keep the sweep fast; 3 is covered in E3
  const PartialEnumResult enum_result = partial_enum_unit_skew(inst, opts);
  EXPECT_FALSE(enum_result.truncated);
  EXPECT_GE(enum_result.best.utility + 1e-9, greedy.utility);
  EXPECT_TRUE(model::validate(enum_result.best.assignment).feasible());

  // Theorem 2.10 (with seed_size 3 the proven factor is 2e/(e-1); with the
  // reduced seed we still must beat the plain-greedy bound).
  const ExactResult opt = solve_exact(inst);
  const double bound = opt.utility * (kE - 1.0) / (3.0 * kE);
  EXPECT_GE(enum_result.best.utility + 1e-9, bound);
}

INSTANTIATE_TEST_SUITE_P(CapSweep, CapRatioTest,
                         ::testing::ValuesIn(cap_cases()));

// --- Theorem 2.5: resource augmentation vs. reduced-budget optimum --------

TEST(ResourceAugmentation, GreedyBeatsReducedBudgetOptimum) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    gen::RandomCapConfig cfg;
    cfg.num_streams = 12;
    cfg.num_users = 6;
    cfg.budget_fraction = 0.4;
    cfg.seed = seed * 17;
    const model::Instance inst = gen::random_cap_instance(cfg);

    // Build the same instance with budget B - cmax.
    double cmax = 0.0;
    std::vector<double> costs(inst.num_streams());
    for (std::size_t s = 0; s < costs.size(); ++s) {
      costs[s] = inst.cost(static_cast<model::StreamId>(s), 0);
      cmax = std::max(cmax, costs[s]);
    }
    const double reduced_budget = inst.budget(0) - cmax;
    if (reduced_budget <= cmax) continue;  // degenerate draw
    std::vector<double> caps(inst.num_users());
    std::vector<model::CapEdge> edges;
    for (std::size_t u = 0; u < inst.num_users(); ++u)
      caps[u] = inst.capacity(static_cast<model::UserId>(u), 0);
    for (std::size_t s = 0; s < inst.num_streams(); ++s) {
      const auto sid = static_cast<model::StreamId>(s);
      const auto users = inst.users_of(sid);
      const auto utils = inst.utilities_of(sid);
      for (std::size_t t = 0; t < users.size(); ++t)
        edges.push_back({users[t], sid, utils[t]});
    }
    const model::Instance reduced =
        model::build_cap_instance(costs, reduced_budget, caps, edges);
    const ExactResult opt_minus = solve_exact(reduced);
    ASSERT_TRUE(opt_minus.proven_optimal);

    // Theorem 2.5: the semi-feasible greedy achieves (1 - 1/e) * OPT^-.
    const GreedyResult g = greedy_unit_skew(inst);
    EXPECT_GE(g.capped_utility + 1e-9,
              (1.0 - 1.0 / kE) * opt_minus.utility)
        << "seed " << seed;
  }
}

// --- Theorem 3.1: arbitrary skew -------------------------------------------

struct SkewCase {
  double target_skew;
  std::uint64_t seed;
};

class SkewRatioTest : public ::testing::TestWithParam<SkewCase> {};

TEST_P(SkewRatioTest, WithinClassifyAndSelectBound) {
  const SkewCase& sc = GetParam();
  gen::RandomSmdConfig cfg;
  cfg.num_streams = 12;
  cfg.num_users = 6;
  cfg.target_skew = sc.target_skew;
  cfg.budget_fraction = 0.35;
  cfg.capacity_fraction = 0.5;
  cfg.seed = sc.seed;
  const model::Instance inst = gen::random_smd_instance(cfg);

  const SkewBandsResult bands = solve_smd_any_skew(inst);
  EXPECT_TRUE(model::validate(bands.assignment).feasible());

  const ExactResult opt = solve_exact(inst);
  ASSERT_TRUE(opt.proven_optimal);
  EXPECT_LE(bands.utility, opt.utility + 1e-6);

  // Theorem 3.1: ratio O(log 2*alpha); concretely 2t * (3e/(e-1)) with
  // t = 1 + floor(log2 alpha).
  const double t = std::max(1.0, 1.0 + std::floor(std::log2(bands.alpha)));
  const double factor = 2.0 * t * (3.0 * kE / (kE - 1.0));
  EXPECT_GE(bands.utility * factor + 1e-9, opt.utility)
      << "alpha=" << bands.alpha << " seed=" << sc.seed;
}

std::vector<SkewCase> skew_cases() {
  std::vector<SkewCase> cases;
  std::uint64_t seed = 100;
  for (double skew : {1.0, 2.0, 8.0, 64.0, 1024.0})
    for (int rep = 0; rep < 3; ++rep) cases.push_back({skew, seed++});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(SkewSweep, SkewRatioTest,
                         ::testing::ValuesIn(skew_cases()));

// --- Theorem 4.4: full MMD pipeline ----------------------------------------

struct MmdCase {
  int m;
  int mc;
  std::uint64_t seed;
};

class MmdRatioTest : public ::testing::TestWithParam<MmdCase> {};

TEST_P(MmdRatioTest, WithinTheorem44Bound) {
  const MmdCase& mcse = GetParam();
  gen::RandomMmdConfig cfg;
  cfg.num_streams = 10;
  cfg.num_users = 5;
  cfg.num_server_measures = mcse.m;
  cfg.num_user_measures = mcse.mc;
  cfg.budget_fraction = 0.4;
  cfg.capacity_fraction = 0.5;
  cfg.seed = mcse.seed;
  const model::Instance inst = gen::random_mmd_instance(cfg);

  const MmdSolveResult alg = solve_mmd(inst);
  EXPECT_TRUE(model::validate(alg.assignment).feasible());

  const ExactResult opt = solve_exact(inst);
  ASSERT_TRUE(opt.proven_optimal);
  EXPECT_LE(alg.utility, opt.utility + 1e-6);

  // Theorem 4.4 concrete factor: (2m-1)(2mc-1) * 2t * 3e/(e-1), with t the
  // band count of the reduced instance.
  const double t = std::max(1, alg.num_bands);
  const double factor = (2.0 * mcse.m - 1.0) * (2.0 * mcse.mc - 1.0) * 2.0 *
                        t * (3.0 * kE / (kE - 1.0));
  EXPECT_GE(alg.utility * factor + 1e-9, opt.utility)
      << "m=" << mcse.m << " mc=" << mcse.mc << " seed=" << mcse.seed;
}

std::vector<MmdCase> mmd_cases() {
  std::vector<MmdCase> cases;
  std::uint64_t seed = 500;
  for (int m : {1, 2, 4})
    for (int mc : {1, 2})
      for (int rep = 0; rep < 3; ++rep) cases.push_back({m, mc, seed++});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(MmdSweep, MmdRatioTest,
                         ::testing::ValuesIn(mmd_cases()));

}  // namespace
}  // namespace vdist::core
