#include "gen/random_instances.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/rng.h"

namespace vdist::gen {

using model::Instance;
using model::InstanceBuilder;
using model::StreamId;
using model::UserId;

namespace {

// Samples the interest bipartite graph: for each stream, a random user
// subset with expected size `interest_per_stream` (at least one user, so
// no stream is trivially dead).
std::vector<std::vector<UserId>> sample_interest(std::size_t num_streams,
                                                 std::size_t num_users,
                                                 double interest_per_stream,
                                                 util::Rng& rng) {
  const std::uint64_t below = util::Rng::bernoulli_threshold(
      interest_per_stream / static_cast<double>(num_users));
  std::vector<std::vector<UserId>> out(num_streams);
  for (std::size_t s = 0; s < num_streams; ++s) {
    for (std::size_t u = 0; u < num_users; ++u)
      if (rng.bernoulli_below(below)) out[s].push_back(static_cast<UserId>(u));
    if (out[s].empty())
      out[s].push_back(static_cast<UserId>(
          rng.uniform_int(0, static_cast<std::int64_t>(num_users) - 1)));
  }
  return out;
}

}  // namespace

Instance random_cap_instance(const RandomCapConfig& cfg) {
  util::Rng rng(cfg.seed);
  const auto interest = sample_interest(cfg.num_streams, cfg.num_users,
                                        cfg.interest_per_stream, rng);

  std::vector<double> costs(cfg.num_streams);
  double total_cost = 0.0;
  for (auto& c : costs) {
    c = rng.uniform(cfg.cost_min, cfg.cost_max);
    total_cost += c;
  }
  struct E {
    UserId u;
    StreamId s;
    double w;
  };
  std::vector<E> edges;
  std::vector<double> user_total(cfg.num_users, 0.0);
  for (std::size_t s = 0; s < cfg.num_streams; ++s) {
    for (UserId u : interest[s]) {
      const double w = rng.uniform(cfg.utility_min, cfg.utility_max);
      edges.push_back({u, static_cast<StreamId>(s), w});
      user_total[static_cast<std::size_t>(u)] += w;
    }
  }

  const double budget = std::max(cfg.budget_fraction * total_cost,
                                 *std::max_element(costs.begin(), costs.end()));
  InstanceBuilder b(1, 1);
  b.set_budget(0, budget);
  for (double c : costs) b.add_stream({c});
  for (std::size_t u = 0; u < cfg.num_users; ++u) {
    const double cap = std::max(cfg.cap_fraction * user_total[u], 1e-9);
    b.add_user({cap});
  }
  for (const auto& e : edges) {
    // Respect the paper's assumption w_u(S) <= W_u (the builder would drop
    // the edge otherwise); clamp instead so the graph stays intact.
    const double cap =
        std::max(cfg.cap_fraction * user_total[static_cast<std::size_t>(e.u)],
                 1e-9);
    b.add_interest_unit_skew(e.u, e.s, std::min(e.w, cap));
  }
  return std::move(b).build();
}

Instance random_smd_instance(const RandomSmdConfig& cfg) {
  util::Rng rng(cfg.seed);
  const auto interest = sample_interest(cfg.num_streams, cfg.num_users,
                                        cfg.interest_per_stream, rng);

  std::vector<double> costs(cfg.num_streams);
  double total_cost = 0.0;
  for (auto& c : costs) {
    c = rng.uniform(cfg.cost_min, cfg.cost_max);
    total_cost += c;
  }
  struct E {
    UserId u;
    StreamId s;
    double w;
    double k;
  };
  std::vector<E> edges;
  std::vector<double> user_load_total(cfg.num_users, 0.0);
  const double log_skew = std::log(std::max(cfg.target_skew, 1.0));
  for (std::size_t s = 0; s < cfg.num_streams; ++s) {
    for (UserId u : interest[s]) {
      const double w = rng.uniform(cfg.utility_min, cfg.utility_max);
      // ratio = w/k drawn log-uniformly from [1, target_skew].
      const double ratio = std::exp(rng.uniform(0.0, log_skew));
      const double k = w / ratio;
      edges.push_back({u, static_cast<StreamId>(s), w, k});
      user_load_total[static_cast<std::size_t>(u)] += k;
    }
  }

  const double budget = std::max(cfg.budget_fraction * total_cost,
                                 *std::max_element(costs.begin(), costs.end()));
  InstanceBuilder b(1, 1);
  b.set_budget(0, budget);
  for (double c : costs) b.add_stream({c});
  std::vector<double> caps(cfg.num_users);
  for (std::size_t u = 0; u < cfg.num_users; ++u) {
    caps[u] = std::max(cfg.capacity_fraction * user_load_total[u], 1e-9);
    b.add_user({caps[u]});
  }
  for (const auto& e : edges) {
    const double k = std::min(e.k, caps[static_cast<std::size_t>(e.u)]);
    b.add_interest(e.u, e.s, e.w, {k});
  }
  return std::move(b).build();
}

Instance random_mmd_instance(const RandomMmdConfig& cfg) {
  util::Rng rng(cfg.seed);
  const auto interest = sample_interest(cfg.num_streams, cfg.num_users,
                                        cfg.interest_per_stream, rng);
  const auto m = static_cast<std::size_t>(cfg.num_server_measures);
  const auto mc = static_cast<std::size_t>(cfg.num_user_measures);

  std::vector<std::vector<double>> costs(cfg.num_streams,
                                         std::vector<double>(m));
  std::vector<double> total_cost(m, 0.0);
  for (auto& sc : costs)
    for (std::size_t i = 0; i < m; ++i) {
      sc[i] = rng.uniform(cfg.cost_min, cfg.cost_max);
      total_cost[i] += sc[i];
    }

  struct E {
    UserId u;
    StreamId s;
    double w;
    std::vector<double> loads;
  };
  std::vector<E> edges;
  std::vector<std::vector<double>> user_load_total(
      cfg.num_users, std::vector<double>(mc, 0.0));
  for (std::size_t s = 0; s < cfg.num_streams; ++s) {
    for (UserId u : interest[s]) {
      E e{u, static_cast<StreamId>(s),
          rng.uniform(cfg.utility_min, cfg.utility_max),
          std::vector<double>(mc)};
      for (std::size_t j = 0; j < mc; ++j) {
        e.loads[j] = rng.uniform(cfg.load_min, cfg.load_max);
        user_load_total[static_cast<std::size_t>(u)][j] += e.loads[j];
      }
      edges.push_back(std::move(e));
    }
  }

  InstanceBuilder b(cfg.num_server_measures, cfg.num_user_measures);
  for (std::size_t i = 0; i < m; ++i) {
    double max_cost = 0.0;
    for (const auto& sc : costs) max_cost = std::max(max_cost, sc[i]);
    b.set_budget(static_cast<int>(i),
                 std::max(cfg.budget_fraction * total_cost[i], max_cost));
  }
  for (const auto& sc : costs) b.add_stream(sc);
  std::vector<std::vector<double>> caps(cfg.num_users,
                                        std::vector<double>(mc));
  for (std::size_t u = 0; u < cfg.num_users; ++u) {
    for (std::size_t j = 0; j < mc; ++j)
      caps[u][j] = std::max(cfg.capacity_fraction * user_load_total[u][j],
                            1e-9);
    b.add_user(caps[u]);
  }
  for (auto& e : edges) {
    for (std::size_t j = 0; j < mc; ++j)
      e.loads[j] = std::min(e.loads[j], caps[static_cast<std::size_t>(e.u)][j]);
    b.add_interest(e.u, e.s, e.w, e.loads);
  }
  return std::move(b).build();
}

}  // namespace vdist::gen
