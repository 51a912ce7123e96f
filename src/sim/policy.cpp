#include "sim/policy.h"

#include "util/float_cmp.h"
#include "util/rng.h"

namespace vdist::sim {

using model::Instance;
using model::UserId;
using util::approx_le;
using util::is_unbounded;

namespace {

std::vector<double> budgets_of(const Instance& catalog) {
  return {catalog.budgets().begin(), catalog.budgets().end()};
}

engine::SessionOptions opened_empty(engine::SessionOptions opts) {
  opts.open_empty = true;
  return opts;
}

std::vector<std::vector<double>> caps_of(const Instance& catalog) {
  std::vector<std::vector<double>> caps(catalog.num_users());
  for (std::size_t u = 0; u < catalog.num_users(); ++u) {
    caps[u].resize(static_cast<std::size_t>(catalog.num_user_measures()));
    for (int j = 0; j < catalog.num_user_measures(); ++j)
      caps[u][static_cast<std::size_t>(j)] =
          catalog.capacity(static_cast<UserId>(u), j);
  }
  return caps;
}

}  // namespace

// --- SessionPolicy ----------------------------------------------------------

SessionPolicy::SessionPolicy(const Instance& catalog,
                             engine::SessionOptions opts)
    : session_(catalog, opened_empty(opts)),
      refcount_(catalog.num_streams(), 0) {}

std::vector<std::size_t> SessionPolicy::on_arrival(const StreamOffer& offer) {
  const model::StreamId s = offer.stream;
  if (refcount_[static_cast<std::size_t>(s)]++ == 0) {
    model::InstanceEvent event;
    event.type = model::EventType::kStreamAdd;
    event.stream = s;
    session_.apply(event);
  }
  const model::Assignment& a = session_.assignment();
  std::vector<std::size_t> taken;
  for (std::size_t idx = 0; idx < offer.candidates.size(); ++idx)
    if (a.has(offer.candidates[idx].user, s)) taken.push_back(idx);
  return taken;
}

void SessionPolicy::on_departure(const StreamOffer& offer,
                                 const std::vector<std::size_t>& /*taken*/) {
  const model::StreamId s = offer.stream;
  if (--refcount_[static_cast<std::size_t>(s)] == 0) {
    model::InstanceEvent event;
    event.type = model::EventType::kStreamRemove;
    event.stream = s;
    session_.apply(event);
  }
}

// --- OnlineAllocatePolicy --------------------------------------------------

OnlineAllocatePolicy::OnlineAllocatePolicy(const Instance& catalog, double mu,
                                           bool guard_feasibility)
    : allocator_(budgets_of(catalog), {mu, guard_feasibility},
                 core::compute_scales(catalog).server) {
  core::AllocatorScales scales = core::compute_scales(catalog);
  auto caps = caps_of(catalog);
  for (std::size_t u = 0; u < caps.size(); ++u)
    allocator_.add_user(std::move(caps[u]), std::move(scales.user[u]));
}

std::vector<std::size_t> OnlineAllocatePolicy::on_arrival(
    const StreamOffer& offer) {
  return allocator_.offer(offer.costs, offer.candidates).taken;
}

void OnlineAllocatePolicy::on_departure(const StreamOffer& offer,
                                        const std::vector<std::size_t>& taken) {
  allocator_.release(offer.costs, offer.candidates, taken);
}

// --- ThresholdPolicy --------------------------------------------------------

ThresholdPolicy::ThresholdPolicy(const Instance& catalog, double server_margin,
                                 double user_margin)
    : server_margin_(server_margin),
      user_margin_(user_margin),
      budgets_(budgets_of(catalog)),
      server_used_(budgets_.size(), 0.0),
      user_caps_(caps_of(catalog)) {
  user_used_.resize(user_caps_.size());
  for (std::size_t u = 0; u < user_caps_.size(); ++u)
    user_used_[u].assign(user_caps_[u].size(), 0.0);
}

std::vector<std::size_t> ThresholdPolicy::on_arrival(const StreamOffer& offer) {
  for (std::size_t i = 0; i < budgets_.size(); ++i) {
    if (is_unbounded(budgets_[i])) continue;
    if (!approx_le(server_used_[i] + offer.costs[i],
                   server_margin_ * budgets_[i]))
      return {};
  }
  std::vector<std::size_t> taken;
  for (std::size_t idx = 0; idx < offer.candidates.size(); ++idx) {
    const Candidate& cand = offer.candidates[idx];
    const auto uu = static_cast<std::size_t>(cand.user);
    bool ok = true;
    for (std::size_t j = 0; j < user_caps_[uu].size(); ++j) {
      if (is_unbounded(user_caps_[uu][j])) continue;
      if (!approx_le(user_used_[uu][j] + cand.loads[j],
                     user_margin_ * user_caps_[uu][j])) {
        ok = false;
        break;
      }
    }
    if (ok) taken.push_back(idx);
  }
  if (taken.empty()) return {};
  for (std::size_t i = 0; i < budgets_.size(); ++i)
    server_used_[i] += offer.costs[i];
  for (std::size_t idx : taken) {
    const Candidate& cand = offer.candidates[idx];
    const auto uu = static_cast<std::size_t>(cand.user);
    for (std::size_t j = 0; j < user_used_[uu].size(); ++j)
      user_used_[uu][j] += cand.loads[j];
  }
  return taken;
}

void ThresholdPolicy::on_departure(const StreamOffer& offer,
                                   const std::vector<std::size_t>& taken) {
  if (taken.empty()) return;
  for (std::size_t i = 0; i < budgets_.size(); ++i)
    server_used_[i] -= offer.costs[i];
  for (std::size_t idx : taken) {
    const Candidate& cand = offer.candidates[idx];
    const auto uu = static_cast<std::size_t>(cand.user);
    for (std::size_t j = 0; j < user_used_[uu].size(); ++j)
      user_used_[uu][j] -= cand.loads[j];
  }
}

// --- RandomPolicy ------------------------------------------------------------

RandomPolicy::RandomPolicy(const Instance& catalog, double accept_probability,
                           std::uint64_t seed)
    : feasibility_(catalog, 1.0, 1.0), p_(accept_probability), state_(seed) {}

std::vector<std::size_t> RandomPolicy::on_arrival(const StreamOffer& offer) {
  util::Rng rng(state_);
  state_ = rng.next_u64();
  if (rng.uniform() >= p_) return {};
  return feasibility_.on_arrival(offer);
}

void RandomPolicy::on_departure(const StreamOffer& offer,
                                const std::vector<std::size_t>& taken) {
  feasibility_.on_departure(offer, taken);
}

}  // namespace vdist::sim
