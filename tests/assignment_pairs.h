// Shared test helpers: an Assignment's (user, stream) pair set in sorted
// order, the canonical form the equivalence suites compare (test_select,
// test_view, test_checkpoint), and each user's streams in assignment
// order — the greedy's pick order as each user saw it.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "model/assignment.h"

namespace vdist::testing {

inline std::vector<std::pair<model::UserId, model::StreamId>> pairs(
    const model::Assignment& a) {
  std::vector<std::pair<model::UserId, model::StreamId>> out;
  for (std::size_t u = 0; u < a.instance().num_users(); ++u)
    for (model::StreamId s : a.streams_of(static_cast<model::UserId>(u)))
      out.emplace_back(static_cast<model::UserId>(u), s);
  std::sort(out.begin(), out.end());
  return out;
}

inline std::vector<std::vector<model::StreamId>> assignment_order(
    const model::Assignment& a) {
  std::vector<std::vector<model::StreamId>> out;
  for (std::size_t u = 0; u < a.instance().num_users(); ++u) {
    const auto streams = a.streams_of(static_cast<model::UserId>(u));
    out.emplace_back(streams.begin(), streams.end());
  }
  return out;
}

}  // namespace vdist::testing
