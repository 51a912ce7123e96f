// Loader robustness under mutation: the committed smoke inputs in
// bench/traces/, with random bytes overwritten and whole lines deleted,
// duplicated, swapped or replaced, must never crash or corrupt anything.
//   * A mutated instance either throws a std::exception from
//     io::load_instance, or loads, solves under `greedy` and yields an
//     assignment model::validate accepts. A mutation can also leave a
//     well-formed instance outside greedy's unit-skew form (a load that
//     no longer equals its utility); greedy must then decline it with
//     an error result, and the any-form `pipeline` must solve it.
//   * A mutated event trace either throws on load, or replays on a
//     Session over serve_smoke.vd where every apply() succeeds or throws
//     a std::exception.
// The seed is fixed, so a failure reproduces with the same mutation; the
// message carries the trial number and the mutated text's first lines.
#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "engine/registry.h"
#include "engine/session.h"
#include "io/event_io.h"
#include "io/instance_io.h"
#include "model/validate.h"
#include "util/rng.h"

#ifndef VDIST_TESTS_DIR
#define VDIST_TESTS_DIR "tests"
#endif

namespace vdist {
namespace {

constexpr const char* kTracesDir = VDIST_TESTS_DIR "/../bench/traces/";
constexpr int kTrialsPerFile = 400;

std::string read_trace(const std::string& name) {
  std::ifstream is(kTracesDir + name);
  if (!is) throw std::runtime_error("cannot open " + name);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

// Bytes a mutation writes: mostly ones the loaders' grammar gives meaning
// (digits, signs, exponents, separators), plus arbitrary noise.
char mutation_byte(util::Rng& rng) {
  static const std::string kMeaningful = "0123456789-+.eE :x\n#";
  const auto last = static_cast<std::int64_t>(kMeaningful.size()) - 1;
  if (rng.bernoulli(0.75))
    return kMeaningful[static_cast<std::size_t>(rng.uniform_int(0, last))];
  return static_cast<char>(rng.uniform_int(0, 255));
}

// One to three byte overwrites, or one whole-line edit.
std::string mutate(const std::string& text, util::Rng& rng) {
  if (rng.bernoulli(0.5)) {
    std::string out = text;
    const std::int64_t edits = rng.uniform_int(1, 3);
    for (std::int64_t e = 0; e < edits; ++e) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(out.size()) - 1));
      out[at] = mutation_byte(rng);
    }
    return out;
  }
  std::vector<std::string> lines = split_lines(text);
  const auto pick = [&] {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(lines.size()) - 1));
  };
  const std::size_t i = pick();
  const std::size_t j = pick();
  switch (rng.uniform_int(0, 3)) {
    case 0:
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    case 1:
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i), lines[j]);
      break;
    case 2:
      std::swap(lines[i], lines[j]);
      break;
    default:
      lines[i] = lines[j];
      break;
  }
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

std::string head_of(const std::string& text) {
  return text.substr(0, std::min<std::size_t>(text.size(), 160));
}

TEST(LoaderMutation, MutatedInstancesThrowOrSolveFeasibly) {
  util::Rng rng(0x5eed0001);
  for (const char* file : {"serve_smoke.vd", "compete_smoke.vd"}) {
    const std::string original = read_trace(file);
    int loaded = 0;
    for (int trial = 0; trial < kTrialsPerFile; ++trial) {
      const std::string text = mutate(original, rng);
      std::istringstream is(text);
      std::optional<model::Instance> inst;
      try {
        inst.emplace(io::load_instance(is));
      } catch (const std::exception&) {
        continue;  // rejected: the accepted outcome for malformed input
      }
      ++loaded;
      engine::SolveRequest req;
      req.instance = &*inst;
      req.algorithm = "greedy";
      req.validate = false;  // judged below by model::validate directly
      engine::SolveResult r = engine::solve(req);
      if (!(inst->is_smd() && inst->is_unit_skew())) {
        EXPECT_FALSE(r.ok) << file << " trial " << trial;
        req.algorithm = "pipeline";
        r = engine::solve(req);
      }
      ASSERT_TRUE(r.ok) << file << " trial " << trial << " "
                        << req.algorithm << ": " << r.error << "\n"
                        << head_of(text);
      EXPECT_TRUE(model::validate(r.solution()).feasible())
          << file << " trial " << trial << "\n" << head_of(text);
    }
    // Some mutations (comments, benign digits) must still load, or the
    // solve path above was never exercised.
    EXPECT_GT(loaded, 0) << file;
  }
}

TEST(LoaderMutation, MutatedEventTracesThrowOrReplay) {
  const model::Instance world = io::load_instance_file(
      std::string(kTracesDir) + "serve_smoke.vd");
  util::Rng rng(0x5eed0002);
  for (const char* file : {"serve_smoke.events", "flash_crowd.events"}) {
    const std::string original = read_trace(file);
    int replayed = 0;
    for (int trial = 0; trial < kTrialsPerFile; ++trial) {
      const std::string text = mutate(original, rng);
      std::istringstream is(text);
      std::vector<model::InstanceEvent> events;
      try {
        events = io::load_events(is);
      } catch (const std::exception&) {
        continue;
      }
      ++replayed;
      // Anything but a std::exception escapes and fails the test; a
      // memory error fails the sanitizer build.
      engine::Session session(world);
      for (const model::InstanceEvent& event : events) {
        try {
          (void)session.apply(event);
        } catch (const std::exception&) {
          // A rejected event: the session stays usable for the next one.
        }
      }
    }
    EXPECT_GT(replayed, 0) << file;
  }
}

}  // namespace
}  // namespace vdist
