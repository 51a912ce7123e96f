#include "stats.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>

namespace e2ebench {

namespace {

// 1-based nearest rank of percentile p over n samples.
std::size_t nearest_rank(std::size_t n, double p) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

bool meets_limit(const std::vector<double>& service_s, double rate,
                 double limit_s) {
  return tail(fifo_latencies(service_s, rate)).value <= limit_s;
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t rank = nearest_rank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(const std::vector<double>& samples) {
  return percentile(samples, 50.0);
}

Tail tail(const std::vector<double>& samples) {
  const std::size_t n = samples.size();
  for (const double p : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (n >= 10 && n - nearest_rank(n, p) >= 10) {
      std::string label = std::to_string(static_cast<int>(p));
      label.insert(label.begin(), 'p');
      return {percentile(samples, p), label, n};
    }
  }
  return {median(samples), "p50", n};
}

std::vector<double> fifo_latencies(const std::vector<double>& service_s,
                                   double rate) {
  std::vector<double> latencies;
  latencies.reserve(service_s.size());
  double free_at = 0.0;
  for (std::size_t i = 0; i < service_s.size(); ++i) {
    const double due = static_cast<double>(i) / rate;
    free_at = std::max(due, free_at) + service_s[i];
    latencies.push_back(free_at - due);
  }
  return latencies;
}

double sustained_rate(const std::vector<double>& service_s, double limit_s) {
  const double busy =
      std::accumulate(service_s.begin(), service_s.end(), 0.0);
  if (service_s.empty() || busy <= 0.0) return 0.0;
  // Above this rate the offered load exceeds one server and the backlog
  // grows without bound.
  const double saturation = static_cast<double>(service_s.size()) / busy;
  if (meets_limit(service_s, saturation, limit_s)) return saturation;
  // At a vanishing rate every latency is the bare service time.
  if (tail(service_s).value > limit_s) return 0.0;
  // Latencies only grow with the rate (Lindley's recursion), so bisect.
  double lo = 0.0;
  double hi = saturation;
  for (int it = 0; it < 60; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (mid <= lo || mid >= hi) break;
    (meets_limit(service_s, mid, limit_s) ? lo : hi) = mid;
  }
  return lo;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(4096, '\n');
  }
  return 0.0;
}

bool reset_peak_rss() {
  malloc_trim(0);
  // Writing "5" to clear_refs resets VmHWM to the current RSS (Linux).
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

}  // namespace e2ebench
