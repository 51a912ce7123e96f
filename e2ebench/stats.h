// Statistics helpers of the end-to-end benchmark: the tail
// percentile rule, quartiles, the single-server FIFO open-loop model
// behind `sustained_eps`, and the peak-RSS high-water mark.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace e2ebench {

// A percentile of a sample set together with which percentile it is and
// how many samples it was taken from.
struct Tail {
  double value = 0.0;
  std::string label;  // "p99", "p95", "p90", "p75" or "p50"
  std::size_t samples = 0;
};

// Nearest-rank percentile (p in [0, 100]) of `samples`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

// The median (nearest-rank p50); 0 when empty.
[[nodiscard]] double median(const std::vector<double>& samples);

// The tail rule: the highest of p99, p95, p90, p75 and p50 that leaves at
// least ten samples beyond it. With fewer than twenty samples no
// percentile qualifies; the median is reported then, so that a workload
// whose sample count varies around twenty keeps one definition.
[[nodiscard]] Tail tail(const std::vector<double>& samples);

// Open-loop replay of recorded service times through one FIFO server:
// event i is due at i / rate seconds, starts when it is due and the
// server is free, and its latency runs from its due time to its finish.
// Exact for a server that handles one event at a time on one thread.
[[nodiscard]] std::vector<double> fifo_latencies(
    const std::vector<double>& service_s, double rate);

// The highest offered rate (events/s) at which the tail-rule latency of
// fifo_latencies() stays within `limit_s` and the backlog does not grow
// (offered load rate * mean service time <= 1). 0 when even an idle
// server misses the limit.
[[nodiscard]] double sustained_rate(const std::vector<double>& service_s,
                                    double limit_s);

// Peak resident set size of this process in MiB (VmHWM).
[[nodiscard]] double peak_rss_mb();

// Resets the peak-RSS high-water mark to the current resident size, after
// handing freed heap pages back to the kernel. Returns false when the
// kernel refuses the reset; peak_rss_mb() then keeps the earlier peak.
bool reset_peak_rss();

}  // namespace e2ebench
