// Tests of the benchmark's statistics helpers.
#include "stats.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

namespace e2ebench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> xs;
  for (int i = n; i >= 1; --i) xs.push_back(i);  // unsorted on purpose
  return xs;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(percentile(one_to(100), 50), 50);
  EXPECT_EQ(percentile(one_to(100), 99), 99);
  EXPECT_EQ(percentile(one_to(5), 50), 3);
  EXPECT_EQ(median({}), 0);
}

TEST(Tail, HighestPercentileWithTenSamplesBeyond) {
  // 2000 samples: p99 is rank 1980, 20 beyond.
  const Tail big = tail(one_to(2000));
  EXPECT_EQ(big.label, "p99");
  EXPECT_EQ(big.value, 1980);
  EXPECT_EQ(big.samples, 2000u);
  // 1000 samples: p99 is rank 990, exactly 10 beyond.
  EXPECT_EQ(tail(one_to(1000)).label, "p99");
  // 999 samples: p99 leaves 9 beyond, p95 (rank 950) leaves 49.
  const Tail mid = tail(one_to(999));
  EXPECT_EQ(mid.label, "p95");
  EXPECT_EQ(mid.value, 950);
  // 20 samples: only the median leaves ten beyond.
  EXPECT_EQ(tail(one_to(20)).label, "p50");
  // Fewer than twenty: no percentile qualifies, the median is reported.
  const Tail small = tail(one_to(19));
  EXPECT_EQ(small.label, "p50");
  EXPECT_EQ(small.value, 10);
  EXPECT_EQ(small.samples, 19u);
}

TEST(Fifo, HandComputedSequenceWithStall) {
  // One event per second; the third takes 5 s and the two behind it queue.
  //   event  due  start  finish  latency
  //     0     0     0      1       1
  //     1     1     1      2       1
  //     2     2     2      7       5
  //     3     3     7      8       5
  //     4     4     8      9       5
  //     5     5     9     10       5
  //     6     6    10     11       5
  //     7     7    11     12       5
  const std::vector<double> service = {1, 1, 5, 1, 1, 1, 1, 1};
  const std::vector<double> lat = fifo_latencies(service, 1.0);
  const std::vector<double> want = {1, 1, 5, 5, 5, 5, 5, 5};
  EXPECT_EQ(lat, want);
  // At half the rate the stall drains: due 0,2,4,...
  //   e2 due 4 finishes 9; e3 due 6 starts 9 -> 10 (4); e4 due 8 -> 11 (3);
  //   e5 due 10 -> 12 (2); e6 due 12 -> 13 (1); e7 due 14 -> 15 (1).
  const std::vector<double> slow = fifo_latencies(service, 0.5);
  const std::vector<double> want_slow = {1, 1, 5, 4, 3, 2, 1, 1};
  EXPECT_EQ(slow, want_slow);
}

TEST(Sustained, NoQueueingUpToSaturation) {
  const std::vector<double> service(30, 0.1);
  // Ten events/s keep the server exactly busy with no wait.
  EXPECT_DOUBLE_EQ(sustained_rate(service, 0.2), 10.0);
  // A limit below the bare service time is never met.
  EXPECT_EQ(sustained_rate(service, 0.05), 0.0);
}

TEST(Sustained, StallBoundsTheRate) {
  // 100 events of 10 ms and one 500 ms stall; the tail rule over 100
  // latencies is p90, so at most nine events may wait beyond the limit.
  std::vector<double> service(100, 0.01);
  service[10] = 0.5;
  const double limit = 0.1;
  const double rate = sustained_rate(service, limit);
  ASSERT_GT(rate, 0.0);
  EXPECT_LT(rate, 100.0 / (99 * 0.01 + 0.5));
  EXPECT_LE(tail(fifo_latencies(service, rate)).value, limit);
  EXPECT_GT(tail(fifo_latencies(service, rate * 1.01)).value, limit);
}

TEST(PeakRss, ResetDropsTheHighWaterMark) {
  constexpr std::size_t kBytes = std::size_t{256} << 20;
  {
    const std::unique_ptr<char[]> block(new char[kBytes]);
    std::memset(block.get(), 1, kBytes);
    EXPECT_GE(peak_rss_mb(), 256.0);
  }
  const double before = peak_rss_mb();
  ASSERT_TRUE(reset_peak_rss());
  EXPECT_LT(peak_rss_mb(), before - 200.0);
}

}  // namespace
}  // namespace e2ebench
