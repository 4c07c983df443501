// Unit tests of the benchmark's percentile, steal and arrival-schedule
// helpers.
// Plain checks without a test framework, so the benchmark's build needs
// nothing beyond the compiler:
//
//   cmake --build .bench_build --target nedbench_stats_test
//   ctest --test-dir .bench_build
//
// Exits nonzero on the first failed check.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

void TestPercentileNearestRank() {
  using aida::nedbench::Percentile;
  Expect(Percentile({}, 0.5) == 0.0, "empty sample gives 0");
  Expect(Percentile({7.0}, 0.99) == 7.0, "single sample is every percentile");
  // 1..100 shuffled: the nearest-rank p50 is 50, p99 is 99, p100 is 100.
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);
  Expect(Percentile(values, 0.5) == 50.0, "p50 of 1..100 is 50");
  Expect(Percentile(values, 0.99) == 99.0, "p99 of 1..100 is 99");
  Expect(Percentile(values, 1.0) == 100.0, "p100 is the maximum");
  Expect(Percentile(values, 0.0) == 1.0, "p0 is the minimum");
  Expect(Percentile({1.0, 2.0, 3.0, 4.0}, 0.5) == 2.0,
         "p50 of an even count is the lower middle sample");
  // Of 1,000 samples, ten outliers stay beyond p99 and eleven reach it.
  std::vector<double> tail(1000, 1.0);
  for (int i = 0; i < 10; ++i) tail[i * 90] = 50.0;
  Expect(Percentile(tail, 0.99) == 1.0, "ten outliers stay beyond p99");
  tail[17] = 50.0;
  Expect(Percentile(tail, 0.99) == 50.0, "eleven outliers reach p99");
}

void TestSamplesBeyond() {
  using aida::nedbench::SamplesBeyond;
  Expect(SamplesBeyond(1000, 0.99) == 10, "1000 samples leave 10 beyond p99");
  Expect(SamplesBeyond(999, 0.99) == 9, "999 samples leave 9 beyond p99");
  Expect(SamplesBeyond(0, 0.5) == 0, "no samples, none beyond");
}

void TestMedian() {
  using aida::nedbench::Median;
  Expect(Median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  Expect(Median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median averages");
}

void TestSlices() {
  using aida::nedbench::Slices;
  const auto ten = Slices(10000, 1000, 15);
  Expect(ten.size() == 10, "10,000 samples make ten slices of 1,000");
  bool contiguous = ten.front().first == 0 && ten.back().second == 10000;
  for (size_t i = 1; i < ten.size(); ++i) {
    contiguous &= ten[i].first == ten[i - 1].second;
  }
  Expect(contiguous, "slices cover the samples without gaps");
  Expect(Slices(500, 1000, 15).size() == 1, "too few samples make one slice");
  Expect(Slices(100000, 200, 15).size() == 15, "the slice count is capped");
  Expect(Slices(0, 1000, 15).size() == 1, "no samples still make one slice");
}

void TestSummarizeIgnoresABurst() {
  using aida::nedbench::Sample;
  // 3,000 requests complete one per millisecond, each taking 1 ms, except
  // a burst of 300 slow ones in the first slice.
  const int64_t start_ns = 5'000'000'000;
  std::vector<Sample> samples;
  for (int i = 0; i < 3000; ++i) {
    samples.push_back({start_ns + (i + 1) * 1'000'000LL,
                       i < 300 ? 0.050 : 0.001});
  }
  const auto summary = aida::nedbench::Summarize(samples, start_ns, {});
  Expect(summary.p99_slices == 3, "three p99 slices of 1,000 requests");
  Expect(summary.rate_slices == 15, "fifteen rate slices");
  Expect(summary.p99_s == 0.001, "the burst moves one slice's p99 only");
  Expect(summary.p50_s == 0.001, "p50 is the typical latency");
  Expect(std::fabs(summary.throughput_per_s - 1000.0) < 1e-6,
         "one completion per millisecond is 1,000 per second");
  Expect(aida::nedbench::Summarize({}, 0, {}).throughput_per_s == 0.0,
         "an empty window summarizes to zeros");
}

void TestStealShare() {
  using aida::nedbench::CpuPoint;
  using aida::nedbench::StealShare;
  // One point a second; the hypervisor steals 10 of 100 ticks in the
  // second second.
  const int64_t s = 1'000'000'000;
  const std::vector<CpuPoint> points = {
      {0, 0, 0}, {s, 100, 0}, {2 * s, 200, 10}, {3 * s, 300, 10}};
  Expect(StealShare(points, 0, s) == 0.0, "nothing stolen in the first second");
  Expect(StealShare(points, s, 2 * s) == 0.1, "a tenth stolen in the second");
  Expect(StealShare(points, s + s / 2, s + s / 2 + 1) == 0.1,
         "a span between two points takes the points around it");
  Expect(std::fabs(StealShare(points, 0, 3 * s) - 10.0 / 300.0) < 1e-12,
         "the whole span");
  Expect(StealShare(points, 5 * s, 6 * s) == 0.0,
         "a span after the last point has no steal");
  Expect(StealShare({}, 0, s) == 0.0, "no points, no steal");
}

void TestCalmSlices() {
  using aida::nedbench::CalmSlices;
  Expect(CalmSlices({0.3, 0.0, 0.1, 0.0}) == std::vector<size_t>({1, 3}),
         "slices at or below the median steal are calm");
  Expect(CalmSlices({0.0, 0.0, 0.0}).size() == 3,
         "a host that steals nothing leaves every slice calm");
}

void TestSummarizeSkipsStolenSlices() {
  using aida::nedbench::CpuPoint;
  using aida::nedbench::Sample;
  // 3,000 requests complete one per millisecond; the hypervisor steals
  // half the machine during the first second, and the requests that
  // complete then take 10 ms instead of 1.
  const int64_t s = 1'000'000'000;
  std::vector<Sample> samples;
  for (int i = 0; i < 3000; ++i) {
    samples.push_back({(i + 1) * 1'000'000LL, i < 1000 ? 0.010 : 0.001});
  }
  const std::vector<CpuPoint> cpu = {
      {0, 0, 0}, {s, 400, 200}, {2 * s, 800, 200}, {3 * s, 1200, 200}};
  const auto summary = aida::nedbench::Summarize(samples, 0, cpu);
  Expect(summary.rate_slices == 15 && summary.calm_rate_slices == 10,
         "the five rate slices of the stolen second are left out");
  Expect(summary.p99_slices == 3 && summary.calm_p99_slices == 2,
         "the stolen p99 slice is left out");
  Expect(summary.p99_s == 0.001 && summary.p50_s == 0.001,
         "latency of the calm slices");
  Expect(std::fabs(summary.throughput_per_s - 1000.0) < 1e-6,
         "throughput of the calm slices");
}

void TestPoissonSchedule() {
  using aida::nedbench::PoissonSchedule;
  const std::vector<double> a = PoissonSchedule(700.0, 20000, 42);
  const std::vector<double> b = PoissonSchedule(700.0, 20000, 42);
  const std::vector<double> c = PoissonSchedule(700.0, 20000, 43);
  Expect(a == b, "same seed, same schedule");
  Expect(a != c, "another seed, another schedule");
  Expect(a.size() == 20000, "one due time per arrival");
  bool increasing = a.front() > 0.0;
  for (size_t i = 1; i < a.size(); ++i) increasing &= a[i] > a[i - 1];
  Expect(increasing, "due times strictly increase");
  // Mean gap 1/rate: 20,000 gaps put the sample mean within 3% (more
  // than 4 standard errors) of it.
  const double mean_gap = a.back() / static_cast<double>(a.size());
  Expect(std::fabs(mean_gap * 700.0 - 1.0) < 0.03, "mean gap is 1/rate");
  // Exponential gaps: the coefficient of variation is 1, and about
  // e^-1 of the gaps exceed the mean.
  double sum_sq = 0.0;
  size_t above_mean = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double gap = a[i] - (i == 0 ? 0.0 : a[i - 1]);
    sum_sq += (gap - mean_gap) * (gap - mean_gap);
    above_mean += gap > mean_gap ? 1 : 0;
  }
  const double cv = std::sqrt(sum_sq / a.size()) / mean_gap;
  Expect(std::fabs(cv - 1.0) < 0.05, "gaps have coefficient of variation 1");
  const double share_above = static_cast<double>(above_mean) / a.size();
  Expect(std::fabs(share_above - std::exp(-1.0)) < 0.02,
         "a share e^-1 of gaps exceed the mean");
}

}  // namespace

int main() {
  TestPercentileNearestRank();
  TestSamplesBeyond();
  TestMedian();
  TestSlices();
  TestSummarizeIgnoresABurst();
  TestStealShare();
  TestCalmSlices();
  TestSummarizeSkipsStolenSlices();
  TestPoissonSchedule();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("nedbench_stats_test: all checks passed\n");
  return EXIT_SUCCESS;
}
