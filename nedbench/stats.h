#ifndef AIDA_NEDBENCH_STATS_H_
#define AIDA_NEDBENCH_STATS_H_

// Small numeric helpers of the NED serving benchmark, kept header-only so
// stats_test.cc can check them without the library.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace aida::nedbench {

/// Nearest-rank percentile of raw samples: the smallest sample with at
/// least `q` of all samples at or below it (q in [0, 1]). Computed from
/// the samples themselves, never from histogram buckets, so a change of a
/// few percent in the tail shows as a few percent. Returns 0 for no
/// samples. Takes a copy because it sorts.
inline double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// Number of samples strictly above the `q` nearest-rank percentile's
/// rank: how many samples the percentile rests on.
inline size_t SamplesBeyond(size_t n, double q) {
  const size_t rank = static_cast<size_t>(
      std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

/// Median of the samples (the mean of the middle two for an even count).
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/// One completed request: when it completed and how long it took.
struct Sample {
  int64_t done_ns = 0;
  double latency_s = 0.0;
};

/// Machine-wide CPU time used so far, as /proc/stat counts it at `t_ns`:
/// all of it, and the part the hypervisor stole to run other guests.
struct CpuPoint {
  int64_t t_ns = 0;
  uint64_t total = 0;
  uint64_t steal = 0;
};

/// Share of the machine's CPU time stolen between `from_ns` and `to_ns`,
/// from the points nearest outside that span (`points` ascending in
/// time). 0 when the points do not cover a span.
inline double StealShare(const std::vector<CpuPoint>& points, int64_t from_ns,
                         int64_t to_ns) {
  if (points.size() < 2) return 0.0;
  auto before = std::upper_bound(
      points.begin(), points.end(), from_ns,
      [](int64_t t, const CpuPoint& p) { return t < p.t_ns; });
  if (before != points.begin()) --before;
  auto after = std::lower_bound(
      points.begin(), points.end(), to_ns,
      [](const CpuPoint& p, int64_t t) { return p.t_ns < t; });
  if (after == points.end()) --after;
  if (after <= before || after->total <= before->total) return 0.0;
  return static_cast<double>(after->steal - before->steal) /
         static_cast<double>(after->total - before->total);
}

/// Throughput and latency of a timed window, each the median over
/// consecutive slices of the window rather than one figure for all of it,
/// so that a burst of interference from outside the program moves one
/// slice, not the result. Only the calm slices count: those in which the
/// hypervisor stole no larger a share of the machine's CPU time than in
/// the median slice. On a host that steals nothing every slice is calm;
/// otherwise at least half of them are. A stolen millisecond stalls a
/// request that takes two, so steal, not the program, sets the latency of
/// the slices it hits.
struct WindowSummary {
  double throughput_per_s = 0.0;
  double p50_s = 0.0;
  double p99_s = 0.0;
  /// Slices of the window, and the calm ones the figures are medians of.
  size_t rate_slices = 0;
  size_t p99_slices = 0;
  size_t calm_rate_slices = 0;
  size_t calm_p99_slices = 0;
};

/// Splits the samples, in completion order, into slices of at least
/// `min_per_slice` samples (at most `max_slices` slices, at least one).
/// Returns the [begin, end) index of each slice.
inline std::vector<std::pair<size_t, size_t>> Slices(size_t n,
                                                     size_t min_per_slice,
                                                     size_t max_slices) {
  const size_t count =
      std::clamp<size_t>(n / std::max<size_t>(min_per_slice, 1), 1,
                         std::max<size_t>(max_slices, 1));
  std::vector<std::pair<size_t, size_t>> slices;
  for (size_t s = 0; s < count; ++s) {
    slices.emplace_back(n * s / count, n * (s + 1) / count);
  }
  return slices;
}

/// Indices of the calm values of `steal`: those no larger than its median.
inline std::vector<size_t> CalmSlices(const std::vector<double>& steal) {
  const double median = Median(steal);
  std::vector<size_t> calm;
  for (size_t i = 0; i < steal.size(); ++i) {
    if (steal[i] <= median) calm.push_back(i);
  }
  return calm;
}

/// Summarizes a window that opened at `start_ns`, with the machine's CPU
/// time sampled through it in `cpu`. Throughput and p50 are medians over
/// the calm slices of at least `rate_slice` requests; p99 is the median
/// over the calm slices of at least 1,000 requests, so each slice's p99
/// rests on at least ten samples beyond it.
inline WindowSummary Summarize(std::vector<Sample> samples, int64_t start_ns,
                               const std::vector<CpuPoint>& cpu,
                               size_t rate_slice = 200,
                               size_t max_slices = 15) {
  WindowSummary summary;
  if (samples.empty()) return summary;
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) {
              return a.done_ns < b.done_ns;
            });
  auto latencies = [&](size_t begin, size_t end) {
    std::vector<double> out;
    out.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) out.push_back(samples[i].latency_s);
    return out;
  };
  // The time span of a slice, from the previous slice's last completion.
  auto span = [&](size_t begin, size_t end) {
    return std::make_pair(begin == 0 ? start_ns : samples[begin - 1].done_ns,
                          samples[end - 1].done_ns);
  };
  const auto rate_slices = Slices(samples.size(), rate_slice, max_slices);
  std::vector<double> steal;
  for (const auto& [begin, end] : rate_slices) {
    const auto [from, to] = span(begin, end);
    steal.push_back(StealShare(cpu, from, to));
  }
  std::vector<double> rates, p50s;
  for (size_t i : CalmSlices(steal)) {
    const auto [begin, end] = rate_slices[i];
    const auto [from, to] = span(begin, end);
    if (to > from) {
      rates.push_back(static_cast<double>(end - begin) /
                      (1e-9 * static_cast<double>(to - from)));
    }
    p50s.push_back(Percentile(latencies(begin, end), 0.50));
  }
  const auto p99_slices = Slices(samples.size(), 1000, max_slices);
  steal.clear();
  for (const auto& [begin, end] : p99_slices) {
    const auto [from, to] = span(begin, end);
    steal.push_back(StealShare(cpu, from, to));
  }
  std::vector<double> p99s;
  for (size_t i : CalmSlices(steal)) {
    const auto [begin, end] = p99_slices[i];
    p99s.push_back(Percentile(latencies(begin, end), 0.99));
  }
  summary.throughput_per_s = Median(rates);
  summary.p50_s = Median(p50s);
  summary.p99_s = Median(p99s);
  summary.rate_slices = rate_slices.size();
  summary.p99_slices = p99_slices.size();
  summary.calm_rate_slices = p50s.size();
  summary.calm_p99_slices = p99s.size();
  return summary;
}

/// SplitMix64: a tiny, fully specified generator, so a schedule depends
/// only on its seed and never on the standard library's distributions.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  /// Uniform in the open interval (0, 1).
  double NextOpenUnit() {
    return (static_cast<double>(Next() >> 11) + 0.5) * 0x1.0p-53;
  }

 private:
  uint64_t state_;
};

/// Due times, in seconds from the start of the run, of `count` arrivals
/// of a Poisson process with `rate_per_second`: exponential gaps drawn by
/// inversion. Deterministic per seed; strictly increasing.
inline std::vector<double> PoissonSchedule(double rate_per_second,
                                           size_t count, uint64_t seed) {
  std::vector<double> due;
  due.reserve(count);
  SplitMix64 rng(seed);
  double t = 0.0;
  for (size_t i = 0; i < count; ++i) {
    t += -std::log(rng.NextOpenUnit()) / rate_per_second;
    due.push_back(t);
  }
  return due;
}

}  // namespace aida::nedbench

#endif  // AIDA_NEDBENCH_STATS_H_
