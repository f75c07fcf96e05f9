#ifndef CDBS_PERFBENCH_COMMON_H_
#define CDBS_PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/status.h"

/// \file
/// Shared plumbing of the serving-stack benchmark: run options, sample
/// sets with quantiles, the metric report printed as the last line, and
/// small readers over the program's public metric registries.

namespace perfbench {

/// The three workloads, by their BENCHMARK.json names.
inline constexpr const char* kSkew = "hamlet-skew-insert";
inline constexpr const char* kUniform = "play-uniform-insert";
inline constexpr const char* kMixed = "d5-query-mixed";

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// false: end-to-end metrics, tracing off. true: the traced run that
  /// prints the per-layer metrics.
  bool trace = false;
  /// Scratch directory for stores and logs; removed at the end.
  std::string workdir;
};

/// A set of measurements (latencies, sizes) with order statistics.
class Samples {
 public:
  void Add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// Linear interpolation between closest ranks (Python's "inclusive"
  /// method); 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Mean() const;
  double Max() const { return Quantile(1.0); }

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

/// The highest of p90, p99, p99.9 and p99.99 that leaves at least ten of
/// `n` samples beyond it (p50 when none does).
double TailQuantile(size_t n);
/// "p99", "p99.9", ...
std::string QuantileLabel(double q);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports: the last stdout line is this object as JSON.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records a correctness failure (the run's answers disagree with the
  /// reference computation).
  void Fail(const std::string& why);
  /// Checks `ok`, recording `why` as a failure when it does not hold.
  void Check(bool ok, const std::string& why) {
    if (!ok) Fail(why);
  }
  std::string ToJson() const;
};

/// Count and sum of a histogram, for deltas over a window.
struct HistTotals {
  uint64_t count = 0;
  uint64_t sum = 0;
  HistTotals operator-(const HistTotals& o) const {
    return {count - o.count, sum - o.sum};
  }
  HistTotals operator+(const HistTotals& o) const {
    return {count + o.count, sum + o.sum};
  }
  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Every counter and histogram of a registry at one moment; windows are
/// measured as the difference of two of these.
struct Totals {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, HistTotals> histograms;

  static Totals Of(const cdbs::obs::MetricRegistry& registry);
  /// 0 / empty when the metric was never registered.
  uint64_t Counter(const std::string& name) const;
  HistTotals Histogram(const std::string& name) const;
};

/// Reports `what` failed with `status` on stderr and exits at once with
/// code 2, printing no result: the stack could not be set up or driven.
[[noreturn]] void Die(const std::string& what, const cdbs::Status& status);

inline void Must(const cdbs::Status& status, const std::string& what) {
  if (!status.ok()) Die(what, status);
}

template <typename T>
T Must(cdbs::Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what, result.status());
  return std::move(result).value();
}

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// CPU time this process has used so far, user and system, in seconds.
double ProcessCpuS();

/// Size of a file in bytes (0 when missing).
uint64_t FileSize(const std::string& path);

/// Nanoseconds on a monotonic clock.
int64_t NowNs();

/// Sleeps until `deadline_ns` (NowNs() scale); returns at once when past.
void SleepUntilNs(int64_t deadline_ns);

}  // namespace perfbench

#endif  // CDBS_PERFBENCH_COMMON_H_
