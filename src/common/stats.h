// Lightweight statistics gathered during simulation: counters, running
// summaries (min/max/mean), and fixed-bucket histograms used for latency
// distributions in benches and examples.
#ifndef PSLLC_COMMON_STATS_H_
#define PSLLC_COMMON_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/assert.h"

namespace psllc {

/// Running summary of a stream of int64 samples.
class Summary {
 public:
  void add(std::int64_t sample);
  void merge(const Summary& other);
  void reset();

  [[nodiscard]] std::int64_t count() const { return count_; }
  [[nodiscard]] std::int64_t min() const;
  [[nodiscard]] std::int64_t max() const;
  [[nodiscard]] std::int64_t sum() const { return sum_; }
  [[nodiscard]] double mean() const;

 private:
  std::int64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

/// Histogram over [0, upper) with `buckets` equal-width buckets plus an
/// overflow bucket. Also retains an exact Summary.
class Histogram {
 public:
  Histogram(std::int64_t upper, int buckets);

  void add(std::int64_t sample);
  void reset();

  [[nodiscard]] const Summary& summary() const { return summary_; }
  [[nodiscard]] int bucket_count() const {
    return static_cast<int>(counts_.size());
  }
  /// Count in bucket `i`; the last bucket is the overflow bucket.
  [[nodiscard]] std::int64_t bucket(int i) const;
  /// Inclusive lower bound of bucket `i`.
  [[nodiscard]] std::int64_t bucket_lo(int i) const;
  /// Exclusive upper bound of bucket `i` (INT64_MAX for overflow bucket).
  [[nodiscard]] std::int64_t bucket_hi(int i) const;

  /// Smallest sample value `v` such that at least `q` (0..1] of the samples
  /// are <= bucket containing v. Approximate (bucket resolution).
  [[nodiscard]] std::int64_t approx_quantile(double q) const;

  /// Multi-line ASCII rendering, for example tools.
  [[nodiscard]] std::string to_ascii(int width = 50) const;

 private:
  std::int64_t upper_;
  std::int64_t width_;
  std::vector<std::int64_t> counts_;
  Summary summary_;
};

}  // namespace psllc

#endif  // PSLLC_COMMON_STATS_H_
