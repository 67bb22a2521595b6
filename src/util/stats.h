// Streaming summary statistics for experiment harnesses.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace deltacol {

// Accumulates samples and reports mean / stddev / min / max / percentiles.
// Percentile queries sort a copy lazily; intended for benchmark-sized sample
// counts, not hot loops.
class Summary {
 public:
  void add(double x);

  std::size_t count() const { return samples_.size(); }
  double mean() const;
  double stddev() const;  // sample standard deviation (n - 1 denominator)
  double min() const;
  double max() const;
  double percentile(double p) const;  // p in [0, 100]
  double sum() const { return sum_; }

  // "mean ± stddev [min, max] (n)" — for log lines.
  std::string str() const;

 private:
  std::vector<double> samples_;
  double sum_ = 0.0;
};

}  // namespace deltacol
