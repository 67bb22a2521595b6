#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/check.h"

namespace deltacol {

void Summary::add(double x) {
  samples_.push_back(x);
  sum_ += x;
}

double Summary::mean() const {
  DC_REQUIRE(!samples_.empty(), "mean of empty summary");
  return sum_ / static_cast<double>(samples_.size());
}

double Summary::stddev() const {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double s : samples_) acc += (s - m) * (s - m);
  return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

double Summary::min() const {
  DC_REQUIRE(!samples_.empty(), "min of empty summary");
  return *std::min_element(samples_.begin(), samples_.end());
}

double Summary::max() const {
  DC_REQUIRE(!samples_.empty(), "max of empty summary");
  return *std::max_element(samples_.begin(), samples_.end());
}

double Summary::percentile(double p) const {
  DC_REQUIRE(!samples_.empty(), "percentile of empty summary");
  DC_REQUIRE(0.0 <= p && p <= 100.0, "percentile must be in [0,100]");
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

std::string Summary::str() const {
  std::ostringstream os;
  if (samples_.empty()) {
    os << "(empty)";
    return os.str();
  }
  os << mean() << " ± " << stddev() << " [" << min() << ", " << max() << "] (n="
     << count() << ")";
  return os.str();
}

}  // namespace deltacol
