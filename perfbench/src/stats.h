// Sample collection and clocks shared by the benchmark's writer and readers.

#ifndef EVE_PERFBENCH_STATS_H_
#define EVE_PERFBENCH_STATS_H_

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// CPU time of the whole process (every thread), in seconds.
inline double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Resident set of this process in MB, from /proc/self/statm (0 when
/// unreadable).
inline double ResidentMb() {
  long pages = 0, resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// A bag of measurements with order statistics.
class Samples {
 public:
  void Add(double x) { values_.push_back(x); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  double Sum() const {
    double s = 0;
    for (double x : values_) s += x;
    return s;
  }
  double Mean() const { return empty() ? 0 : Sum() / values_.size(); }

  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const {
    if (values_.empty()) return 0;
    std::vector<double> v = values_;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  }

 private:
  std::vector<double> values_;
};

}  // namespace perfbench

#endif  // EVE_PERFBENCH_STATS_H_
