// Shared pieces of the benchmark program: the wall clock, sample
// quantiles, process memory readings, and the per-run report that
// main.cpp prints as the final JSON line.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Linear-interpolated quantile (q in [0,1]) of a sample; 0 when empty.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

// Peak resident set of this process so far, in bytes (/proc/self/status).
std::uint64_t PeakRssBytes();
// Current resident set of this process, in bytes (/proc/self/statm).
std::uint64_t CurrentRssBytes();

// Ratio that reads 0 when the denominator is 0 (a layer the workload
// never calls).
inline double PerUnit(double total, double count) {
  return count > 0 ? total / count : 0.0;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// What one run reports. An operation is one election (one service case
// for churn_storm); `errors` holds one line per failed check.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  // Records one operation; a non-empty `error` marks it failed.
  void Count(const std::string& error) {
    ++attempted;
    if (!error.empty()) {
      ++failed;
      if (errors.size() < 20) errors.push_back(error);
    }
  }
};

// Per-round input seed: rounds of one run draw distinct, reproducible
// seeds from the run's --seed.
std::uint64_t RoundSeed(std::uint64_t seed, std::uint64_t round);

}  // namespace perfbench
