// The one named-metrics store: counters and power-of-two histograms.
//
// Every named figure a run reports lands here — protocol counters, the
// simulator's fault, lease and invariant tallies, a node host's session
// statistics — and is exported by name.
//
// Counters are interned: a name resolves once (Intern) to a dense
// handle, and the hot path adds or maxes through the handle — no string
// hashing, no allocation. The name-keyed entry points intern on the fly
// for cold callers; either path lands in the same cell. A counter exists
// once something recorded to it (a zero included), and exports list the
// touched counters in name order, then the histograms in name order.
//
// Merging adds counters and merges histograms, so it is associative and
// commutative: a supervisor folds registries from every child process
// (latest snapshot per incarnation) into cluster-wide totals.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "celect/obs/telemetry.h"

namespace celect::obs {

class MetricsRegistry {
 public:
  using Handle = std::uint32_t;

  // Resolves `name` to a dense counter cell, creating it (untouched) on
  // first sight. Stable for the registry's lifetime and across copies.
  Handle Intern(std::string_view name);
  void Add(Handle h, std::int64_t delta) {
    Cell& c = cells_[h];
    c.value += delta;
    c.touched = true;
  }
  // Keeps the running max; the first record sets the cell outright.
  void Max(Handle h, std::int64_t value) {
    Cell& c = cells_[h];
    if (!c.touched || value > c.value) c.value = value;
    c.touched = true;
  }
  void Add(std::string_view name, std::int64_t delta) {
    Add(Intern(name), delta);
  }
  void Max(std::string_view name, std::int64_t value) {
    Max(Intern(name), value);
  }
  // Zero-count histograms are skipped, so empty merges leave no entry.
  void MergeHistogram(std::string_view name, const Histogram& h);
  void MergeFrom(const MetricsRegistry& o);

  // The counter's value; 0 when nothing recorded to it.
  std::int64_t Counter(std::string_view name) const;
  // Touched counters by name.
  std::map<std::string, std::int64_t> counters() const;
  const std::map<std::string, Histogram, std::less<>>& histograms() const {
    return histograms_;
  }
  bool Empty() const;

  // Single-line, whitespace-free wire form for shipping snapshots over
  // a pipe: "c:name=v,... h:name=count;sum;min;max;b0:b1:...,...".
  // Either section may be absent; an empty registry serializes to "-".
  // ParseCompact accepts only that canonical spelling, so every
  // accepted line round-trips byte for byte.
  std::string SerializeCompact() const;
  static std::optional<MetricsRegistry> ParseCompact(
      const std::string& line);

  friend bool operator==(const MetricsRegistry& a, const MetricsRegistry& b) {
    return a.counters() == b.counters() && a.histograms_ == b.histograms_;
  }

 private:
  struct Cell {
    std::int64_t value = 0;
    bool touched = false;
  };

  std::vector<Cell> cells_;
  // Both keyed in name order, with heterogeneous find so name-keyed
  // calls on an existing name do not allocate.
  std::map<std::string, Handle, std::less<>> index_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace celect::obs
