#include "celect/obs/metrics.h"

#include <sstream>

#include "celect/obs/fields.h"

namespace celect::obs {

MetricsRegistry::Handle MetricsRegistry::Intern(std::string_view name) {
  auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  const auto h = static_cast<Handle>(cells_.size());
  cells_.emplace_back();
  index_.emplace(std::string(name), h);
  return h;
}

void MetricsRegistry::MergeHistogram(std::string_view name,
                                     const Histogram& h) {
  if (h.count() == 0) return;
  const auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    histograms_.emplace(std::string(name), h);
  } else {
    it->second.Merge(h);
  }
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& o) {
  for (const auto& [name, v] : o.counters()) Add(name, v);
  for (const auto& [name, h] : o.histograms_) MergeHistogram(name, h);
}

std::int64_t MetricsRegistry::Counter(std::string_view name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? 0 : cells_[it->second].value;
}

std::map<std::string, std::int64_t> MetricsRegistry::counters() const {
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, h] : index_) {
    if (cells_[h].touched) out.emplace_hint(out.end(), name, cells_[h].value);
  }
  return out;
}

bool MetricsRegistry::Empty() const {
  for (const Cell& c : cells_) {
    if (c.touched) return false;
  }
  return histograms_.empty();
}

std::string MetricsRegistry::SerializeCompact() const {
  if (Empty()) return "-";
  std::ostringstream os;
  const auto counters = this->counters();
  if (!counters.empty()) {
    os << "c:";
    const char* sep = "";
    for (const auto& [name, v] : counters) {
      os << sep << name << "=" << v;
      sep = ",";
    }
  }
  if (!histograms_.empty()) {
    os << (counters.empty() ? "h:" : " h:");
    const char* sep = "";
    for (const auto& [name, h] : histograms_) {
      os << sep << name << "=" << h.count() << ";" << h.sum() << ";"
         << h.min() << ";" << h.max() << ";";
      const std::size_t used = h.BucketsUsed();
      for (std::size_t b = 0; b < used; ++b) {
        if (b > 0) os << ":";
        os << h.buckets()[b];
      }
      sep = ",";
    }
  }
  return os.str();
}

std::optional<MetricsRegistry> MetricsRegistry::ParseCompact(
    const std::string& line) {
  MetricsRegistry reg;
  if (line == "-") return reg;
  std::istringstream in(line);
  std::string section;
  while (in >> section) {
    if (section.rfind("c:", 0) == 0) {
      for (const std::string& item : SplitOn(section.substr(2), ',')) {
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos || eq == 0) return std::nullopt;
        const std::string name = item.substr(0, eq);
        const auto v = ParseField<std::int64_t>(item.substr(eq + 1));
        // A repeated name is never canonical; refusing it here also
        // keeps the sum from overflowing.
        if (!v || reg.index_.count(name) > 0) return std::nullopt;
        reg.Add(name, *v);
      }
    } else if (section.rfind("h:", 0) == 0) {
      for (const std::string& item : SplitOn(section.substr(2), ',')) {
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos || eq == 0) return std::nullopt;
        const std::string name = item.substr(0, eq);
        const auto parts = SplitOn(item.substr(eq + 1), ';');
        if (parts.size() != 5 || reg.histograms_.count(name) > 0) {
          return std::nullopt;
        }
        const auto count = ParseField<std::uint64_t>(parts[0]);
        const auto sum = ParseField<std::uint64_t>(parts[1]);
        const auto min = ParseField<std::uint64_t>(parts[2]);
        const auto max = ParseField<std::uint64_t>(parts[3]);
        if (!count || !sum || !min || !max) return std::nullopt;
        std::vector<std::uint64_t> buckets;
        if (!parts[4].empty()) {
          for (const std::string& b : SplitOn(parts[4], ':')) {
            const auto bv = ParseField<std::uint64_t>(b);
            if (!bv) return std::nullopt;
            buckets.push_back(*bv);
          }
        }
        auto h = Histogram::FromParts(buckets, *count, *sum, *min, *max);
        if (!h) return std::nullopt;
        reg.MergeHistogram(name, *h);
      }
    } else {
      return std::nullopt;
    }
  }
  // Only the canonical spelling is accepted (sorted unique names, no
  // empty histogram, no trailing zero bucket), so a snapshot
  // round-trips byte for byte.
  if (reg.SerializeCompact() != line) return std::nullopt;
  return reg;
}

}  // namespace celect::obs
