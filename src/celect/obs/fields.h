// Field spelling shared by the obs text formats: compact trace records
// (trace_inspect.h), shard files and metrics snapshots (shard.h). Each
// spells fields as "key=value" with decimal numbers, and each accepts
// only the spelling its serializer writes, so every accepted line
// round-trips byte for byte.
#pragma once

#include <charconv>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace celect::obs {

// "key=value" → value, checking the key; nullopt on mismatch.
inline std::optional<std::string> TakeField(const std::string& token,
                                            const char* key) {
  const std::string prefix = std::string(key) + "=";
  if (token.rfind(prefix, 0) != 0) return std::nullopt;
  return token.substr(prefix.size());
}

// Every piece between separators, empty pieces included, so a doubled
// or trailing separator fails the field parse that follows.
inline std::vector<std::string> SplitOn(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

// Strict decimal: digits only, a '-' only for signed T, no '+', no
// leading zero (nor "-0"), and within T's range.
template <typename T>
std::optional<T> ParseField(std::string_view s) {
  const std::string_view digits = s.substr(s.starts_with('-'));
  if (digits.starts_with('0') && s != "0") return std::nullopt;  // "07", "-0"
  T v{};
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size()) return std::nullopt;
  return v;
}

}  // namespace celect::obs
