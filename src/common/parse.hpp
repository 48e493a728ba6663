// Exact readers of numeric text, shared by every text front end: the
// descriptor axes, the `osap` and `osapd` flags, dummy-scheduler `.conf`
// files, fault plans and trace files. Each reads the whole text: "12.9"
// is not a count, "0.5x" is not a real, and a 20-digit seed is not
// rounded through a double. Anything else throws SimError
// "<label> is not <kind>: '<text>'".
#pragma once

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/units.hpp"

namespace osap {

[[noreturn]] void throw_not_a(std::string_view label, const std::string& text, const char* kind);

/// An integer of type `Int`, at least `min`; `kind` says what was
/// expected ("a positive integer"). Never detours through double.
template <typename Int>
[[nodiscard]] Int parse_integer(const std::string& text, std::string_view label, Int min,
                                const char* kind) {
  Int out{};
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
  if (ec != std::errc{} || end != text.data() + text.size() || out < min) {
    throw_not_a(label, text, kind);
  }
  return out;
}

/// A finite double: "nan" and "inf" are refused.
[[nodiscard]] double parse_real(const std::string& text, std::string_view label);
[[nodiscard]] std::uint64_t parse_seed(const std::string& text, std::string_view label);
/// A positive int.
[[nodiscard]] int parse_count(const std::string& text, std::string_view label);

/// Parse "512MiB" / "2GiB" / "64KiB" / "123B" / "0" into bytes.
Bytes parse_size(const std::string& token);

}  // namespace osap
