#include "common/parse.hpp"

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "common/error.hpp"

namespace osap {

void throw_not_a(std::string_view label, const std::string& text, const char* kind) {
  std::ostringstream msg;
  msg << label << " is not " << kind << ": '" << text << "'";
  throw SimError(msg.str());
}

double parse_real(const std::string& text, std::string_view label) {
  std::size_t used = 0;
  double out = 0;
  try {
    out = std::stod(text, &used);
  } catch (const std::exception&) {
    throw_not_a(label, text, "numeric");
  }
  if (used != text.size()) throw_not_a(label, text, "numeric");  // "0.5x" is a typo, not 0.5
  // A NaN passes every range check by failing every comparison, and an
  // infinity is no time, rate or fraction the model can use.
  if (!std::isfinite(out)) throw_not_a(label, text, "a finite number");
  return out;
}

std::uint64_t parse_seed(const std::string& text, std::string_view label) {
  return parse_integer<std::uint64_t>(text, label, 0, "an unsigned 64-bit integer");
}

int parse_count(const std::string& text, std::string_view label) {
  return parse_integer<int>(text, label, 1, "a positive integer");
}

Bytes parse_size(const std::string& token) {
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  // A NaN or infinite size has no byte count (casting one is undefined).
  if (end == token.c_str() || !std::isfinite(v) || v < 0) throw SimError("bad size: " + token);
  const std::string suffix(end);
  if (suffix.empty() || suffix == "B") return static_cast<Bytes>(v);
  if (suffix == "KiB") return static_cast<Bytes>(v * static_cast<double>(KiB));
  if (suffix == "MiB") return static_cast<Bytes>(v * static_cast<double>(MiB));
  if (suffix == "GiB") return static_cast<Bytes>(v * static_cast<double>(GiB));
  throw SimError("bad size suffix in: " + token);
}

}  // namespace osap
