// Flag reader shared by the `osap` and `osapd` command lines.
//
// Flags take either `--key value` or `--key=value` form; a bare `--key`
// reads "true". Flags keep their command-line order, so osapd's repeated
// `--set` applies in the order given; for a flag given twice, get() and
// num() read the last. Unknown flags are an error, never silently
// ignored: a typoed flag quietly running the default experiment has
// burned enough sweep hours already.
#pragma once

#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace osap::cli {

struct Args {
  std::vector<std::pair<std::string, std::string>> flags;  // in command-line order
  std::vector<std::string> positional;

  static Args parse(int argc, char** argv, int from) {
    Args args;
    for (int i = from; i < argc; ++i) {
      const std::string token = argv[i];
      if (token.rfind("--", 0) == 0) {
        const std::string key = token.substr(2);
        if (const auto eq = key.find('='); eq != std::string::npos) {
          args.flags.emplace_back(key.substr(0, eq), key.substr(eq + 1));
        } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
          args.flags.emplace_back(key, argv[++i]);
        } else {
          args.flags.emplace_back(key, "true");
        }
      } else {
        args.positional.push_back(token);
      }
    }
    return args;
  }

  /// Reject any flag outside `allowed`. `program` is the binary ("osap"),
  /// `subcommand` the verb it runs.
  void check_allowed(const char* program, const char* subcommand,
                     const std::vector<std::string>& allowed) const {
    for (const auto& [key, value] : flags) {
      (void)value;
      bool ok = false;
      for (const std::string& a : allowed) ok = ok || key == a;
      OSAP_CHECK_MSG(ok, program << " " << subcommand << ": unknown flag --" << key << " (run '"
                                 << program << "' for usage)");
    }
  }

  [[nodiscard]] bool has(const std::string& key) const {
    for (const auto& [k, v] : flags) {
      (void)v;
      if (k == key) return true;
    }
    return false;
  }
  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback) const {
    std::string out = fallback;
    for (const auto& [k, v] : flags) {
      if (k == key) out = v;
    }
    return out;
  }
  /// The flag's value read exactly by `parse` (a src/common/parse.hpp
  /// reader), or `fallback` when the flag is absent.
  template <typename T>
  [[nodiscard]] T num(const std::string& key, T fallback,
                      T (*parse)(const std::string&, std::string_view)) const {
    return has(key) ? parse(get(key, ""), "flag --" + key) : fallback;
  }
};

}  // namespace osap::cli
