// Single-file rule passes: DET-1, DET-2, LIF-1, MUT-1, and the AUD-1
// collection/check pair. Each works off the blanked code view of one
// SourceFile; only the artifacts they consume (the unordered-name set,
// the auditor pair map) span files.
#include <cstring>
#include <filesystem>

#include "passes.hpp"

namespace osaplint {

namespace fs = std::filesystem;

void collect_unordered_names(const SourceFile& f, UnorderedNames& names) {
  for (const char* kw : {"unordered_map", "unordered_set"}) {
    std::size_t i = 0;
    while ((i = find_word(f.code, kw, i)) != std::string::npos) {
      std::size_t p = skip_ws(f.code, i + std::strlen(kw));
      i += std::strlen(kw);
      if (p >= f.code.size() || f.code[p] != '<') continue;
      p = skip_angles(f.code, p);
      if (p == std::string::npos) continue;
      p = skip_ws(f.code, p);
      while (p < f.code.size() && (f.code[p] == '&' || f.code[p] == '*')) {
        p = skip_ws(f.code, p + 1);
      }
      const std::string name = ident_at(f.code, p);
      if (name.empty()) continue;
      p = skip_ws(f.code, p + name.size());
      if (p >= f.code.size()) continue;
      const char next = f.code[p];
      if (next == ';' || next == '=' || next == '{' || next == ',' || next == ')') {
        names.vars.insert(name);  // member / variable / parameter
      } else if (next == '(') {
        names.fns.insert(name);  // accessor returning the container
      }
    }
  }
}

void check_det1(const SourceFile& f, const UnorderedNames& names,
                std::vector<Finding>& findings) {
  if (!f.det1_watched) return;
  const std::string& code = f.code;

  // Range-for over hash-ordered state.
  std::size_t i = 0;
  while ((i = find_word(code, "for", i)) != std::string::npos) {
    std::size_t p = skip_ws(code, i + 3);
    i += 3;
    if (p >= code.size() || code[p] != '(') continue;
    const std::size_t close = skip_balanced(code, p, '(', ')');
    if (close == std::string::npos) continue;
    // Top-level ':' (not '::') splits a range-for header.
    std::size_t colon = std::string::npos;
    int depth = 0;
    for (std::size_t j = p + 1; j + 1 < close; ++j) {
      const char c = code[j];
      if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
      if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
      if (c == ':' && depth == 0) {
        if (code[j + 1] == ':' || (j > 0 && code[j - 1] == ':')) continue;
        colon = j;
        break;
      }
    }
    if (colon == std::string::npos) continue;
    std::size_t rb = colon + 1;
    std::size_t re = close - 1;
    while (rb < re && std::isspace(static_cast<unsigned char>(code[rb]))) ++rb;
    while (re > rb && std::isspace(static_cast<unsigned char>(code[re - 1]))) --re;
    if (re <= rb) continue;

    std::string culprit;
    if (code[re - 1] == ')') {
      // Call expression: attribute to the callee — an accessor that
      // returns a hash-ordered container is flagged, any other call passes.
      std::size_t open = re - 1;
      int d = 0;
      for (;; --open) {
        if (code[open] == ')') ++d;
        if (code[open] == '(' && --d == 0) break;
        if (open == rb) break;
      }
      const std::string callee = ident_before(code, open);
      if (names.fns.contains(callee)) culprit = callee + "()";
    } else {
      // Plain expression: attribute to the trailing identifier —
      // `regions_`, `p.regions_`, `obs_->phases` all end in the member.
      const std::string last = ident_before(code, re);
      if (names.vars.contains(last)) culprit = last;
    }
    if (!culprit.empty()) {
      findings.push_back({f.path, f.line_of(colon), "DET-1",
                          "range-for over hash-ordered '" + culprit +
                              "' — use an ordered container or a dense id-indexed vector"});
    }
  }

  // Iterator traversal: name.begin() / cbegin() / rbegin().
  for (const char* fn : {"begin", "cbegin", "rbegin"}) {
    std::size_t j = 0;
    while ((j = find_word(code, fn, j)) != std::string::npos) {
      const std::size_t at = j;
      j += std::strlen(fn);
      const std::size_t after = skip_ws(code, j);
      if (after >= code.size() || code[after] != '(') continue;
      if (at == 0 || code[at - 1] != '.') continue;
      const std::string owner = ident_before(code, at - 1);
      if (names.vars.contains(owner)) {
        findings.push_back({f.path, f.line_of(at), "DET-1",
                            "iterator traversal of hash-ordered '" + owner +
                                "' — use an ordered container or a dense id-indexed vector"});
      }
    }
  }
}

void check_det2(const SourceFile& f, std::vector<Finding>& findings) {
  const std::string& code = f.code;

  const auto flag = [&](std::size_t at, const std::string& what, const char* why) {
    findings.push_back({f.path, f.line_of(at), "DET-2", "'" + what + "' — " + why});
  };

  // Ambient randomness / wall clocks. All randomness flows through
  // osap::Rng; the only clock is the virtual one.
  constexpr const char* kBanned[] = {
      "rand",           "srand",          "random_device",        "random_shuffle",
      "mt19937",        "mt19937_64",     "minstd_rand",          "minstd_rand0",
      "default_random_engine",            "ranlux24",             "ranlux48",
      "knuth_b",        "system_clock",   "steady_clock",         "high_resolution_clock",
      "gettimeofday",   "clock_gettime",
  };
  for (const char* word : kBanned) {
    std::size_t i = 0;
    while ((i = find_word(code, word, i)) != std::string::npos) {
      const std::size_t at = i;
      i += std::strlen(word);
      // Member access (foo.rand, foo->rand) is someone else's identifier.
      if (at > 0 && (code[at - 1] == '.' ||
                     (at > 1 && code[at - 2] == '-' && code[at - 1] == '>'))) {
        continue;
      }
      // `rand`/`srand` count only as calls; the others are type/clock
      // names and count bare.
      if (std::strcmp(word, "rand") == 0 || std::strcmp(word, "srand") == 0) {
        const std::size_t p = skip_ws(code, at + std::strlen(word));
        if (p >= code.size() || code[p] != '(') continue;
      }
      flag(at, word, "nondeterministic across runs/platforms; use osap::Rng / the sim clock");
    }
  }

  // time(nullptr) / time(NULL) / time(0).
  std::size_t i = 0;
  while ((i = find_word(code, "time", i)) != std::string::npos) {
    const std::size_t at = i;
    i += 4;
    if (at > 0 && (code[at - 1] == '.' ||
                   (at > 1 && code[at - 2] == '-' && code[at - 1] == '>'))) {
      continue;
    }
    std::size_t p = skip_ws(code, at + 4);
    if (p >= code.size() || code[p] != '(') continue;
    p = skip_ws(code, p + 1);
    for (const char* arg : {"nullptr", "NULL", "0"}) {
      if (code.compare(p, std::strlen(arg), arg) == 0) {
        const std::size_t q = skip_ws(code, p + std::strlen(arg));
        if (q < code.size() && code[q] == ')') {
          flag(at, "time()", "wall clock; the simulation owns the only clock");
        }
        break;
      }
    }
  }

  // Pointer-keyed ordered containers: std::map<T*, ...> / std::set<T*>.
  // Address order is ASLR-dependent, so iteration order — and every
  // decision derived from it — changes run to run.
  for (const char* kw : {"map", "set", "multimap", "multiset"}) {
    std::size_t j = 0;
    while ((j = find_word(code, kw, j)) != std::string::npos) {
      const std::size_t at = j;
      j += std::strlen(kw);
      std::size_t p = skip_ws(code, at + std::strlen(kw));
      if (p >= code.size() || code[p] != '<') continue;
      // First template argument, up to a top-level ',' or '>'.
      int depth = 0;
      bool pointer_key = false;
      for (std::size_t q = p; q < code.size(); ++q) {
        const char c = code[q];
        if (c == '<' || c == '(') ++depth;
        if (c == '>' || c == ')') {
          if (--depth == 0) break;
        }
        if (c == ',' && depth == 1) break;
        if (c == '*' && depth == 1) pointer_key = true;
        if (c == ';') break;
      }
      if (pointer_key) {
        findings.push_back({f.path, f.line_of(at), "DET-2",
                            std::string("pointer-keyed '") + kw +
                                "' — order is ASLR-dependent; key by a stable id "
                                "(pid/tid/region id)"});
      }
    }
  }
}

void check_mut1(const SourceFile& f, std::vector<Finding>& findings) {
  const std::string& code = f.code;
  std::size_t i = 0;
  while ((i = find_word(code, "const_cast", i)) != std::string::npos) {
    findings.push_back({f.path, f.line_of(i), "MUT-1",
                        "'const_cast' — mutation hidden behind a const view; make the "
                        "mutating path non-const"});
    i += std::strlen("const_cast");
  }
}

void check_lif1(const SourceFile& f, std::vector<Finding>& findings) {
  const std::string& code = f.code;
  for (const char* kw : {"shared_ptr", "make_shared"}) {
    std::size_t i = 0;
    while ((i = find_word(code, kw, i)) != std::string::npos) {
      const std::size_t at = i;
      i += std::strlen(kw);
      std::size_t p = skip_ws(code, at + std::strlen(kw));
      if (p >= code.size() || code[p] != '<') continue;
      p = skip_ws(code, p + 1);
      if (code.compare(p, 5, "std::") == 0) p = skip_ws(code, p + 5);
      if (ident_at(f.code, p) == "function") {
        findings.push_back(
            {f.path, f.line_of(at), "LIF-1",
             std::string(kw) +
                 "<std::function> — a continuation that captures its own shared_ptr "
                 "cycles and never frees; use the recursive-lambda idiom (docs/LINT.md)"});
      }
    }
  }
}

void collect_aud1(const SourceFile& f, std::map<std::string, AuditorPair>& pairs) {
  const fs::path p(f.path);
  const std::string key = (p.parent_path() / p.stem()).string();
  AuditorPair& pair = pairs[key];

  // Classes whose base clause names InvariantAuditor.
  const std::string& code = f.code;
  std::size_t i = 0;
  while ((i = find_word(code, "class", i)) != std::string::npos) {
    const std::size_t at = i;
    i += 5;
    std::size_t p2 = skip_ws(code, at + 5);
    const std::string name = ident_at(code, p2);
    if (name.empty()) continue;
    // Scan the head (up to '{' or ';') for a base clause naming the
    // auditor interface.
    std::size_t head_end = at;
    while (head_end < code.size() && code[head_end] != '{' && code[head_end] != ';') ++head_end;
    if (head_end >= code.size() || code[head_end] != '{') continue;  // fwd decl
    const std::string head = code.substr(at, head_end - at);
    const std::size_t colon = head.find(':');
    if (colon == std::string::npos) continue;
    if (head.find("InvariantAuditor", colon) == std::string::npos) continue;
    pair.classes.emplace_back(name, std::make_pair(&f, f.line_of(at)));
  }

  // Registration calls, whitespace-insensitively.
  std::string dense;
  dense.reserve(code.size());
  for (char c : code) {
    if (!std::isspace(static_cast<unsigned char>(c))) dense += c;
  }
  const auto count = [&dense](const char* needle) {
    int n = 0;
    std::size_t at = 0;
    while ((at = dense.find(needle, at)) != std::string::npos) {
      ++n;
      at += std::strlen(needle);
    }
    return n;
  };
  pair.adds += count("audits().add(this)");
  pair.removes += count("audits().remove(this)");
}

void check_aud1(const std::map<std::string, AuditorPair>& pairs,
                std::vector<Finding>& findings) {
  for (const auto& [key, pair] : pairs) {
    if (pair.classes.empty()) continue;
    const int n = static_cast<int>(pair.classes.size());
    for (const auto& [name, where] : pair.classes) {
      if (pair.adds < n) {
        findings.push_back({where.first->path, where.second, "AUD-1",
                            "auditor '" + name +
                                "' never calls audits().add(this) — its invariants are "
                                "silently unchecked"});
      } else if (pair.adds > n) {
        findings.push_back({where.first->path, where.second, "AUD-1",
                            "auditor '" + name +
                                "' registers with more than one AuditRegistry (" +
                                std::to_string(pair.adds) + " adds for " +
                                std::to_string(n) + " auditor class(es))"});
      }
      if (pair.adds != pair.removes) {
        findings.push_back({where.first->path, where.second, "AUD-1",
                            "auditor '" + name + "' has " + std::to_string(pair.adds) +
                                " audits().add(this) but " + std::to_string(pair.removes) +
                                " audits().remove(this) — the registry holds raw pointers, "
                                "unbalanced registration dangles"});
      }
    }
  }
}

}  // namespace osaplint
