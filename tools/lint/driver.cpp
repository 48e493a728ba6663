// osap-lint — the project's determinism, lifetime, and architecture
// static-analysis pass (docs/LINT.md).
//
// The simulator's claim to validity is that two runs of one scenario
// produce byte-identical event streams; the linter enforces the
// codified rules that protect that claim plus the cross-TU structure
// rules the libosap carve-out depends on. Passes and the shared file
// model live in the sibling sources:
//
//   model.cpp        tokenizer front-end, suppressions, rule table
//   rules_local.cpp  DET-1, DET-2, LIF-1, MUT-1, AUD-1
//   project.cpp      LAY-1, SID-1, TRC-1, EVT-1 (project-wide artifacts)
//   output.cpp       text/json/github back-ends + the findings baseline
//
// Usage: osap_lint [--list-rules] [-v] [--format=text|json] [--github]
//                  [--layers=FILE] [--names=FILE] [--baseline=FILE]
//                  [--update-baseline] [--dump-index] <file-or-dir>...
// Exit:  0 clean (suppressed/baselined findings allowed), 1 new
//        violations, 2 usage or I/O error.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "output.hpp"
#include "passes.hpp"

namespace osaplint {
namespace {

namespace fs = std::filesystem;

/// Layer directories whose state feeds scheduling/eviction decisions;
/// DET-1 applies to files living under any of them.
constexpr const char* kWatchedDirs[] = {"os",      "sim", "sched", "hadoop", "hdfs",
                                        "preempt", "net", "trace", "fault",  "policy",
                                        "revoke"};

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

bool watched_for_det1(const fs::path& p) {
  for (const fs::path& part : p.parent_path()) {
    for (const char* dir : kWatchedDirs) {
      if (part == dir) return true;
    }
  }
  return false;
}

int list_rules() {
  std::printf("osap-lint rules (suppress with '// osap-lint: allow(RULE) reason'):\n");
  for (const RuleInfo& r : kRules) {
    std::printf("  %-6s %s\n", r.id, r.summary);
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: osap_lint [--list-rules] [-v] [--format=text|json] [--github]\n"
               "                 [--layers=FILE] [--names=FILE] [--baseline=FILE]\n"
               "                 [--update-baseline] [--dump-index] <file-or-dir>...\n");
  return 2;
}

bool load_file(const fs::path& path, SourceFile& f) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  f.path = path.string();
  std::ostringstream buf;
  buf << in.rdbuf();
  f.raw = buf.str();
  f.det1_watched = watched_for_det1(path);
  strip(f);
  return true;
}

void dump_index(const std::vector<SourceFile>& sources, const LayerManifest& layers,
                const IdentifierIndex& index) {
  std::printf("include graph:\n");
  for (const SourceFile& f : sources) {
    for (const Include& inc : f.includes) {
      if (layers.loaded()) {
        const std::string dir = layers.dir_of_path(inc.path);
        std::printf("  %s -> %s [%s]\n", f.path.c_str(), inc.path.c_str(),
                    dir.empty() ? "-" : layers.layer_name(layers.rank_of_dir(dir)).c_str());
      } else {
        std::printf("  %s -> %s\n", f.path.c_str(), inc.path.c_str());
      }
    }
  }
  std::printf("identifier index:\n");
  for (const NameUse& use : index.uses) {
    std::printf("  %s:%d %s \"%s\"%s\n", use.file->path.c_str(), use.line, use.call.c_str(),
                use.name.c_str(), use.from_literal ? "" : " (via registry constant)");
  }
}

int run(int argc, char** argv) {
  std::vector<fs::path> roots;
  bool verbose = false;
  bool github = false;
  bool update_baseline = false;
  bool want_dump = false;
  std::string format = "text";
  std::string layers_path;
  std::string names_path;
  std::string baseline_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto flag_value = [&arg](const char* name) -> const char* {
      const std::size_t n = std::strlen(name);
      if (arg.compare(0, n, name) == 0 && arg.size() > n && arg[n] == '=') {
        return arg.c_str() + n + 1;
      }
      return nullptr;
    };
    if (arg == "--list-rules") return list_rules();
    if (arg == "-v" || arg == "--verbose") {
      verbose = true;
    } else if (arg == "--github") {
      github = true;
    } else if (arg == "--update-baseline") {
      update_baseline = true;
    } else if (arg == "--dump-index") {
      want_dump = true;
    } else if (const char* v = flag_value("--format")) {
      format = v;
      if (format != "text" && format != "json") {
        std::fprintf(stderr, "osap-lint: unknown format '%s'\n", v);
        return 2;
      }
    } else if (const char* v2 = flag_value("--layers")) {
      layers_path = v2;
    } else if (const char* v3 = flag_value("--names")) {
      names_path = v3;
    } else if (const char* v4 = flag_value("--baseline")) {
      baseline_path = v4;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return usage();
    } else {
      roots.emplace_back(arg);
    }
  }
  if (roots.empty()) return usage();
  if (update_baseline && baseline_path.empty()) {
    std::fprintf(stderr, "osap-lint: --update-baseline needs --baseline=FILE\n");
    return 2;
  }

  // Gather and load files (sorted for stable output). Directories named
  // "fixtures" hold deliberately-dirty lint-test inputs and are skipped
  // when reached by recursion; naming one as a root still scans it.
  std::vector<fs::path> files;
  for (const fs::path& root : roots) {
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      for (auto it = fs::recursive_directory_iterator(root, ec);
           it != fs::recursive_directory_iterator(); ++it) {
        if (it->is_directory() && it->path().filename() == "fixtures") {
          it.disable_recursion_pending();
          continue;
        }
        if (it->is_regular_file() && lintable(it->path())) files.push_back(it->path());
      }
    } else if (fs::is_regular_file(root, ec) && lintable(root)) {
      files.push_back(root);
    } else {
      std::fprintf(stderr, "osap-lint: cannot read %s\n", root.string().c_str());
      return 2;
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<SourceFile> sources;
  sources.reserve(files.size());
  std::vector<Finding> findings;
  for (const fs::path& path : files) {
    SourceFile f;
    if (!load_file(path, f)) {
      std::fprintf(stderr, "osap-lint: cannot open %s\n", path.string().c_str());
      return 2;
    }
    parse_suppressions(f, findings);
    sources.push_back(std::move(f));
  }

  // Project artifacts.
  LayerManifest layers;
  if (!layers_path.empty()) {
    try {
      layers = LayerManifest::load(layers_path);
    } catch (const std::runtime_error& e) {
      std::fprintf(stderr, "osap-lint: %s\n", e.what());
      return 2;
    }
  }
  NameRegistry registry;
  if (!names_path.empty()) {
    SourceFile reg;
    if (!load_file(names_path, reg)) {
      std::fprintf(stderr, "osap-lint: cannot open registry %s\n", names_path.c_str());
      return 2;
    }
    registry = NameRegistry::load(reg);
    if (!registry.loaded()) {
      std::fprintf(stderr, "osap-lint: registry %s declares no identifiers\n",
                   names_path.c_str());
      return 2;
    }
  }

  UnorderedNames names;
  KindEnums kind_enums;
  IdentifierIndex index;
  for (const SourceFile& f : sources) {
    collect_unordered_names(f, names);
    collect_kind_enums(f, kind_enums);
    index.build(f, registry);
  }
  if (verbose) {
    std::printf("osap-lint: %zu files, %zu unordered members, %zu unordered accessors, "
                "%zu identifier uses, %zu kind enums\n",
                sources.size(), names.vars.size(), names.fns.size(), index.uses.size(),
                kind_enums.enumerators.size());
  }
  if (want_dump) {
    dump_index(sources, layers, index);
    return 0;
  }

  // Rule passes.
  std::map<std::string, AuditorPair> aud_pairs;
  for (const SourceFile& f : sources) {
    check_det1(f, names, findings);
    check_det2(f, findings);
    check_lif1(f, findings);
    check_mut1(f, findings);
    collect_aud1(f, aud_pairs);
    check_lay1(f, layers, findings);
    check_evt1(f, kind_enums, findings);
  }
  check_aud1(aud_pairs, findings);
  check_sid1(index, registry, findings);
  check_trc1(index, findings);

  // Apply suppressions (a finding's line, matched by rule).
  for (SourceFile& f : sources) {
    for (Suppression& sup : f.suppressions) {
      for (Finding& finding : findings) {
        if (finding.suppressed || finding.file != f.path) continue;
        if (finding.rule == sup.rule && finding.line == sup.applies_to) {
          finding.suppressed = true;
          sup.used = true;
        }
      }
    }
  }

  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule, a.message) <
           std::tie(b.file, b.line, b.rule, b.message);
  });

  if (update_baseline) {
    if (!save_baseline(baseline_path, findings)) {
      std::fprintf(stderr, "osap-lint: cannot write baseline %s\n", baseline_path.c_str());
      return 2;
    }
    int entries = 0;
    for (const Finding& f : findings) {
      if (!f.suppressed) ++entries;
    }
    std::printf("osap-lint: baseline updated (%d entr%s) -> %s\n", entries,
                entries == 1 ? "y" : "ies", baseline_path.c_str());
    return 0;
  }

  Report report;
  if (!baseline_path.empty()) {
    std::vector<BaselineEntry> entries;
    std::string err;
    if (!load_baseline(baseline_path, entries, err)) {
      std::fprintf(stderr, "osap-lint: %s\n", err.c_str());
      return 2;
    }
    apply_baseline(findings, entries);
    report.baseline_active = true;
    for (BaselineEntry& e : entries) {
      if (!e.consumed) report.stale_baseline.push_back(std::move(e));
    }
  }

  for (const SourceFile& f : sources) {
    for (const Suppression& sup : f.suppressions) {
      if (!sup.used) report.stale_suppressions.push_back({f.path, sup.line, sup.rule});
    }
  }
  for (const Finding& f : findings) {
    if (f.suppressed) {
      ++report.suppressed;
    } else if (f.baselined) {
      ++report.baselined;
    } else {
      ++report.new_count;
    }
  }
  report.findings = std::move(findings);

  if (format == "json") {
    print_json(report);
  } else {
    print_text(report, verbose);
  }
  if (github) print_github(report);
  return report.new_count == 0 ? 0 : 1;
}

}  // namespace
}  // namespace osaplint

int main(int argc, char** argv) { return osaplint::run(argc, argv); }
