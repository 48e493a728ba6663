// osap-lint's own test bed: run the real binary over fixture sources with
// known violations and assert exact rule hits, suppression accounting,
// DET-1 layer scoping, the cross-TU rules (LAY-1, SID-1, TRC-1, EVT-1),
// the baseline round trip — and, as the meta-test, that the shipped
// src/ + tools/ + tests/ trees lint clean against the checked-in layer
// manifest, identifier registry, and (empty) baseline.
//
// Paths come in as compile definitions (OSAP_LINT_BIN, OSAP_LINT_FIXTURES,
// OSAP_LINT_SRC, OSAP_LINT_TOOLS, OSAP_LINT_TESTS, OSAP_LINT_LAYERS,
// OSAP_LINT_NAMES, OSAP_LINT_BASELINE) so the test works from any build
// directory.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>

namespace {

struct LintRun {
  int exit_code = -1;
  std::string output;
};

LintRun run_lint(const std::string& args) {
  LintRun result;
  const std::string cmd = std::string(OSAP_LINT_BIN) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return result;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) result.output += buf;
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

int count(const std::string& haystack, const std::string& needle) {
  int n = 0;
  std::size_t at = 0;
  while ((at = haystack.find(needle, at)) != std::string::npos) {
    ++n;
    at += needle.size();
  }
  return n;
}

#define EXPECT_HAS(out, needle) \
  EXPECT_NE((out).find(needle), std::string::npos) << "missing '" << (needle) << "' in:\n" << (out)

const std::string kFixtures = OSAP_LINT_FIXTURES;

TEST(LintCli, ListRulesNamesAllNine) {
  const LintRun run = run_lint("--list-rules");
  EXPECT_EQ(run.exit_code, 0);
  for (const char* rule : {"DET-1", "DET-2", "LIF-1", "AUD-1", "MUT-1",  //
                           "LAY-1", "SID-1", "TRC-1", "EVT-1"}) {
    EXPECT_HAS(run.output, rule);
  }
}

TEST(LintCli, NoArgsIsUsageError) {
  EXPECT_EQ(run_lint("").exit_code, 2);
}

TEST(LintCli, MissingPathIsIoError) {
  EXPECT_EQ(run_lint(kFixtures + "/no-such-dir").exit_code, 2);
}

TEST(LintCli, JsonFormatCarriesStatusPerFinding) {
  const LintRun run = run_lint("--format=json " + kFixtures + "/os/mut1_bad.cpp");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_HAS(run.output, "\"tool\": \"osap-lint\"");
  EXPECT_HAS(run.output, "\"new\": 1");
  EXPECT_HAS(run.output, "\"suppressed\": 1");
  EXPECT_HAS(run.output, "\"rule\": \"MUT-1\", \"status\": \"new\"");
  EXPECT_HAS(run.output, "\"rule\": \"MUT-1\", \"status\": \"suppressed\"");
}

TEST(LintCli, GithubAnnotationsPointAtTheFinding) {
  const LintRun run = run_lint("--github " + kFixtures + "/os/mut1_bad.cpp");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_HAS(run.output, "::error file=");
  EXPECT_HAS(run.output, "mut1_bad.cpp,line=9,title=osap-lint MUT-1::");
}

TEST(LintCli, DumpIndexShowsIncludeGraphAndIdentifierUses) {
  const LintRun run = run_lint("--layers=" + kFixtures + "/lay1/layers.txt --dump-index " +
                               kFixtures + "/lay1 " + kFixtures + "/trc1");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_HAS(run.output, "include graph:");
  EXPECT_HAS(run.output, "upward.cpp -> libb/feature.hpp [mid]");
  EXPECT_HAS(run.output, "identifier index:");
  EXPECT_HAS(run.output, "async_begin \"paired\"");
}

TEST(LintFixtures, FullSweepReportsEveryPlantedViolation) {
  const LintRun run = run_lint(kFixtures);
  EXPECT_EQ(run.exit_code, 1);
  const std::string& out = run.output;

  // DET-1: the two traversals in det1_bad.cpp plus the one in each of the
  // trace, fault and policy layers, at their exact lines.
  EXPECT_HAS(out, "det1_bad.cpp:11: DET-1: range-for over hash-ordered 'table_'");
  EXPECT_HAS(out, "det1_bad.cpp:12: DET-1: iterator traversal of hash-ordered 'members_'");
  EXPECT_HAS(out, "det1_trace.cpp:12: DET-1: range-for over hash-ordered 'flush_totals_'");
  EXPECT_HAS(out, "det1_fault.cpp:11: DET-1: range-for over hash-ordered 'crashed_nodes_'");
  EXPECT_HAS(out, "det1_policy.cpp:11: DET-1: range-for over hash-ordered 'queue_rules_'");
  EXPECT_EQ(count(out, " DET-1: "), 5) << out;

  // DET-2: pointer key, engine, rand, wall clocks.
  EXPECT_HAS(out, "det2_bad.cpp:9: DET-2: pointer-keyed 'map'");
  EXPECT_HAS(out, "det2_bad.cpp:12: DET-2: 'mt19937'");
  EXPECT_HAS(out, "det2_bad.cpp:13: DET-2: 'rand'");
  EXPECT_HAS(out, "det2_bad.cpp:14: DET-2: 'time()'");
  EXPECT_HAS(out, "det2_bad.cpp:15: DET-2: 'system_clock'");
  EXPECT_HAS(out, "det2_sink_clock.cpp:8: DET-2: 'steady_clock'");
  EXPECT_EQ(count(out, " DET-2: "), 6) << out;

  // LIF-1: the member declaration and the make_shared.
  EXPECT_HAS(out, "lif1_bad.cpp:6: LIF-1: shared_ptr<std::function>");
  EXPECT_HAS(out, "lif1_bad.cpp:9: LIF-1: make_shared<std::function>");
  EXPECT_EQ(count(out, " LIF-1: "), 2) << out;

  // AUD-1: unbalanced registration and a never-registered auditor, both
  // anchored at the class declaration in the header.
  EXPECT_HAS(out, "aud1_bad.hpp:6: AUD-1: auditor 'LeakyAuditor' has 1 audits().add(this) "
                  "but 0 audits().remove(this)");
  EXPECT_HAS(out,
             "aud1_unregistered.hpp:4: AUD-1: auditor 'ForgottenAuditor' never calls "
             "audits().add(this)");
  EXPECT_EQ(count(out, " AUD-1: "), 2) << out;

  // MUT-1: the const_cast in the "const" accessor; the suppressed twin
  // below it counts toward the suppression total only.
  EXPECT_HAS(out, "mut1_bad.cpp:9: MUT-1: 'const_cast'");
  EXPECT_EQ(count(out, " MUT-1: "), 1) << out;

  // TRC-1 needs no flags: span pairing is checked across every scanned
  // file. The paired span stays silent; each orphan is one finding.
  EXPECT_HAS(out, "spans.cpp:15: TRC-1: async span \"orphan_begin\" has async_begin but no "
                  "async_end");
  EXPECT_HAS(out, "spans.cpp:16: TRC-1: async span \"orphan_end\" has async_end but no "
                  "async_begin");
  EXPECT_EQ(count(out, " TRC-1: "), 2) << out;

  // EVT-1 needs no flags either: the fixture kinds.hpp defines the
  // watched enum, and the two bad switches each earn one finding.
  EXPECT_HAS(out, "switch_default.cpp:11: EVT-1: default: in a switch over ReportKind");
  EXPECT_HAS(out, "switch_missing.cpp:7: EVT-1: switch over ReportKind does not handle "
                  "1 kind(s): Succeeded");
  EXPECT_EQ(count(out, " EVT-1: "), 2) << out;

  // LAY-1 and SID-1 are inert without --layers= / --names=, so their
  // fixture suppressions surface as stale notes here — proof the rules
  // really were off, not silently matching.
  EXPECT_EQ(count(out, " LAY-1: "), 0) << out;
  EXPECT_EQ(count(out, " SID-1: "), 0) << out;
  EXPECT_HAS(out, "tolerated.cpp:2: note: allow(LAY-1) suppresses nothing");
  EXPECT_HAS(out, "use.cpp:21: note: allow(SID-1) suppresses nothing");

  // Malformed suppressions are findings; a stale one earns a note.
  EXPECT_HAS(out, "sup_malformed.cpp:3: SUP: allow(DET-1) without a reason");
  EXPECT_HAS(out, "sup_malformed.cpp:4: SUP: allow(NOPE-9) names an unknown rule");
  EXPECT_HAS(out, "sup_stale.cpp:3: note: allow(LIF-1) suppresses nothing");

  // Scoping and negatives: the unwatched copy of the DET-1 pattern and
  // the sanctioned-idiom file must not appear as violations.
  EXPECT_EQ(out.find("det1_unwatched.cpp"), std::string::npos) << out;
  EXPECT_EQ(out.find("clean.cpp"), std::string::npos) << out;

  EXPECT_HAS(out, "osap-lint: 22 violations, 5 suppressed");
}

TEST(LintFixtures, ValidSuppressionsSilenceBothPlacements) {
  const LintRun run = run_lint(kFixtures + "/os/det1_suppressed.cpp");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_HAS(run.output, "osap-lint: 0 violations, 2 suppressed");
}

TEST(LintFixtures, Det1IsScopedToWatchedLayers) {
  const LintRun run = run_lint(kFixtures + "/util/det1_unwatched.cpp");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_HAS(run.output, "osap-lint: 0 violations, 0 suppressed");
}

TEST(LintFixtures, Det1CoversTraceLayer) {
  // src/trace feeds scheduling-visible JSON output, so it is a watched
  // DET-1 layer like os/ and sched/.
  const LintRun run = run_lint(kFixtures + "/trace/det1_trace.cpp");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_HAS(run.output, "DET-1: range-for over hash-ordered 'flush_totals_'");
}

TEST(LintFixtures, Det1CoversFaultLayer) {
  // src/fault schedules failures straight into the event stream, so it is
  // a watched DET-1 layer like hadoop/ and net/.
  const LintRun run = run_lint(kFixtures + "/fault/det1_fault.cpp");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_HAS(run.output, "DET-1: range-for over hash-ordered 'crashed_nodes_'");
}

TEST(LintFixtures, Det1CoversPolicyLayer) {
  // src/policy picks each victim's primitive and src/revoke drains
  // doomed nodes; both feed the event stream, so both are watched.
  const LintRun run = run_lint(kFixtures + "/policy/det1_policy.cpp");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_HAS(run.output, "DET-1: range-for over hash-ordered 'queue_rules_'");
}

TEST(LintFixtures, Det2CatchesWallClockInTraceSink) {
  const LintRun run = run_lint(kFixtures + "/trace/det2_sink_clock.cpp");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_HAS(run.output, "DET-2: 'steady_clock'");
}

TEST(LintFixtures, SanctionedIdiomsPassInWatchedLayer) {
  const LintRun run = run_lint(kFixtures + "/os/clean.cpp");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_HAS(run.output, "osap-lint: 0 violations, 0 suppressed");
}

TEST(LintLay1, LayerDagForbidsUpwardAndSidewaysIncludes) {
  const LintRun run =
      run_lint("--layers=" + kFixtures + "/lay1/layers.txt " + kFixtures + "/lay1");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  const std::string& out = run.output;
  EXPECT_HAS(out, "upward.cpp:2: LAY-1: include of \"libb/feature.hpp\" reaches upward into "
                  "'libb' (layer mid); 'liba' (layer base) may only include below itself");
  EXPECT_HAS(out, "sibling.cpp:2: LAY-1: include of \"libc/other.hpp\" reaches sideways into "
                  "sibling 'libc' (layer mid)");
  // Downward edges (libb -> liba, libd -> everything) are legal, and the
  // suppressed upward edge in tolerated.cpp counts as suppressed.
  EXPECT_EQ(out.find("feature.hpp:"), std::string::npos) << out;
  EXPECT_EQ(out.find("app.cpp:"), std::string::npos) << out;
  EXPECT_EQ(count(out, " LAY-1: "), 2) << out;
  EXPECT_HAS(out, "osap-lint: 2 violations, 1 suppressed");
}

TEST(LintSid1, RegistryCatchesTyposAndUndeclaredNames) {
  const LintRun run =
      run_lint("--names=" + kFixtures + "/sid1/names_fixture.hpp " + kFixtures + "/sid1");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  const std::string& out = run.output;
  EXPECT_HAS(out, "use.cpp:18: SID-1: identifier \"fx.alpja\" is one edit away from "
                  "registered \"fx.alpha\"");
  EXPECT_HAS(out, "use.cpp:19: SID-1: identifier \"fx.totally_new\" is not declared in");
  // Suffix entries match by tail: the clean per-node name passes, the
  // one-edit-off tail is flagged against the suffix it nearly matches.
  EXPECT_HAS(out, "use.cpp:20: SID-1: identifier \"node7.fx.paged_byte\" is one edit away "
                  "from registered \".fx.paged_bytes\"");
  // The osapd-style fixture: the registry constant passes, the literal
  // one edit short of osapd.cells_done is flagged.
  EXPECT_HAS(out, "osapd_use.cpp:16: SID-1: identifier \"osapd.cells_don\" is one edit away "
                  "from registered \"osapd.cells_done\"");
  EXPECT_EQ(out.find("suffix_clean.cpp"), std::string::npos) << out;
  // Exact literals and registry constants are declared by construction.
  EXPECT_EQ(out.find("fx.alpha\" is not declared"), std::string::npos) << out;
  EXPECT_EQ(count(out, " SID-1: "), 4) << out;
  EXPECT_HAS(out, "osap-lint: 4 violations, 1 suppressed");
}

TEST(LintTrc1, AsyncSpansMustPairProjectWide) {
  const LintRun run = run_lint(kFixtures + "/trc1");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  const std::string& out = run.output;
  EXPECT_HAS(out, "spans.cpp:15: TRC-1: async span \"orphan_begin\" has async_begin but no "
                  "async_end anywhere in the tree");
  EXPECT_HAS(out, "spans.cpp:16: TRC-1: async span \"orphan_end\" has async_end but no "
                  "async_begin anywhere in the tree");
  EXPECT_EQ(out.find("\"paired\""), std::string::npos) << out;
  EXPECT_EQ(count(out, " TRC-1: "), 2) << out;
  EXPECT_HAS(out, "osap-lint: 2 violations, 1 suppressed");
}

TEST(LintEvt1, KindSwitchesMustBeExhaustiveWithNoDefault) {
  const LintRun run = run_lint(kFixtures + "/evt1");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  const std::string& out = run.output;
  EXPECT_HAS(out, "switch_default.cpp:11: EVT-1: default: in a switch over ReportKind");
  EXPECT_HAS(out, "switch_missing.cpp:7: EVT-1: switch over ReportKind does not handle "
                  "1 kind(s): Succeeded");
  EXPECT_EQ(out.find("switch_clean.cpp"), std::string::npos) << out;
  EXPECT_EQ(count(out, " EVT-1: "), 2) << out;
  EXPECT_HAS(out, "osap-lint: 2 violations, 1 suppressed");
}

// The baseline lifecycle: a finding exits 1; --update-baseline absorbs
// it; the baselined run exits 0; once the finding is fixed the leftover
// entry is flagged as stale.
TEST(LintBaseline, RoundTripAbsorbsFindingsAndFlagsStaleEntries) {
  const std::string tmp = "lint_baseline_roundtrip.json";
  std::remove(tmp.c_str());

  const LintRun plain = run_lint(kFixtures + "/os/mut1_bad.cpp");
  EXPECT_EQ(plain.exit_code, 1) << plain.output;

  const LintRun update =
      run_lint("--baseline=" + tmp + " --update-baseline " + kFixtures + "/os/mut1_bad.cpp");
  EXPECT_EQ(update.exit_code, 0) << update.output;
  EXPECT_HAS(update.output, "osap-lint: baseline updated (1 entry)");

  const LintRun absorbed = run_lint("--baseline=" + tmp + " " + kFixtures + "/os/mut1_bad.cpp");
  EXPECT_EQ(absorbed.exit_code, 0) << absorbed.output;
  EXPECT_HAS(absorbed.output, "osap-lint: 0 new violations, 1 baselined, 1 suppressed");

  // Same baseline against a clean file: nothing matches the entry, so it
  // is stale — reported as a note, not a failure.
  const LintRun stale = run_lint("--baseline=" + tmp + " " + kFixtures + "/os/clean.cpp");
  EXPECT_EQ(stale.exit_code, 0) << stale.output;
  EXPECT_HAS(stale.output, "note: stale baseline entry (MUT-1:");
  EXPECT_HAS(stale.output, "osap-lint: 0 new violations, 0 baselined, 0 suppressed");

  std::remove(tmp.c_str());
}

TEST(LintBaseline, MalformedBaselineIsAnIoError) {
  const std::string tmp = "lint_baseline_malformed.json";
  FILE* f = std::fopen(tmp.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("{\"version\": 1}", f);
  std::fclose(f);
  const LintRun run = run_lint("--baseline=" + tmp + " " + kFixtures + "/os/clean.cpp");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  std::remove(tmp.c_str());
}

// The meta-test: the tree the linter was built to guard must lint clean.
// A regression here means someone reintroduced hash-order traversal,
// ambient randomness, a continuation cycle, or a half-registered auditor.
TEST(LintMeta, ShippedSourceTreeIsClean) {
  const LintRun run = run_lint(OSAP_LINT_SRC);
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_HAS(run.output, "osap-lint: 0 violations, 0 suppressed");
}

// The full CI configuration: all three roots, the checked-in layer
// manifest and identifier registry, and the (empty) committed baseline.
// This is exactly what the osap_lint_tree ctest case and the CI lint job
// run; it failing means a new finding must be fixed, suppressed with a
// reason, or deliberately baselined.
TEST(LintMeta, ShippedTreeIsCleanUnderFullConfiguration) {
  const LintRun run = run_lint(std::string("--layers=") + OSAP_LINT_LAYERS +
                               " --names=" + OSAP_LINT_NAMES +
                               " --baseline=" + OSAP_LINT_BASELINE + " " + OSAP_LINT_SRC + " " +
                               OSAP_LINT_TOOLS + " " + OSAP_LINT_TESTS);
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_HAS(run.output, "osap-lint: 0 new violations, 0 baselined,");
  EXPECT_EQ(run.output.find("note: stale baseline entry"), std::string::npos) << run.output;
}

// LAY-1 places a file by the first path component that names a manifest
// directory, so an entry whose directory is gone matches nothing and
// lints clean. Every directory the manifest names must exist, either
// under src/ or as a top-level app directory.
TEST(LintMeta, EveryManifestDirectoryExists) {
  const std::filesystem::path src(OSAP_LINT_SRC);
  std::ifstream manifest(OSAP_LINT_LAYERS);
  ASSERT_TRUE(manifest) << OSAP_LINT_LAYERS;
  int named = 0;
  for (std::string line; std::getline(manifest, line);) {
    const std::size_t colon = line.find(':');
    if (line.empty() || line[0] == '#' || colon == std::string::npos) continue;
    std::istringstream dirs(line.substr(colon + 1));
    for (std::string dir; dirs >> dir; ++named) {
      EXPECT_TRUE(std::filesystem::is_directory(src / dir) ||
                  std::filesystem::is_directory(src.parent_path() / dir))
          << "layers.txt names '" << dir << "', which is neither src/" << dir
          << " nor a top-level directory";
    }
  }
  EXPECT_GT(named, 0) << "no layer lines read from " << OSAP_LINT_LAYERS;
}

}  // namespace
