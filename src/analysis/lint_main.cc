// pstk-lint driver: scan source trees for cross-paradigm misuse patterns
// (see lint.h for the rules).
//
//   ./build/src/analysis/pstk-lint [options] [path...]
//
// Options:
//   --format=text|json|sarif   output format (default: text report)
//   --baseline=<file>          suppress findings listed in <file>
//                              (`rule path [hash]` per line, `#` comments)
//   --fail-on=error|warning|none
//                              exit 1 when a finding at or above this
//                              severity survives the baseline
//                              (default: none — findings never fail)
//   --write-baseline           print ALL current findings in baseline
//                              format (suppressions are NOT applied —
//                              the output replaces the baseline). When
//                              --baseline=<file> is also given, that
//                              file's leading comment block is carried
//                              over so regeneration diffs cleanly
//   --fix[=dry-run]            apply machine-generated fixes for findings
//                              that carry them (after the baseline).
//                              dry-run prints the edit plan and exits 1
//                              when fixes exist for findings at/above
//                              --fail-on; --fix writes the files, then
//                              re-lints to verify the fixes took
//   --explain=<rule>           print the rule's severity, summary, and
//                              fix hint, then exit
//
// With no paths, scans the repo's examples/, bench/, and src/ trees.
// Exit codes: 0 clean or below threshold, 1 findings at/above --fail-on
// (or, under --fix, fixable/unfixed findings), 2 usage or I/O error.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/lint.h"
#include "analysis/rewrite.h"
#include "common/strings.h"

namespace {

using pstk::analysis::LintFinding;
using pstk::analysis::Severity;
using pstk::analysis::TextEdit;

/// SARIF/report paths read better repo-relative; strip the build-time
/// repo prefix when a scanned path lives under it. Edit paths keep the
/// on-disk form — they are written back, not displayed.
void MakeRepoRelative(std::vector<LintFinding>& findings) {
#ifdef PSTK_REPO_ROOT
  const std::string prefix = std::string(PSTK_REPO_ROOT) + "/";
  const auto strip = [&](std::string& path) {
    if (pstk::StartsWith(path, prefix)) path = path.substr(prefix.size());
  };
  for (LintFinding& f : findings) {
    strip(f.file);
    for (pstk::analysis::RelatedLocation& r : f.related) strip(r.file);
  }
#else
  (void)findings;
#endif
}

/// Leading comment block ('#' lines and blanks before the first entry) of
/// an existing baseline file; "" when the file is absent or starts with
/// an entry.
std::string BaselineHeader(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "";
  std::string header;
  std::string line;
  while (std::getline(in, line)) {
    const bool comment_or_blank =
        line.empty() || line[0] == '#' ||
        line.find_first_not_of(" \t") == std::string::npos;
    if (!comment_or_blank) break;
    header += line;
    header += '\n';
  }
  return header;
}

int Explain(const std::string& slug) {
  for (const pstk::analysis::RuleInfo& r : pstk::analysis::Rules()) {
    if (slug != r.slug) continue;
    std::printf("%s (%s)\n  %s\n  fix: %s\n", r.slug,
                pstk::analysis::SeverityName(r.severity), r.summary, r.fix);
    return 0;
  }
  std::fprintf(stderr, "pstk-lint: unknown rule '%s'; known rules:\n",
               slug.c_str());
  for (const pstk::analysis::RuleInfo& r : pstk::analysis::Rules()) {
    std::fprintf(stderr, "  %s\n", r.slug);
  }
  return 2;
}

int Usage() {
  std::fprintf(stderr,
               "usage: pstk-lint [--format=text|json|sarif] "
               "[--baseline=<file>] [--fail-on=error|warning|none] "
               "[--write-baseline] [--fix[=dry-run]] "
               "[--explain=<rule>] [path...]\n");
  return 2;
}

Severity Threshold(const std::string& fail_on) {
  if (fail_on == "error") return Severity::kError;
  if (fail_on == "warning") return Severity::kWarning;
  return Severity::kNote;  // "none": every finding qualifies under --fix
}

/// Fix driver. Collects edits from findings at/above the threshold,
/// groups them per file, and either prints the plan (dry-run) or writes
/// the files and re-lints to verify every applied fix took.
int RunFix(const std::vector<LintFinding>& findings, bool dry_run,
           const std::string& fail_on, const std::vector<std::string>& roots) {
  const Severity threshold = Threshold(fail_on);
  std::map<std::string, std::vector<TextEdit>> by_file;
  int fixable = 0;
  for (const LintFinding& f : findings) {
    if (f.edits.empty()) continue;
    if (static_cast<int>(f.severity) < static_cast<int>(threshold)) continue;
    ++fixable;
    for (const TextEdit& e : f.edits) by_file[e.file].push_back(e);
  }
  if (by_file.empty()) {
    std::printf("pstk-lint --fix: nothing to fix (0 fixable findings)\n");
    return 0;
  }
  if (dry_run) {
    std::printf("pstk-lint --fix=dry-run: %d fixable finding(s), "
                "%zu file(s) would change:\n",
                fixable, by_file.size());
    for (const auto& [file, edits] : by_file) {
      for (const TextEdit& e : edits) {
        if (e.delete_lines > 0 && e.text.empty()) {
          std::printf("  %s:%d: delete %d line(s) — %s\n", file.c_str(),
                      e.line, e.delete_lines, e.note.c_str());
        } else {
          std::printf("  %s:%d: replace %d line(s) with %zu — %s\n",
                      file.c_str(), e.line, e.delete_lines, e.text.size(),
                      e.note.c_str());
        }
      }
    }
    return 1;  // fixes exist at/above the threshold
  }

  int files_changed = 0;
  int applied_total = 0;
  int skipped_total = 0;
  for (auto& [file, edits] : by_file) {
    std::ifstream in(file);
    if (!in) {
      std::fprintf(stderr, "pstk-lint --fix: cannot open %s\n", file.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    in.close();
    std::vector<TextEdit> applied;
    std::vector<TextEdit> skipped;
    const std::string fixed = pstk::analysis::ApplyEdits(
        buf.str(), std::move(edits), &applied, &skipped);
    skipped_total += static_cast<int>(skipped.size());
    if (applied.empty()) continue;
    std::ofstream out(file, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "pstk-lint --fix: cannot write %s\n",
                   file.c_str());
      return 2;
    }
    out << fixed;
    ++files_changed;
    applied_total += static_cast<int>(applied.size());
  }
  std::printf("pstk-lint --fix: applied %d edit(s) across %d file(s)",
              applied_total, files_changed);
  if (skipped_total > 0) {
    std::printf(" (%d overlapping edit(s) skipped — re-run --fix)",
                skipped_total);
  }
  std::printf("\n");

  // Verification pass: the fixed tree must not still contain a fixable
  // finding at/above the threshold (that would mean a fix didn't take,
  // and --fix would not be idempotent).
  auto rescan = pstk::analysis::LintTree(roots);
  if (!rescan.ok()) {
    std::fprintf(stderr, "pstk-lint --fix: re-lint failed: %s\n",
                 rescan.status().ToString().c_str());
    return 2;
  }
  int remaining = 0;
  for (const LintFinding& f : rescan.value()) {
    if (!f.edits.empty() &&
        static_cast<int>(f.severity) >= static_cast<int>(threshold)) {
      ++remaining;
    }
  }
  if (remaining > 0) {
    std::printf("pstk-lint --fix: %d fixable finding(s) remain after "
                "applying (overlaps deferred; re-run --fix)\n",
                remaining);
    return 1;
  }
  std::printf("pstk-lint --fix: re-lint clean of fixable findings\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string format = "text";
  std::string baseline_path;
  std::string fail_on = "none";
  bool write_baseline = false;
  bool fix = false;
  bool fix_dry_run = false;
  std::vector<std::string> roots;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (pstk::StartsWith(arg, "--format=")) {
      format = arg.substr(std::strlen("--format="));
      if (format != "text" && format != "json" && format != "sarif") {
        return Usage();
      }
    } else if (pstk::StartsWith(arg, "--baseline=")) {
      baseline_path = arg.substr(std::strlen("--baseline="));
    } else if (pstk::StartsWith(arg, "--fail-on=")) {
      fail_on = arg.substr(std::strlen("--fail-on="));
      if (fail_on != "error" && fail_on != "warning" && fail_on != "none") {
        return Usage();
      }
    } else if (arg == "--write-baseline") {
      write_baseline = true;
    } else if (arg == "--fix") {
      fix = true;
    } else if (arg == "--fix=dry-run") {
      fix = true;
      fix_dry_run = true;
    } else if (pstk::StartsWith(arg, "--explain=")) {
      return Explain(arg.substr(std::strlen("--explain=")));
    } else if (pstk::StartsWith(arg, "--")) {
      return Usage();
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) {
#ifdef PSTK_REPO_ROOT
    roots = {std::string(PSTK_REPO_ROOT) + "/examples",
             std::string(PSTK_REPO_ROOT) + "/bench",
             std::string(PSTK_REPO_ROOT) + "/src"};
#else
    return Usage();
#endif
  }

  auto scanned = pstk::analysis::LintTree(roots);
  if (!scanned.ok()) {
    std::fprintf(stderr, "pstk-lint: %s\n",
                 scanned.status().ToString().c_str());
    return 2;
  }
  std::vector<LintFinding> findings = std::move(scanned.value());

  if (write_baseline) {
    // The output *replaces* the baseline, so suppressions must not be
    // applied first (that would drop every already-suppressed finding
    // from the regenerated file). Carry the old header through. Paths
    // are repo-relativized first so entries match across machines.
    MakeRepoRelative(findings);
    const std::string header =
        baseline_path.empty() ? "" : BaselineHeader(baseline_path);
    std::fputs(pstk::analysis::FormatBaseline(findings, header).c_str(),
               stdout);
    return 0;
  }

  int suppressed = 0;
  if (!baseline_path.empty()) {
    // Baselines carry repo-relative paths; PathMatches is suffix-based,
    // so matching against the on-disk paths works either way.
    auto baseline = pstk::analysis::LoadBaseline(baseline_path);
    if (!baseline.ok()) {
      std::fprintf(stderr, "pstk-lint: %s\n",
                   baseline.status().ToString().c_str());
      return 2;
    }
    findings = pstk::analysis::ApplyBaseline(std::move(findings),
                                             baseline.value(), &suppressed);
  }

  if (fix) {
    // Fixes run on the post-baseline findings with on-disk paths (the
    // edits are written back); repo-relativization is display-only.
    return RunFix(findings, fix_dry_run, fail_on, roots);
  }
  MakeRepoRelative(findings);

  if (format == "json") {
    std::fputs(pstk::analysis::RenderJson(findings).c_str(), stdout);
  } else if (format == "sarif") {
    std::fputs(pstk::analysis::RenderSarif(findings).c_str(), stdout);
  } else {
    std::fputs(pstk::analysis::RenderLintReport(findings).c_str(), stdout);
    if (suppressed > 0) {
      std::printf("(%d baseline-suppressed finding(s) not shown)\n",
                  suppressed);
    }
  }

  if (fail_on == "none" || findings.empty()) return 0;
  const Severity worst = pstk::analysis::WorstSeverity(findings);
  const Severity threshold =
      fail_on == "error" ? Severity::kError : Severity::kWarning;
  return static_cast<int>(worst) >= static_cast<int>(threshold) ? 1 : 0;
}
