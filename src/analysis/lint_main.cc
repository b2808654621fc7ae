// pstk-lint driver: scan source trees for cross-paradigm misuse patterns
// (see lint.h for the rules).
//
//   ./build/src/analysis/pstk-lint [options] [path...]
//
// Options:
//   --format=text|sarif        output format (default: text report)
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
//   --explain=<rule>           print the rule's severity, summary, and
//                              fix hint, then exit
//
// With no paths, scans the repo's examples/, bench/, and src/ trees.
// Exit codes: 0 clean or below threshold, 1 findings at/above --fail-on,
// 2 usage or I/O error.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/lint.h"
#include "common/strings.h"

namespace {

using pstk::analysis::LintFinding;
using pstk::analysis::Severity;

/// SARIF/report paths read better repo-relative; strip the build-time
/// repo prefix when a scanned path lives under it.
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
               "usage: pstk-lint [--format=text|sarif] "
               "[--baseline=<file>] [--fail-on=error|warning|none] "
               "[--write-baseline] [--explain=<rule>] [path...]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string format = "text";
  std::string baseline_path;
  std::string fail_on = "none";
  bool write_baseline = false;
  std::vector<std::string> roots;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (pstk::StartsWith(arg, "--format=")) {
      format = arg.substr(std::strlen("--format="));
      if (format != "text" && format != "sarif") {
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

  MakeRepoRelative(findings);

  if (format == "sarif") {
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
