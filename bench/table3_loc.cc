// Table III: maintainability analysis — lines of code and boilerplate
// share of the four AnswersCount implementations (the example programs in
// examples/answerscount_*.cc, measured between their BENCHMARK-BEGIN/END
// markers, exactly like the paper counted benchmark bodies).
//
//   ./build/bench/table3_loc [root=<repo root>]
//
// Exits 1 unless the boilerplate shares rank OpenMP < Spark < Hadoop MR <
// MPI, the paper's ordering. Its stdout is a golden (bench/golden).
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "analysis/loc.h"
#include "bench_opts.h"
#include "common/config.h"
#include "common/table.h"

#ifndef PSTK_REPO_ROOT
#define PSTK_REPO_ROOT "."
#endif

using namespace pstk;

int main(int argc, char** argv) {
  // No simulation here, but accept the shared flags so every bench binary
  // has a uniform command line (an empty-but-valid trace is still written).
  bench::Observability::Instance().ParseFlags(&argc, argv);
  auto config = Config::FromArgs(argc, argv);
  if (!config.ok()) {
    std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
    return 1;
  }
  const std::string root = config->GetString("root", PSTK_REPO_ROOT);

  struct Subject {
    const char* label;
    const char* file;
    std::vector<std::string> boilerplate_markers;
  };
  // Boilerplate = framework setup/teardown/plumbing, not algorithm logic.
  const Subject subjects[] = {
      {"OpenMP",
       "examples/answerscount_omp.cc",
       {"omp::Runtime", "ReadAll", "return;"}},
      {"MPI",
       "examples/answerscount_mpi.cc",
       {"File::OpenAll", "ReadLinesAtAll", "Reduce<", "comm.rank",
        "comm.size", "INT_MAX", "int32_t", "return;"}},
      {"Hadoop MR",
       "examples/answerscount_mr.cc",
       {"MrEngine", "JobConf", "conf.", "RunJob", "mr::Emitter"}},
      {"Spark",
       "examples/answerscount_spark.cc",
       {"TextFile", "return;"}},
  };

  std::printf("Table III — Lines of code / boilerplate of the AnswersCount "
              "implementations\n\n");
  Table table;
  table.SetHeader({"framework", "code lines", "boilerplate",
                   "boilerplate %"});
  bool ok = true;
  std::map<std::string, double> share;
  for (const Subject& subject : subjects) {
    auto report = analysis::AnalyzeFile(subject.label,
                                        root + "/" + subject.file,
                                        subject.boilerplate_markers);
    if (!report.ok()) {
      std::fprintf(stderr, "%s: %s\n", subject.label,
                   report.status().ToString().c_str());
      ok = false;
      continue;
    }
    share[subject.label] = report->BoilerplateShare();
    table.Row()
        .Cell(subject.label)
        .Cell(std::int64_t{report->code_lines})
        .Cell(std::int64_t{report->boilerplate_lines})
        .Cell(100.0 * report->BoilerplateShare(), 0);
  }
  table.Print();
  const bool ranked = share.size() == 4 && share["OpenMP"] < share["Spark"] &&
                      share["Spark"] < share["Hadoop MR"] &&
                      share["Hadoop MR"] < share["MPI"];
  if (!ranked) {
    std::fprintf(stderr, "table3_loc: boilerplate shares do not rank OpenMP "
                         "< Spark < Hadoop MR < MPI\n");
    ok = false;
  }

  std::printf(
      "\nExpected shape (paper): the OpenMP version is smallest (pragma-style\n"
      "parallelism over a serial kernel); MPI carries the most explicit\n"
      "distribution plumbing (chunking, collective I/O, reductions);\n"
      "Hadoop hides control flow but demands job scaffolding; Spark's\n"
      "transformations read like the logical dataflow.\n");
  if (!bench::Observability::Instance().Finish()) ok = false;
  return ok ? 0 : 1;
}
