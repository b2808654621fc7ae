#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "analysis/loc.h"
#include "common/rng.h"

namespace pstk::analysis {
namespace {

TEST(LocTest, CountsCodeLinesOnly) {
  const std::string source = R"(#include <vector>

// a comment line
int main() {
  /* block
     comment */
  int x = 1;  // trailing comment
  return x;
}
)";
  const auto report = AnalyzeSource("demo", source, {});
  // #include, int main() {, int x = 1;, return x;, }
  EXPECT_EQ(report.code_lines, 5);
  EXPECT_EQ(report.boilerplate_lines, 0);
}

TEST(LocTest, BlockCommentSpanningCodeLine) {
  const std::string source = "int a; /* hi\nstill comment */ int b;\n";
  const auto report = AnalyzeSource("demo", source, {});
  EXPECT_EQ(report.code_lines, 2);  // both lines carry code
}

TEST(LocTest, MarkersFlagBoilerplate) {
  const std::string source = R"(#include "mpi/mpi.h"
World world(cluster, 8, 8);
auto t = world.RunSpmd(body);
compute();
)";
  const auto report =
      AnalyzeSource("mpi", source, {"#include", "World", "RunSpmd"});
  EXPECT_EQ(report.code_lines, 4);
  EXPECT_EQ(report.boilerplate_lines, 3);
  EXPECT_NEAR(report.BoilerplateShare(), 0.75, 1e-9);
}

TEST(LocTest, MarkerCountedOncePerLine) {
  const auto report = AnalyzeSource(
      "x", "World world = World(World::Make());\n", {"World", "Make"});
  EXPECT_EQ(report.boilerplate_lines, 1);
}

TEST(LocTest, ExtractBenchmarkRegion) {
  const std::string source = R"(scaffolding();
// BENCHMARK-BEGIN
real code 1;
real code 2;
// BENCHMARK-END
more scaffolding();
)";
  const std::string region = ExtractBenchmarkRegion(source);
  EXPECT_NE(region.find("real code 1"), std::string::npos);
  EXPECT_EQ(region.find("scaffolding"), std::string::npos);
  // Absent markers: whole source returned.
  EXPECT_EQ(ExtractBenchmarkRegion("abc"), "abc");
}

TEST(LocTest, AnalyzeMissingFileFails) {
  const auto report = AnalyzeFile("x", "/no/such/file.cc", {});
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kNotFound);
}

TEST(LocTest, SurvivesMutatedRepoSources) {
  // Truncations, deleted spans, and inserted quotes, raw-string and
  // comment openers, braces, pragmas and raw bytes: the line counter and
  // the region extractor must return on whatever text they get.
  const char* const kFiles[] = {
      "examples/answerscount_mpi.cc", "examples/fault_tolerance_demo.cc",
      "bench/pagerank_common.cc", "src/analysis/loc.cc"};
  const char* const kInserts[] = {"\"", "'", "R\"x(", "/*", "{", "}",
                                  "\n#pragma omp parallel for\n"};
  Rng rng(17);
  for (const char* file : kFiles) {
    std::ifstream in(std::string(PSTK_REPO_ROOT) + "/" + file);
    ASSERT_TRUE(in) << file;
    std::ostringstream text;
    text << in.rdbuf();
    for (int m = 0; m < 50; ++m) {
      std::string mutant = text.str();
      for (auto k = rng.Range(1, 3); k > 0; --k) {
        const std::size_t at = rng.Below(mutant.size() + 1);
        switch (rng.Below(4)) {
          case 0: mutant.resize(at); break;
          case 1: mutant.erase(at, rng.Below(64) + 1); break;
          case 2: mutant.insert(at, kInserts[rng.Below(std::size(kInserts))]);
            break;
          default:
            for (auto b = rng.Range(1, 8); b > 0; --b) {
              mutant.insert(at, 1, static_cast<char>(rng.Below(256)));
            }
        }
      }
      const LocReport loc = AnalyzeSource(file, mutant, {"return;"});
      EXPECT_LE(loc.boilerplate_lines, loc.code_lines);
      EXPECT_NE(mutant.find(ExtractBenchmarkRegion(mutant)), std::string::npos);
    }
  }
}

}  // namespace
}  // namespace pstk::analysis
