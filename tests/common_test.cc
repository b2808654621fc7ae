#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/table.h"
#include "common/units.h"

namespace pstk {
namespace {

// --------------------------------------------------------------------------
// Status / Result
// --------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFound("no such block");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: no such block");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(FailedPrecondition("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(ResourceExhausted("x").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(DataLoss("x").code(), StatusCode::kDataLoss);
  EXPECT_EQ(Aborted("x").code(), StatusCode::kAborted);
  EXPECT_EQ(Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(AlreadyExists("x").code(), StatusCode::kAlreadyExists);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = NotFound("gone");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
  EXPECT_THROW({ (void)r.value(); }, StatusError);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r = std::vector<int>{1, 2, 3};
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

// --------------------------------------------------------------------------
// Units
// --------------------------------------------------------------------------

TEST(UnitsTest, ByteConstants) {
  EXPECT_EQ(kKiB, 1024u);
  EXPECT_EQ(kMiB, 1024u * 1024u);
  EXPECT_EQ(GiB(8), 8ull * 1024 * 1024 * 1024);
}

TEST(UnitsTest, RateHelpers) {
  // FDR InfiniBand 56 Gbit/s = 7 GB/s.
  EXPECT_DOUBLE_EQ(Gbps(56), 7e9);
  EXPECT_DOUBLE_EQ(TransferTime(MiB(1), MBps(1)), 1048576.0 / 1e6);
}

TEST(UnitsTest, FormatDuration) {
  EXPECT_EQ(FormatDuration(1.5), "1.5s");
  EXPECT_EQ(FormatDuration(0.0125), "12.5ms");
  EXPECT_EQ(FormatDuration(3.2e-6), "3.2us");
  EXPECT_EQ(FormatDuration(5e-9), "5ns");
}

TEST(UnitsTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512B");
  EXPECT_EQ(FormatBytes(kMiB * 2), "2MiB");
  EXPECT_EQ(FormatBytes(kGiB * 80), "80GiB");
}

// --------------------------------------------------------------------------
// Rng
// --------------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int differ = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.Next() != b.Next()) ++differ;
  }
  EXPECT_GT(differ, 8);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(4);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.Range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, PowerLawBoundsAndSkew) {
  Rng rng(6);
  std::uint64_t ones = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto v = rng.PowerLaw(1000, 2.0);
    ASSERT_GE(v, 1u);
    ASSERT_LE(v, 1000u);
    if (v == 1) ++ones;
  }
  // Power law with alpha=2 concentrates mass at small values.
  EXPECT_GT(ones, n / 4);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng a(9);
  Rng child = a.Split();
  EXPECT_NE(a.Next(), child.Next());
}

// --------------------------------------------------------------------------
// Strings
// --------------------------------------------------------------------------

TEST(StringsTest, Split) {
  const auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(StringsTest, SplitNonEmpty) {
  const auto parts = SplitNonEmpty("  a b  c ", ' ');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[2], "c");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(TrimWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace("   "), "");
}

TEST(StringsTest, JoinAndLower) {
  EXPECT_EQ(ToLower("MiXeD"), "mixed");
}

// --------------------------------------------------------------------------
// Table
// --------------------------------------------------------------------------

TEST(TableTest, AsciiLayout) {
  Table t("Demo");
  t.SetHeader({"name", "value"});
  t.Row().Cell("alpha").Cell(std::int64_t{42});
  t.Row().Cell("beta").Cell(3.14159, 2);
  const std::string ascii = t.ToAscii();
  EXPECT_NE(ascii.find("alpha"), std::string::npos);
  EXPECT_NE(ascii.find("3.14"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TableTest, CsvEscaping) {
  Table t;
  t.SetHeader({"a", "b"});
  t.Row().Cell("x,y").Cell("say \"hi\"");
  const std::string csv = t.ToCsv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

// --------------------------------------------------------------------------
// Config
// --------------------------------------------------------------------------

TEST(ConfigTest, ParseArgs) {
  const char* argv[] = {"prog", "nodes=8", "scale=0.25", "rdma=true",
                        "name=comet"};
  auto result = Config::FromArgs(5, argv);
  ASSERT_TRUE(result.ok());
  const Config& c = result.value();
  EXPECT_EQ(c.GetInt("nodes", 0), 8);
  EXPECT_DOUBLE_EQ(c.GetDouble("scale", 0), 0.25);
  EXPECT_TRUE(c.GetBool("rdma", false));
  EXPECT_EQ(c.GetString("name", ""), "comet");
  EXPECT_EQ(c.GetInt("missing", 17), 17);
}

TEST(ConfigTest, RejectsMalformed) {
  const char* argv[] = {"prog", "oops"};
  auto result = Config::FromArgs(2, argv);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ConfigTest, RejectsFlagLikeKeys) {
  // A misspelt flag ("--trace" typed as "--trac") reaches the parser
  // because no flag stripper knows it; it must not become a key.
  for (const char* token : {"--trac=x.json", "-n=3", "--help", "-"}) {
    const char* argv[] = {"prog", "nodes=8", token};
    auto result = Config::FromArgs(3, argv);
    ASSERT_FALSE(result.ok()) << token;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().ToString().find(token), std::string::npos)
        << result.status().ToString();
  }
  // A '-' after the first character is an ordinary key or value byte.
  const char* argv[] = {"prog", "a-b=-1", "x=--y"};
  auto result = Config::FromArgs(3, argv);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->GetInt("a-b", 0), -1);
  EXPECT_EQ(result->GetString("x", ""), "--y");
}

TEST(ConfigTest, SeededArgvMutationsReturnAStatus) {
  // Random argv vectors built from a small alphabet rich in '=' and '-',
  // plus raw bytes: the parser either accepts them with the entries a
  // plain model expects or names the first bad token.
  const char kAlphabet[] = {'=', '-', '-', 'a', 'b', '1', '.', ' '};
  Rng rng(25);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::string> tokens(rng.Below(5));
    for (std::string& token : tokens) {
      for (auto n = rng.Below(8); n > 0; --n) {
        const auto pick = rng.Below(sizeof(kAlphabet) + 1);
        token += pick < sizeof(kAlphabet)
                     ? kAlphabet[pick]
                     : static_cast<char>(rng.Range(1, 255));
      }
    }
    std::vector<const char*> argv{"prog"};
    for (const std::string& token : tokens) argv.push_back(token.c_str());

    std::map<std::string, std::string> model;
    const std::string* bad = nullptr;
    for (const std::string& token : tokens) {
      const auto eq = token.find('=');
      if (token.empty() || token[0] == '-' || eq == std::string::npos ||
          eq == 0) {
        bad = &token;
        break;
      }
      model[token.substr(0, eq)] = token.substr(eq + 1);
    }

    auto result = Config::FromArgs(static_cast<int>(argv.size()), argv.data());
    if (bad == nullptr) {
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->entries(), model);
      for (const auto& [key, value] : model) {
        (void)result->GetInt(key, 0);
        (void)result->GetDouble(key, 0.0);
        (void)result->GetBool(key, false);
      }
    } else {
      ASSERT_FALSE(result.ok()) << "accepted '" << *bad << "'";
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(result.status().ToString().find(*bad), std::string::npos);
    }
  }
}

}  // namespace
}  // namespace pstk
