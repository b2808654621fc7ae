#include "obs/obs.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "net/fabric.h"
#include "net/network.h"
#include "sim/engine.h"

namespace pstk::obs {
namespace {

TEST(RegistryTest, InternIsStableAndIdempotent) {
  Registry reg;
  const TagId a = reg.Intern("alpha");
  const TagId b = reg.Intern("beta");
  EXPECT_NE(a, kNoTag);
  EXPECT_NE(b, kNoTag);
  EXPECT_NE(a, b);
  EXPECT_EQ(reg.Intern("alpha"), a);
  EXPECT_EQ(reg.Name(a), "alpha");
  EXPECT_EQ(reg.Name(kNoTag), "");
}

TEST(RegistryTest, CountersAccumulateWhileDisabled) {
  Registry reg;
  const TagId tag = reg.Intern("ops");
  ASSERT_FALSE(reg.enabled());
  reg.Add(tag);
  reg.Add(tag, 41);
  EXPECT_EQ(reg.counter(tag), 42u);
  EXPECT_EQ(reg.CounterByName("ops"), 42u);
  EXPECT_EQ(reg.CounterByName("missing"), 0u);
  // Histograms and events are gated on enabled().
  reg.Observe(tag, 1.0);
  reg.BeginSpan(0, 0, tag, 0.0);
  reg.EndSpan(0, 0, tag, 1.0);
  EXPECT_EQ(reg.histogram(tag), nullptr);
  EXPECT_TRUE(reg.events().empty());
}

TEST(RegistryTest, HistogramStats) {
  Registry reg;
  reg.Enable(true);
  const TagId tag = reg.Intern("latency");
  reg.Observe(tag, 1.0);
  reg.Observe(tag, 2.0);
  reg.Observe(tag, 4.0);
  const Histogram* h = reg.histogram(tag);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 3u);
  EXPECT_DOUBLE_EQ(h->sum(), 7.0);
  EXPECT_DOUBLE_EQ(h->min(), 1.0);
  EXPECT_DOUBLE_EQ(h->max(), 4.0);
  EXPECT_NEAR(h->mean(), 7.0 / 3.0, 1e-12);
}

TEST(RegistryTest, ChromeTraceJsonShape) {
  Registry reg;
  reg.Enable(true);
  const TagId task = reg.Intern("task");
  const TagId mark = reg.Intern("mark");
  reg.SetTrackName(0, 1, "worker");
  reg.BeginSpan(0, 1, task, 0.5);
  reg.Instant(0, 1, mark, 1.0, reg.Intern("de\"tail"));
  reg.EndSpan(0, 1, task, 1.5);
  const std::string json = reg.ToChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"worker\""), std::string::npos);
  // µs timestamps: 1.5 s -> 1500000.000.
  EXPECT_NE(json.find("\"ts\":1500000.000"), std::string::npos);
  // The detail string is JSON-escaped.
  EXPECT_NE(json.find("de\\\"tail"), std::string::npos);
}

TEST(RegistryTest, AppendWithPidOffsetMergesRuns) {
  Registry reg;
  reg.Enable(true);
  const TagId task = reg.Intern("task");
  reg.SetTrackName(2, 0, "worker");
  reg.BeginSpan(2, 0, task, 0.0);
  reg.EndSpan(2, 0, task, 1.0);
  std::string merged;
  reg.AppendChromeTraceEvents(&merged, 0, "run0 / ");
  reg.AppendChromeTraceEvents(&merged, 1000, "run1 / ");
  EXPECT_NE(merged.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(merged.find("\"pid\":1002"), std::string::npos);
  EXPECT_NE(merged.find("run1 / node 2"), std::string::npos);
}

TEST(RegistryTest, MetricsTableListsCountersAndHistograms) {
  Registry reg;
  reg.Enable(true);
  reg.Add(reg.Intern("zeta.count"), 3);
  reg.Observe(reg.Intern("alpha.latency"), 2.0);
  reg.Intern("never.touched");
  Table table = reg.MetricsTable("run");
  ASSERT_EQ(table.row_count(), 2u);
  // Sorted by metric name; untouched tags are filtered out.
  EXPECT_EQ(table.rows()[0][0], "alpha.latency");
  EXPECT_EQ(table.rows()[1][0], "zeta.count");
}

TEST(HistogramTest, MergeCombinesExactly) {
  Histogram a;
  a.Record(1.0);
  a.Record(8.0);
  Histogram b;
  b.Record(0.25);
  b.Record(64.0);
  b.Record(2.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 5u);
  EXPECT_DOUBLE_EQ(a.sum(), 75.25);
  EXPECT_DOUBLE_EQ(a.min(), 0.25);
  EXPECT_DOUBLE_EQ(a.max(), 64.0);
  std::uint64_t bucket_total = 0;
  for (const auto c : a.buckets()) bucket_total += c;
  EXPECT_EQ(bucket_total, 5u);
  // Merging an empty histogram changes nothing.
  a.Merge(Histogram{});
  EXPECT_EQ(a.count(), 5u);
  EXPECT_DOUBLE_EQ(a.min(), 0.25);
}

TEST(ObsIntegrationTest, EngineAndNetworkTraceIsDeterministic) {
  auto run_once = [] {
    sim::Engine engine(123);
    engine.EnableTrace(true);
    auto fabric =
        std::make_shared<net::Fabric>(4, net::TransportParams::RdmaFdr());
    fabric->AttachObs(&engine.obs());
    net::Network network(engine, fabric);
    for (int i = 0; i < 4; ++i) {
      network.CreateEndpoint(i, i);
    }
    for (int i = 0; i < 4; ++i) {
      engine.Spawn("peer" + std::to_string(i), [&, i](sim::Context& ctx) {
        ctx.Compute(ctx.rng().Uniform(0.0, 0.1));
        if (i % 2 == 0) {
          const std::string text = "payload-" + std::to_string(i);
          network.endpoint(i).Send(
              ctx, i + 1, /*tag=*/0,
              buf::Bytes::FromVector(
                  std::vector<std::uint8_t>(text.begin(), text.end())));
        } else {
          (void)network.endpoint(i).Recv(ctx);
        }
      });
    }
    EXPECT_TRUE(engine.Run().status.ok());
    return std::pair(engine.obs().ToChromeTraceJson(),
                     engine.obs().CounterByName("sim.dispatches"));
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_GT(a.second, 0u);
}

}  // namespace
}  // namespace pstk::obs
