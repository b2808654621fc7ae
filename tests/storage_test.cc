#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "buf/bytes.h"
#include "sim/engine.h"
#include "storage/disk.h"
#include "storage/localfs.h"

namespace pstk::storage {
namespace {

// --------------------------------------------------------------------------
// Disk
// --------------------------------------------------------------------------

TEST(DiskTest, ReadTimeMatchesBandwidth) {
  Disk disk(DiskParams::CometScratchSsd());
  const Bytes size = kGiB;
  const SimTime done = disk.Read(size, 0.0);
  const double expected = static_cast<double>(size) / MBps(980);
  EXPECT_NEAR(done, expected, expected * 0.01);
}

TEST(DiskTest, WritesSlowerThanReads) {
  Disk disk(DiskParams::CometScratchSsd());
  const SimTime r = disk.Read(kGiB, 0.0);
  Disk disk2(DiskParams::CometScratchSsd());
  const SimTime w = disk2.Write(kGiB, 0.0);
  EXPECT_GT(w, r);
}

TEST(DiskTest, SequentialOpsQueue) {
  Disk disk(DiskParams::CometScratchSsd());
  const SimTime first = disk.Read(100 * kMiB, 0.0);
  const SimTime second = disk.Read(100 * kMiB, 0.0);
  EXPECT_NEAR(second, 2 * first, first * 0.01);
}

TEST(DiskTest, ContentionDegradesPastThreshold) {
  DiskParams params = DiskParams::CometScratchSsd();
  params.contention_threshold = 2;
  params.contention_penalty = 0.5;
  Disk contended(params);
  // Far more overlapping readers than the threshold.
  SimTime last_contended = 0;
  for (int i = 0; i < 8; ++i) last_contended = contended.Read(64 * kMiB, 0.0);

  params.contention_threshold = 100;  // effectively off
  Disk uncontended(params);
  SimTime last_clean = 0;
  for (int i = 0; i < 8; ++i) last_clean = uncontended.Read(64 * kMiB, 0.0);

  EXPECT_GT(last_contended, last_clean * 1.5);
}

TEST(DiskTest, TracksTraffic) {
  Disk disk(DiskParams::CometScratchSsd());
  disk.Read(100, 0.0);
  disk.Write(200, 0.0);
  EXPECT_EQ(disk.bytes_read(), 100u);
  EXPECT_EQ(disk.bytes_written(), 200u);
  EXPECT_GT(disk.busy_time(), 0.0);
}

TEST(DiskDeathTest, FailedDiskRejectsIo) {
  Disk disk(DiskParams::CometScratchSsd());
  disk.set_failed(true);
  EXPECT_TRUE(disk.failed());
  EXPECT_DEATH(disk.Read(1, 0.0), "failed disk");
}

// --------------------------------------------------------------------------
// LocalFs
// --------------------------------------------------------------------------

struct FsFixture {
  sim::Engine engine;
  std::shared_ptr<Disk> disk =
      std::make_shared<Disk>(DiskParams::CometScratchSsd());
  LocalFs fs{disk, 1.0};
};

TEST(LocalFsTest, WriteReadRoundTrip) {
  FsFixture f;
  std::string got;
  f.engine.Spawn("io", [&](sim::Context& ctx) {
    ASSERT_TRUE(f.fs.Write(ctx, "/scratch/a.txt", "content").ok());
    auto r = f.fs.ReadAll(ctx, "/scratch/a.txt");
    ASSERT_TRUE(r.ok());
    got = r.value();
  });
  ASSERT_TRUE(f.engine.Run().status.ok());
  EXPECT_EQ(got, "content");
}

TEST(LocalFsTest, ReadChargesSimTime) {
  FsFixture f;
  SimTime elapsed = 0;
  f.fs.Install("/data/big", std::string(64 * kMiB, 'x'));
  f.engine.Spawn("io", [&](sim::Context& ctx) {
    auto r = f.fs.ReadAll(ctx, "/data/big");
    ASSERT_TRUE(r.ok());
    elapsed = ctx.now();
  });
  ASSERT_TRUE(f.engine.Run().status.ok());
  const double expected = static_cast<double>(64 * kMiB) / MBps(980);
  EXPECT_NEAR(elapsed, expected, expected * 0.05);
}

TEST(LocalFsTest, DataScaleInflatesCharge) {
  sim::Engine engine;
  auto disk = std::make_shared<Disk>(DiskParams::CometScratchSsd());
  LocalFs fs(disk, /*data_scale=*/0.01);  // 1 actual byte = 100 modeled
  fs.Install("/data/small", std::string(kMiB, 'x'));
  SimTime elapsed = 0;
  engine.Spawn("io", [&](sim::Context& ctx) {
    ASSERT_TRUE(fs.ReadAll(ctx, "/data/small").ok());
    elapsed = ctx.now();
  });
  ASSERT_TRUE(engine.Run().status.ok());
  const double expected = static_cast<double>(100 * kMiB) / MBps(980);
  EXPECT_NEAR(elapsed, expected, expected * 0.05);
  EXPECT_EQ(fs.ModeledSize("/data/small").value(), 100 * kMiB);
}

TEST(LocalFsTest, PartialReadsAndEof) {
  FsFixture f;
  f.fs.Install("/f", "0123456789");
  f.engine.Spawn("io", [&](sim::Context& ctx) {
    auto mid = f.fs.Read(ctx, "/f", 2, 3);
    ASSERT_TRUE(mid.ok());
    EXPECT_EQ(mid.value(), "234");
    auto tail = f.fs.Read(ctx, "/f", 8, 100);  // truncated at EOF
    ASSERT_TRUE(tail.ok());
    EXPECT_EQ(tail.value(), "89");
    auto past = f.fs.Read(ctx, "/f", 11, 1);
    EXPECT_FALSE(past.ok());
    EXPECT_EQ(past.status().code(), StatusCode::kOutOfRange);
  });
  ASSERT_TRUE(f.engine.Run().status.ok());
}

TEST(LocalFsTest, NodesShareInstalledBytes) {
  FsFixture f;
  LocalFs other(std::make_shared<Disk>(DiskParams::CometScratchSsd()), 1.0);
  const buf::Bytes staged = buf::Bytes::Copy("shared input");
  const std::uint64_t copies = buf::SnapshotStats().copies;
  f.fs.Install("/in", staged);
  other.Install("/in", staged);
  EXPECT_EQ(buf::SnapshotStats().copies, copies);
  f.engine.Spawn("io", [&](sim::Context& ctx) {
    auto mine = f.fs.ReadBytes(ctx, "/in", 0, 100);
    auto theirs = other.ReadBytes(ctx, "/in", 0, 100);
    ASSERT_TRUE(mine.ok() && theirs.ok());
    EXPECT_EQ(mine.value().data(), staged.data());
    EXPECT_EQ(theirs.value().data(), staged.data());
    // A write replaces one node's file, not the shared bytes.
    ASSERT_TRUE(f.fs.Write(ctx, "/in", "changed").ok());
    auto after = other.ReadBytes(ctx, "/in", 0, 100);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after.value(), std::string_view("shared input"));
  });
  ASSERT_TRUE(f.engine.Run().status.ok());
}

TEST(LocalFsTest, AppendGrowsFile) {
  FsFixture f;
  f.engine.Spawn("io", [&](sim::Context& ctx) {
    ASSERT_TRUE(f.fs.Write(ctx, "/log", "a").ok());
    ASSERT_TRUE(f.fs.Append(ctx, "/log", "b").ok());
    ASSERT_TRUE(f.fs.Append(ctx, "/log", "c").ok());
    auto r = f.fs.ReadAll(ctx, "/log");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), "abc");
  });
  ASSERT_TRUE(f.engine.Run().status.ok());
}

TEST(LocalFsTest, MissingFileIsNotFound) {
  FsFixture f;
  f.engine.Spawn("io", [&](sim::Context& ctx) {
    auto r = f.fs.ReadAll(ctx, "/nope");
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  });
  ASSERT_TRUE(f.engine.Run().status.ok());
  EXPECT_FALSE(f.fs.Exists("/nope"));
  EXPECT_FALSE(f.fs.Size("/nope").ok());
  EXPECT_FALSE(f.fs.Delete("/nope").ok());
}

TEST(LocalFsTest, ListByPrefix) {
  FsFixture f;
  f.fs.Install("/a/1", "");
  f.fs.Install("/a/2", "");
  f.fs.Install("/b/1", "");
  EXPECT_EQ(f.fs.List("/a/").size(), 2u);
  EXPECT_EQ(f.fs.List("/").size(), 3u);
  EXPECT_TRUE(f.fs.List("/c").empty());
}

TEST(LocalFsTest, FailedDiskSurfacesUnavailable) {
  FsFixture f;
  f.fs.Install("/f", "data");
  f.disk->set_failed(true);
  f.engine.Spawn("io", [&](sim::Context& ctx) {
    auto r = f.fs.ReadAll(ctx, "/f");
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
    EXPECT_FALSE(f.fs.Write(ctx, "/g", "x").ok());
  });
  ASSERT_TRUE(f.engine.Run().status.ok());
}

}  // namespace
}  // namespace pstk::storage
