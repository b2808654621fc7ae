// Data-plane bytes-copied microbenchmark (the tentpole measurement for
// the zero-copy buffer plane): drives a read -> shuffle -> cache chain
// over real MiniDFS blocks twice — once on the refcounted zero-copy plane
// (buf::Bytes aliases at every handoff) and once with the deep-copy
// handoffs of the legacy plane it replaced (value-semantics std::string /
// serde::Buffer at each hop) — and reports host bytes actually copied per
// chain from buf::SnapshotStats().
//
// One chain is one DFS block's journey: block read, bucketing into R
// shuffle slices, commit, reduce-side fetch of each bucket, and a cache
// store of the reduce partition as the fetched buckets, checksummed bucket
// by bucket (consumed, never joined). The legacy mode performs the same
// chain but materializes a fresh buffer at the hops where the old plane
// copied: the block read, each bucket cut, each fetch, the join of the
// fetched buckets into one partition buffer, and the cache store. Both
// modes must produce identical checksums — the bench CHECK-fails
// otherwise.
//
// Flags:
//   --smoke            small sizes, for ctest
//   --legacy-copy      run only the legacy plane (for profiling it alone)
//   --out=<file>       write machine-readable results (BENCH_dataplane.json)
//   --baseline=<file>  compare the copy-reduction ratio against a
//                      checked-in BENCH_dataplane.baseline.json and exit
//                      nonzero when it drops below min_copy_reduction
//                      (CI gate)
// plus the shared bench flags (--trace=, --metrics, see bench_opts.h).
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_opts.h"
#include "buf/bytes.h"
#include "cluster/cluster.h"
#include "common/check.h"
#include "dfs/dfs.h"
#include "sim/engine.h"

namespace {

using pstk::Bytes;
using pstk::buf::StatsSnapshot;

struct ChainConfig {
  int nodes = 4;
  std::size_t blocks = 32;        // map partitions (one chain per block)
  std::size_t block_bytes = 1 << 20;
  std::size_t reducers = 16;
};

struct ChainResult {
  std::uint64_t copy_bytes = 0;   // host bytes deep-copied by the plane
  std::uint64_t copies = 0;       // deep-copy events
  std::uint64_t aliases = 0;      // zero-copy spans minted
  std::uint64_t checksum = 0;     // consumption proof, mode-independent
  double elapsed_sim = 0;         // simulated seconds (must match per mode)
};

// The handoff primitive under test: the zero-copy plane passes the buffer
// through (a refcount bump at most); the legacy plane materializes a fresh
// allocation, exactly what value-semantics buffers did at every hop.
pstk::buf::Bytes Handoff(const pstk::buf::Bytes& b, bool legacy) {
  return legacy ? pstk::buf::Bytes::Copy(b.view()) : b;
}

ChainResult RunChain(const ChainConfig& config, bool legacy) {
  pstk::sim::Engine engine;
  pstk::cluster::Cluster cluster(
      engine, pstk::cluster::ClusterSpec::Comet(config.nodes));
  pstk::dfs::DfsOptions dfs_opts;
  dfs_opts.block_size = config.block_bytes;  // one chain per block
  pstk::dfs::MiniDfs dfs(cluster, dfs_opts);
  pstk::bench::Observability::Instance().Attach(engine);

  // Stage the input: blocks are deterministic patterned text so the two
  // modes can be checksum-compared.
  std::string content;
  content.reserve(config.blocks * config.block_bytes);
  for (std::size_t b = 0; b < config.blocks; ++b) {
    for (std::size_t i = 0; i < config.block_bytes; ++i) {
      content.push_back(static_cast<char>('a' + (b * 31 + i * 7) % 26));
    }
  }
  PSTK_CHECK(dfs.Install("/bench/input",
                         pstk::buf::Bytes::FromString(std::move(content)))
                 .ok());

  const StatsSnapshot before = pstk::buf::SnapshotStats();
  ChainResult out;

  engine.Spawn("dataplane", [&](pstk::sim::Context& ctx) {
    const auto t0 = ctx.now();
    const std::size_t R = config.reducers;
    // Shuffle store: buckets[map][reduce].
    std::vector<std::vector<pstk::buf::Bytes>> store(config.blocks);

    // Map side: read each block, cut it into R bucket ranges, commit.
    for (std::size_t m = 0; m < config.blocks; ++m) {
      auto block = dfs.ReadBlock(ctx, static_cast<int>(m) % config.nodes,
                                 "/bench/input", m);
      PSTK_CHECK_MSG(block.ok(), block.status().ToString());
      const pstk::buf::Bytes data = Handoff(block.value(), legacy);
      const std::size_t per = data.size() / R;
      store[m].reserve(R);
      for (std::size_t r = 0; r < R; ++r) {
        const std::size_t off = r * per;
        const std::size_t len = r + 1 == R ? data.size() - off : per;
        store[m].push_back(Handoff(data.Slice(off, len), legacy));
      }
    }

    // Reduce side: fetch bucket r of every map output, cache the reduce
    // partition, and consume it bucket by bucket.
    std::vector<std::vector<pstk::buf::Bytes>> cache;
    cache.reserve(R);
    std::uint64_t checksum = 0;
    for (std::size_t r = 0; r < R; ++r) {
      std::vector<pstk::buf::Bytes> fetched;
      fetched.reserve(config.blocks);
      for (std::size_t m = 0; m < config.blocks; ++m) {
        fetched.push_back(Handoff(store[m][r], legacy));
      }
      // The legacy plane joined the buckets into one partition buffer.
      if (legacy) {
        fetched = {Handoff(pstk::buf::Bytes::Concat(fetched), legacy)};
      }
      cache.push_back(std::move(fetched));
      for (const pstk::buf::Bytes& bucket : cache.back()) {
        for (const char c : bucket.view()) {
          checksum = checksum * 1099511628211ULL + static_cast<unsigned char>(c);
        }
      }
    }
    out.checksum = checksum;
    out.elapsed_sim = ctx.now() - t0;
  });
  const auto run = engine.Run();
  PSTK_CHECK_MSG(run.status.ok(), run.status.ToString());

  const StatsSnapshot after = pstk::buf::SnapshotStats();
  out.copy_bytes = after.copy_bytes - before.copy_bytes;
  out.copies = after.copies - before.copies;
  out.aliases = after.chunks_aliased - before.chunks_aliased;
  pstk::bench::Observability::Instance().Collect(
      engine, std::string("dataplane ") + (legacy ? "legacy" : "zero-copy"));
  return out;
}

// Minimal extraction of `"key": <number>` from a flat JSON file — enough
// for the baseline format this bench itself writes, without a JSON dep.
double JsonNumber(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\"";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return 0;
  const std::size_t colon = text.find(':', at + needle.size());
  if (colon == std::string::npos) return 0;
  return std::strtod(text.c_str() + colon + 1, nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  pstk::bench::Observability::Instance().ParseFlags(&argc, argv);
  bool smoke = false;
  bool legacy_only = false;
  std::string out_path;
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--legacy-copy") {
      legacy_only = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(std::strlen("--out="));
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(std::strlen("--baseline="));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  ChainConfig config;
  if (smoke) {
    config.blocks = 8;
    config.block_bytes = 64 << 10;
    config.reducers = 4;
  }
  const double chain_bytes = static_cast<double>(config.block_bytes);

  std::printf("%-10s %10s %14s %16s %10s %12s\n", "plane", "chains",
              "copies", "copy_bytes", "aliases", "copy/chain");
  auto print_row = [&](const char* name, const ChainResult& r) {
    std::printf("%-10s %10zu %14" PRIu64 " %16" PRIu64 " %10" PRIu64
                " %12.0f\n",
                name, config.blocks, r.copies, r.copy_bytes, r.aliases,
                static_cast<double>(r.copy_bytes) /
                    static_cast<double>(config.blocks));
  };

  const ChainResult legacy = RunChain(config, /*legacy=*/true);
  print_row("legacy", legacy);
  ChainResult zero;
  if (!legacy_only) {
    zero = RunChain(config, /*legacy=*/false);
    print_row("zero-copy", zero);
    PSTK_CHECK_MSG(zero.checksum == legacy.checksum,
                   "planes disagree on data: zero-copy checksum "
                       << zero.checksum << " vs legacy " << legacy.checksum);
  }

  // The paper-facing number: bytes the host no longer copies per chain.
  // The zero-copy plane can be perfectly copy-free here, so the ratio is
  // computed against at least one byte.
  const double reduction =
      static_cast<double>(legacy.copy_bytes) /
      static_cast<double>(zero.copy_bytes > 0 ? zero.copy_bytes : 1);
  if (!legacy_only) {
    std::printf("bytes-copied reduction: %.1fx (legacy %.1f vs zero-copy "
                "%.1f bytes/chain over %.0f-byte blocks)\n",
                reduction,
                static_cast<double>(legacy.copy_bytes) /
                    static_cast<double>(config.blocks),
                static_cast<double>(zero.copy_bytes) /
                    static_cast<double>(config.blocks),
                chain_bytes);
  }

  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fprintf(
        f,
        "{\n  \"bench\": \"micro_dataplane\",\n  \"mode\": \"%s\",\n"
        "  \"blocks\": %zu,\n  \"block_bytes\": %zu,\n  \"reducers\": %zu,\n"
        "  \"legacy_copy_bytes\": %" PRIu64 ",\n"
        "  \"zero_copy_bytes\": %" PRIu64 ",\n"
        "  \"zero_copy_aliases\": %" PRIu64 ",\n"
        "  \"copy_reduction\": %.2f\n}\n",
        smoke ? "smoke" : "full", config.blocks, config.block_bytes,
        config.reducers, legacy.copy_bytes, zero.copy_bytes, zero.aliases,
        reduction);
    std::fclose(f);
  }

  // CI gate: the zero-copy plane must keep beating the legacy plane by
  // the checked-in factor (and must stay genuinely alias-based).
  if (!baseline_path.empty() && !legacy_only) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::fprintf(stderr, "cannot read baseline %s\n", baseline_path.c_str());
      return 1;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string baseline = ss.str();
    const double min_reduction = JsonNumber(baseline, "min_copy_reduction");
    std::printf("baseline min_copy_reduction: %.1f, got %.1fx\n",
                min_reduction, reduction);
    if (min_reduction > 0 && reduction < min_reduction) {
      std::fprintf(stderr,
                   "FAIL: copy reduction %.2fx below baseline %.2fx\n",
                   reduction, min_reduction);
      return 1;
    }
  }
  return pstk::bench::Observability::Instance().Finish() ? 0 : 1;
}
