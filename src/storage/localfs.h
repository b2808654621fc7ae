// Simulated per-node local filesystem (the "scratch" filesystem in the
// paper's experiments). Files hold real bytes; I/O time is charged against
// the node's Disk using *modeled* sizes: actual bytes divided by the run's
// data-scale factor, so an 80 MiB staged file can stand in for an 80 GB one
// while every byte is still really read and processed.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "buf/bytes.h"
#include "common/status.h"
#include "common/units.h"
#include "sim/engine.h"
#include "storage/disk.h"

namespace pstk::storage {

class LocalFs {
 public:
  /// `data_scale` in (0, 1]: modeled bytes = actual bytes / data_scale.
  LocalFs(std::shared_ptr<Disk> disk, double data_scale = 1.0);

  /// Stage a file instantaneously (no simulated I/O) — used to pre-load
  /// benchmark inputs that "were already on disk" before the job starts.
  /// Nodes staging the same input can share one `content` (no copy).
  void Install(const std::string& path, buf::Bytes content);
  void Install(const std::string& path, std::string content);

  /// Create/overwrite a file, charging write time on the node's disk.
  Status Write(sim::Context& ctx, const std::string& path,
               std::string_view content);
  /// Append, charging write time for the appended bytes only.
  Status Append(sim::Context& ctx, const std::string& path,
                std::string_view content);

  /// Read `length` actual bytes at `offset`, charging read time. A length
  /// past EOF is truncated (like pread). The result aliases the stored
  /// file (a refcount bump, no payload copy) and stays valid across later
  /// writes/deletes of the path.
  Result<buf::Bytes> ReadBytes(sim::Context& ctx, const std::string& path,
                               Bytes offset, Bytes length);
  /// Read exactly the whole lines *starting* inside [offset, offset+length)
  /// (Hadoop LineRecordReader semantics): skip the line crossing the lower
  /// boundary, extend through the line crossing the upper one. Ranges that
  /// tile the file yield each line once. Charges read time for the bytes
  /// returned, which alias the stored file.
  Result<buf::Bytes> ReadLines(sim::Context& ctx, const std::string& path,
                               Bytes offset, Bytes length);
  /// Materializing convenience wrappers over ReadBytes (one counted copy).
  Result<std::string> Read(sim::Context& ctx, const std::string& path,
                           Bytes offset, Bytes length);
  Result<std::string> ReadAll(sim::Context& ctx, const std::string& path);

  [[nodiscard]] bool Exists(const std::string& path) const;
  /// Actual stored size in bytes.
  [[nodiscard]] Result<Bytes> Size(const std::string& path) const;
  /// Modeled (scaled-up) size used by cost models and 2 GB-limit checks.
  [[nodiscard]] Result<Bytes> ModeledSize(const std::string& path) const;
  Status Delete(const std::string& path);
  [[nodiscard]] std::vector<std::string> List(const std::string& prefix) const;

  [[nodiscard]] Disk& disk() { return *disk_; }
  [[nodiscard]] double data_scale() const { return data_scale_; }
  /// Convert actual to modeled bytes under this filesystem's scale.
  [[nodiscard]] Bytes Modeled(Bytes actual) const {
    return static_cast<Bytes>(static_cast<double>(actual) / data_scale_);
  }

 private:
  std::shared_ptr<Disk> disk_;
  double data_scale_;
  /// Each file is one immutable chunk; writes replace the chunk, so
  /// outstanding read aliases keep seeing the bytes they were given.
  std::map<std::string, buf::Bytes> files_;
};

}  // namespace pstk::storage
