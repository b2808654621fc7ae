#include "storage/localfs.h"

#include <algorithm>

#include "common/check.h"

namespace pstk::storage {

LocalFs::LocalFs(std::shared_ptr<Disk> disk, double data_scale)
    : disk_(std::move(disk)), data_scale_(data_scale) {
  PSTK_CHECK(disk_ != nullptr);
  PSTK_CHECK_MSG(data_scale_ > 0 && data_scale_ <= 1.0,
                 "data_scale must be in (0, 1], got " << data_scale_);
}

void LocalFs::Install(const std::string& path, buf::Bytes content) {
  files_[path] = std::move(content);
}

void LocalFs::Install(const std::string& path, std::string content) {
  Install(path, buf::Bytes::FromString(std::move(content)));
}

Status LocalFs::Write(sim::Context& ctx, const std::string& path,
                      std::string_view content) {
  if (disk_->failed()) return Unavailable("disk failed: " + path);
  const SimTime done = disk_->Write(Modeled(content.size()), ctx.now());
  ctx.SleepUntil(done);
  files_[path] = buf::Bytes::Copy(content);
  return OkStatus();
}

Status LocalFs::Append(sim::Context& ctx, const std::string& path,
                       std::string_view content) {
  if (disk_->failed()) return Unavailable("disk failed: " + path);
  const SimTime done = disk_->Write(Modeled(content.size()), ctx.now());
  ctx.SleepUntil(done);
  // Copy-on-append into a fresh chunk: outstanding aliases of the old
  // version stay stable.
  auto it = files_.find(path);
  std::string grown =
      it == files_.end() ? std::string() : it->second.ToString();
  grown.append(content.data(), content.size());
  files_[path] = buf::Bytes::FromString(std::move(grown));
  return OkStatus();
}

Result<buf::Bytes> LocalFs::ReadBytes(sim::Context& ctx,
                                      const std::string& path, Bytes offset,
                                      Bytes length) {
  if (disk_->failed()) return Unavailable("disk failed: " + path);
  auto it = files_.find(path);
  if (it == files_.end()) return NotFound("no such file: " + path);
  const buf::Bytes& data = it->second;
  if (offset > data.size()) return OutOfRange("read past EOF: " + path);
  const Bytes available = data.size() - offset;
  const Bytes n = std::min(length, available);
  const SimTime done = disk_->Read(Modeled(n), ctx.now());
  ctx.SleepUntil(done);
  return data.Slice(offset, n);
}

Result<buf::Bytes> LocalFs::ReadLines(sim::Context& ctx,
                                      const std::string& path, Bytes offset,
                                      Bytes length) {
  auto it = files_.find(path);
  if (it == files_.end()) return NotFound("no such file: " + path);
  const std::string_view content = it->second.view();
  std::size_t begin = std::min<std::size_t>(offset, content.size());
  std::size_t end = std::min<std::size_t>(offset + length, content.size());
  if (begin > 0 && content[begin - 1] != '\n') {
    const auto nl = content.find('\n', begin);
    begin = nl == std::string_view::npos ? content.size() : nl + 1;
  }
  if (end > 0 && end < content.size() && content[end - 1] != '\n') {
    const auto nl = content.find('\n', end);
    end = nl == std::string_view::npos ? content.size() : nl + 1;
  }
  if (end < begin) end = begin;
  return ReadBytes(ctx, path, begin, end - begin);
}

Result<std::string> LocalFs::Read(sim::Context& ctx, const std::string& path,
                                  Bytes offset, Bytes length) {
  auto bytes = ReadBytes(ctx, path, offset, length);
  if (!bytes.ok()) return bytes.status();
  return bytes.value().ToString();
}

Result<std::string> LocalFs::ReadAll(sim::Context& ctx,
                                     const std::string& path) {
  auto size = Size(path);
  if (!size.ok()) return size.status();
  return Read(ctx, path, 0, size.value());
}

bool LocalFs::Exists(const std::string& path) const {
  return files_.count(path) > 0;
}

Result<Bytes> LocalFs::Size(const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end()) return NotFound("no such file: " + path);
  return Bytes{it->second.size()};
}

Result<Bytes> LocalFs::ModeledSize(const std::string& path) const {
  auto size = Size(path);
  if (!size.ok()) return size.status();
  return Modeled(size.value());
}

Status LocalFs::Delete(const std::string& path) {
  if (files_.erase(path) == 0) return NotFound("no such file: " + path);
  return OkStatus();
}

std::vector<std::string> LocalFs::List(const std::string& prefix) const {
  std::vector<std::string> out;
  for (const auto& [path, content] : files_) {
    if (path.compare(0, prefix.size(), prefix) == 0) out.push_back(path);
  }
  return out;
}

}  // namespace pstk::storage
