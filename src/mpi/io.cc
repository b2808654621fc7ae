#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "mpi/mpi.h"

namespace pstk::mpi {

namespace {

// MPI_File_read_at_all takes its count of MPI_BYTE elements as a C `int`:
// more than INT_MAX bytes per rank cannot be expressed in one collective
// read. This is the root cause of the paper's AnswersCount failures below
// ~40 MPI processes (§V-C, Fig. 4).
constexpr std::int64_t kMaxIoCount = std::numeric_limits<std::int32_t>::max();

Status CountOverflow(Comm& comm, std::int64_t count, const char* callsite,
                     const std::string& path) {
  comm.ctx().engine().verify().OnMpiIoCountOverflow(comm.rank(), count,
                                                    callsite, path,
                                                    comm.ctx().now());
  return OutOfRange(std::string("MPI-IO: ") + callsite + ": count " +
                    std::to_string(count) +
                    " exceeds INT_MAX (2147483647) MPI_BYTE elements; a "
                    "collective read cannot move more than 2 GB per rank");
}

}  // namespace

Result<File> File::OpenAll(Comm& comm, const std::string& path) {
  comm.Barrier();  // collective open synchronizes the job
  storage::LocalFs& fs = comm.cluster().scratch(comm.node());
  auto actual = fs.Size(path);
  if (!actual.ok()) {
    return NotFound("MPI-IO: no local replica of " + path + " on node " +
                    std::to_string(comm.node()));
  }
  auto modeled = fs.ModeledSize(path);
  if (!modeled.ok()) return modeled.status();
  return File(path, modeled.value(), actual.value());
}

Result<std::string> File::ReadRange(Comm& comm, Bytes modeled_offset,
                                    std::int64_t count) {
  if (count < 0) return InvalidArgument("MPI-IO: negative count");
  if (count > kMaxIoCount) {
    return CountOverflow(comm, count, "MPI_File_read_at", path_);
  }
  if (modeled_offset > modeled_size_) {
    return OutOfRange("MPI-IO: offset past EOF");
  }
  const Bytes modeled_len = std::min<Bytes>(
      static_cast<Bytes>(count), modeled_size_ - modeled_offset);

  // Map the logical range onto the scaled-down staged bytes.
  const double scale = static_cast<double>(actual_size_) /
                       static_cast<double>(std::max<Bytes>(1, modeled_size_));
  const auto actual_begin = static_cast<Bytes>(
      std::llround(static_cast<double>(modeled_offset) * scale));
  const auto actual_end = static_cast<Bytes>(std::llround(
      static_cast<double>(modeled_offset + modeled_len) * scale));

  storage::LocalFs& fs = comm.cluster().scratch(comm.node());
  const Bytes clamped_begin = std::min<Bytes>(actual_begin, actual_size_);
  const Bytes length =
      std::min<Bytes>(actual_end, actual_size_) - clamped_begin;
  return fs.Read(comm.ctx(), path_, clamped_begin, length);
}

Result<std::string> File::ReadAt(Comm& comm, Bytes modeled_offset,
                                 std::int64_t count) {
  return ReadRange(comm, modeled_offset, count);
}

Result<std::string> File::ReadLinesAtAll(Comm& comm, Bytes modeled_offset,
                                         std::int64_t count) {
  if (count < 0) return InvalidArgument("MPI-IO: negative count");
  // The count check must precede the barrier: when every rank's chunk
  // overflows they all bail out symmetrically instead of deadlocking.
  if (count > kMaxIoCount) {
    return CountOverflow(comm, count, "MPI_File_read_at_all", path_);
  }
  if (modeled_offset > modeled_size_) {
    return OutOfRange("MPI-IO: offset past EOF");
  }
  comm.Barrier();
  const Bytes modeled_len = std::min<Bytes>(
      static_cast<Bytes>(count), modeled_size_ - modeled_offset);

  const double scale = static_cast<double>(actual_size_) /
                       static_cast<double>(std::max<Bytes>(1, modeled_size_));
  const auto a_begin = static_cast<std::size_t>(
      std::llround(static_cast<double>(modeled_offset) * scale));
  const auto a_end = static_cast<std::size_t>(std::llround(
      static_cast<double>(modeled_offset + modeled_len) * scale));

  // A chunk owns the lines that *start* inside it.
  storage::LocalFs& fs = comm.cluster().scratch(comm.node());
  if (!fs.Exists(path_)) return NotFound("MPI-IO: lost replica of " + path_);
  auto lines = fs.ReadLines(comm.ctx(), path_, a_begin, a_end - a_begin);
  comm.Barrier();
  if (!lines.ok()) return lines.status();
  return lines.value().ToString();
}

Result<std::string> File::ReadAtAll(Comm& comm, Bytes modeled_offset,
                                    std::int64_t count) {
  if (count < 0) return InvalidArgument("MPI-IO: negative count");
  if (count > kMaxIoCount) {
    return CountOverflow(comm, count, "MPI_File_read_at_all", path_);
  }
  // Collective read: two-phase style exchange is not modeled, but the call
  // synchronizes like MPI_File_read_at_all on a shared handle.
  comm.Barrier();
  auto data = ReadRange(comm, modeled_offset, count);
  comm.Barrier();
  return data;
}

}  // namespace pstk::mpi
