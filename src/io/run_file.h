#ifndef PREGELIX_IO_RUN_FILE_H_
#define PREGELIX_IO_RUN_FILE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/metrics.h"
#include "common/slice.h"
#include "common/status.h"
#include "io/file.h"

namespace pregelix {

/// Byte range [begin, end) of whole blocks in a run file. A spilling grouper
/// appends all its runs to one file and reads each back by its extent.
struct RunExtent {
  uint64_t begin = 0;
  uint64_t end = 0;
};

/// Sequential file of length-prefixed blocks (dataflow frames).
///
/// Run files back everything that is "temporary local data" in the paper:
/// sort runs, the per-partition Msg relation, and sender-side materialized
/// connector channels. Blocks are typically whole frames. All I/O is
/// synchronous (DESIGN.md §19 records why).
///
/// Errors are sticky: after a failed append or flush every later call
/// returns that same status, so a torn block is never followed by more.
class RunFileWriter {
 public:
  static Status Open(const std::string& path, WorkerMetrics* metrics,
                     std::unique_ptr<RunFileWriter>* out);

  Status AppendBlock(const Slice& block);
  /// Hands buffered blocks to the kernel so a reader sees them.
  Status Flush();
  Status Finish();

  uint64_t num_blocks() const { return num_blocks_; }
  /// Bytes appended, headers included: the offset of the next block.
  uint64_t bytes_written() const { return bytes_appended_; }
  const std::string& path() const { return file_->path(); }

 private:
  explicit RunFileWriter(std::unique_ptr<WritableFile> file)
      : file_(std::move(file)) {}

  std::unique_ptr<WritableFile> file_;
  Status status_;
  uint64_t num_blocks_ = 0;
  uint64_t bytes_appended_ = 0;
};

/// Sequential reader over a run file, or over one extent of it.
class RunFileReader {
 public:
  /// Opens `path` read-only and reads `extent`, clipped to the file's size
  /// (by default, all of it). A missing file is an error; nothing is
  /// created.
  static Status Open(const std::string& path, WorkerMetrics* metrics,
                     std::unique_ptr<RunFileReader>* out,
                     RunExtent extent = {0, UINT64_MAX});

  /// Reads `extent` of a file opened by the caller, clipped to its size.
  /// `file` must outlive the reader; the readers of one merge pass share
  /// one descriptor this way.
  RunFileReader(const RandomAccessFile* file, RunExtent extent);

  /// Reads the next block into *out (resized). Returns NotFound at the end
  /// and Corruption when a header claims more bytes than the extent holds.
  Status NextBlock(std::string* out);

  /// Restarts from the beginning.
  void Reset() { offset_ = extent_.begin; }

  bool AtEnd() const { return offset_ >= extent_.end; }

 private:
  std::unique_ptr<RandomAccessFile> owned_;  ///< null for a shared file
  const RandomAccessFile* file_;
  RunExtent extent_;
  uint64_t offset_;
};

}  // namespace pregelix

#endif  // PREGELIX_IO_RUN_FILE_H_
