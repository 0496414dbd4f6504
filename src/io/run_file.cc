#include "io/run_file.h"

#include <algorithm>
#include <utility>

#include "common/fault_injection.h"
#include "common/serde.h"

namespace pregelix {

Status RunFileWriter::Open(const std::string& path, WorkerMetrics* metrics,
                           std::unique_ptr<RunFileWriter>* out) {
  std::unique_ptr<WritableFile> file;
  PREGELIX_RETURN_NOT_OK(WritableFile::Open(path, metrics, &file));
  out->reset(new RunFileWriter(std::move(file)));
  return Status::OK();
}

Status RunFileWriter::AppendBlock(const Slice& block) {
  PREGELIX_RETURN_NOT_OK(status_);
  char header[4];
  EncodeFixed32(header, static_cast<uint32_t>(block.size()));
  status_ = fault::MaybeFail("io.run_file.append");
  if (status_.ok()) status_ = file_->Append(Slice(header, 4));
  if (status_.ok()) status_ = file_->Append(block);
  PREGELIX_RETURN_NOT_OK(status_);
  ++num_blocks_;
  bytes_appended_ += 4 + block.size();
  return Status::OK();
}

Status RunFileWriter::Flush() {
  PREGELIX_RETURN_NOT_OK(status_);
  status_ = file_->Flush();
  return status_;
}

Status RunFileWriter::Finish() {
  PREGELIX_RETURN_NOT_OK(status_);
  return file_->Close();
}

Status RunFileReader::Open(const std::string& path, WorkerMetrics* metrics,
                           std::unique_ptr<RunFileReader>* out,
                           RunExtent extent) {
  std::unique_ptr<RandomAccessFile> file;
  PREGELIX_RETURN_NOT_OK(RandomAccessFile::Open(
      path, metrics, &file, RandomAccessFile::Mode::kReadOnly));
  auto reader = std::make_unique<RunFileReader>(file.get(), extent);
  reader->owned_ = std::move(file);
  *out = std::move(reader);
  return Status::OK();
}

RunFileReader::RunFileReader(const RandomAccessFile* file, RunExtent extent)
    : file_(file),
      extent_{extent.begin, std::min(extent.end, file->size())},
      offset_(extent.begin) {}

Status RunFileReader::NextBlock(std::string* out) {
  if (AtEnd()) return Status::NotFound("eof");
  PREGELIX_RETURN_NOT_OK(fault::MaybeFail("io.run_file.read"));
  const uint64_t remaining = extent_.end - offset_;
  char header[4];
  if (remaining < 4) {
    return Status::Corruption("truncated block header in " + file_->path());
  }
  PREGELIX_RETURN_NOT_OK(file_->Read(offset_, 4, header));
  const uint32_t len = DecodeFixed32(header);
  if (len > remaining - 4) {
    return Status::Corruption("block of " + std::to_string(len) +
                              " bytes overruns its extent in " +
                              file_->path());
  }
  out->resize(len);
  if (len > 0) {
    PREGELIX_RETURN_NOT_OK(file_->Read(offset_ + 4, len, out->data()));
  }
  offset_ += 4 + len;
  return Status::OK();
}

}  // namespace pregelix
