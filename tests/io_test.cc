#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/metrics.h"
#include "common/serde.h"
#include "common/temp_dir.h"
#include "io/file.h"
#include "io/run_file.h"

namespace pregelix {
namespace {

class IoTest : public ::testing::Test {
 protected:
  TempDir dir_{"io-test"};
};

TEST_F(IoTest, WriteThenReadBack) {
  const std::string path = dir_.path() + "/f";
  std::unique_ptr<WritableFile> w;
  ASSERT_TRUE(WritableFile::Open(path, nullptr, &w).ok());
  ASSERT_TRUE(w->Append(Slice("hello ")).ok());
  ASSERT_TRUE(w->Append(Slice("world")).ok());
  ASSERT_TRUE(w->Close().ok());

  std::string contents;
  ASSERT_TRUE(ReadFileToString(path, &contents).ok());
  EXPECT_EQ(contents, "hello world");
}

TEST_F(IoTest, LargeAppendBypassesBuffer) {
  const std::string path = dir_.path() + "/big";
  const std::string big(1 << 20, 'x');
  std::unique_ptr<WritableFile> w;
  ASSERT_TRUE(WritableFile::Open(path, nullptr, &w).ok());
  ASSERT_TRUE(w->Append(Slice("pre")).ok());
  ASSERT_TRUE(w->Append(Slice(big)).ok());
  ASSERT_TRUE(w->Close().ok());
  uint64_t size = 0;
  ASSERT_TRUE(GetFileSize(path, &size).ok());
  EXPECT_EQ(size, big.size() + 3);
}

TEST_F(IoTest, RandomAccessReadAtOffset) {
  const std::string path = dir_.path() + "/r";
  ASSERT_TRUE(WriteStringToFileAtomic(path, Slice("0123456789")).ok());
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(RandomAccessFile::Open(path, nullptr, &f).ok());
  char buf[4];
  ASSERT_TRUE(f->Read(3, 4, buf).ok());
  EXPECT_EQ(std::string(buf, 4), "3456");
  EXPECT_TRUE(f->Read(8, 4, buf).IsIoError());  // short read
}

TEST_F(IoTest, RandomAccessWriteInPlace) {
  const std::string path = dir_.path() + "/w";
  ASSERT_TRUE(WriteStringToFileAtomic(path, Slice("aaaaaaaa")).ok());
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(RandomAccessFile::Open(path, nullptr, &f).ok());
  ASSERT_TRUE(f->Write(2, Slice("XY")).ok());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(path, &contents).ok());
  EXPECT_EQ(contents, "aaXYaaaa");
}

TEST_F(IoTest, MetricsCountBytes) {
  WorkerMetrics metrics;
  const std::string path = dir_.path() + "/m";
  std::unique_ptr<WritableFile> w;
  ASSERT_TRUE(WritableFile::Open(path, &metrics, &w).ok());
  ASSERT_TRUE(w->Append(Slice(std::string(1000, 'a'))).ok());
  ASSERT_TRUE(w->Close().ok());
  EXPECT_EQ(metrics.Snapshot().disk_write_bytes, 1000u);

  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(RandomAccessFile::Open(path, &metrics, &f).ok());
  std::string buf(500, '\0');
  ASSERT_TRUE(f->Read(0, 500, buf.data()).ok());
  EXPECT_EQ(metrics.Snapshot().disk_read_bytes, 500u);
}

TEST_F(IoTest, AtomicWriteReplaces) {
  const std::string path = dir_.path() + "/a";
  ASSERT_TRUE(WriteStringToFileAtomic(path, Slice("one")).ok());
  ASSERT_TRUE(WriteStringToFileAtomic(path, Slice("two")).ok());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(path, &contents).ok());
  EXPECT_EQ(contents, "two");
}

TEST_F(IoTest, RunFileRoundTrip) {
  const std::string path = dir_.path() + "/run";
  std::unique_ptr<RunFileWriter> w;
  ASSERT_TRUE(RunFileWriter::Open(path, nullptr, &w).ok());
  ASSERT_TRUE(w->AppendBlock(Slice("block-one")).ok());
  ASSERT_TRUE(w->AppendBlock(Slice("")).ok());
  ASSERT_TRUE(w->AppendBlock(Slice("block-three")).ok());
  EXPECT_EQ(w->num_blocks(), 3u);
  ASSERT_TRUE(w->Finish().ok());

  std::unique_ptr<RunFileReader> r;
  ASSERT_TRUE(RunFileReader::Open(path, nullptr, &r).ok());
  std::string block;
  ASSERT_TRUE(r->NextBlock(&block).ok());
  EXPECT_EQ(block, "block-one");
  ASSERT_TRUE(r->NextBlock(&block).ok());
  EXPECT_EQ(block, "");
  ASSERT_TRUE(r->NextBlock(&block).ok());
  EXPECT_EQ(block, "block-three");
  EXPECT_TRUE(r->NextBlock(&block).IsNotFound());
  EXPECT_TRUE(r->AtEnd());
}

TEST_F(IoTest, RunFileReaderReset) {
  const std::string path = dir_.path() + "/run2";
  std::unique_ptr<RunFileWriter> w;
  ASSERT_TRUE(RunFileWriter::Open(path, nullptr, &w).ok());
  ASSERT_TRUE(w->AppendBlock(Slice("x")).ok());
  ASSERT_TRUE(w->Finish().ok());
  std::unique_ptr<RunFileReader> r;
  ASSERT_TRUE(RunFileReader::Open(path, nullptr, &r).ok());
  std::string block;
  ASSERT_TRUE(r->NextBlock(&block).ok());
  r->Reset();
  ASSERT_TRUE(r->NextBlock(&block).ok());
  EXPECT_EQ(block, "x");
}

// Two runs share one file as extents. A corrupted length header in the
// first run that claims more bytes than its extent holds must surface as
// Corruption: the reader may not run on into the second run's blocks.
TEST_F(IoTest, RunFileReaderStopsAtItsExtent) {
  const std::string path = dir_.path() + "/spill";
  std::unique_ptr<RunFileWriter> w;
  ASSERT_TRUE(RunFileWriter::Open(path, nullptr, &w).ok());
  ASSERT_TRUE(w->AppendBlock(Slice("first-run")).ok());
  ASSERT_TRUE(w->Flush().ok());
  const RunExtent first{0, w->bytes_written()};
  ASSERT_TRUE(w->AppendBlock(Slice("second-run")).ok());
  ASSERT_TRUE(w->Finish().ok());
  const RunExtent second{first.end, w->bytes_written()};

  std::unique_ptr<RunFileReader> r;
  ASSERT_TRUE(RunFileReader::Open(path, nullptr, &r, first).ok());
  std::string block;
  ASSERT_TRUE(r->NextBlock(&block).ok());
  EXPECT_EQ(block, "first-run");
  EXPECT_TRUE(r->NextBlock(&block).IsNotFound());

  // Let the first header span both runs' bytes.
  {
    std::unique_ptr<RandomAccessFile> f;
    ASSERT_TRUE(RandomAccessFile::Open(path, nullptr, &f).ok());
    char header[4];
    EncodeFixed32(header, static_cast<uint32_t>(second.end - 4));
    ASSERT_TRUE(f->Write(0, Slice(header, 4)).ok());
  }
  ASSERT_TRUE(RunFileReader::Open(path, nullptr, &r, first).ok());
  const Status s = r->NextBlock(&block);
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  // The second run's extent is intact.
  ASSERT_TRUE(RunFileReader::Open(path, nullptr, &r, second).ok());
  ASSERT_TRUE(r->NextBlock(&block).ok());
  EXPECT_EQ(block, "second-run");
  EXPECT_TRUE(r->NextBlock(&block).IsNotFound());
}

TEST_F(IoTest, EmptyRunFile) {
  const std::string path = dir_.path() + "/empty";
  std::unique_ptr<RunFileWriter> w;
  ASSERT_TRUE(RunFileWriter::Open(path, nullptr, &w).ok());
  ASSERT_TRUE(w->Finish().ok());
  std::unique_ptr<RunFileReader> r;
  ASSERT_TRUE(RunFileReader::Open(path, nullptr, &r).ok());
  std::string block;
  EXPECT_TRUE(r->NextBlock(&block).IsNotFound());
}

}  // namespace
}  // namespace pregelix
