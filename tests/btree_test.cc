#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "buffer/buffer_cache.h"
#include "common/metrics_registry.h"
#include "common/random.h"
#include "common/serde.h"
#include "common/temp_dir.h"
#include "storage/btree.h"

namespace pregelix {
namespace {

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() : cache_(4096, 64, &metrics_) {}

  std::unique_ptr<BTree> OpenTree(const std::string& name) {
    std::unique_ptr<BTree> tree;
    Status s = BTree::Open(&cache_, dir_.path() + "/" + name, &tree);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return tree;
  }

  TempDir dir_{"btree-test"};
  WorkerMetrics metrics_;
  BufferCache cache_;
};

TEST_F(BTreeTest, EmptyTreeBehaviour) {
  auto tree = OpenTree("t");
  std::string value;
  EXPECT_TRUE(tree->Get("missing", &value).IsNotFound());
  EXPECT_EQ(tree->num_entries(), 0u);
  auto it = tree->NewIterator();
  ASSERT_TRUE(it->SeekToFirst().ok());
  EXPECT_FALSE(it->Valid());
}

TEST_F(BTreeTest, InsertAndGet) {
  auto tree = OpenTree("t");
  ASSERT_TRUE(tree->Upsert("b", "2").ok());
  ASSERT_TRUE(tree->Upsert("a", "1").ok());
  ASSERT_TRUE(tree->Upsert("c", "3").ok());
  std::string value;
  ASSERT_TRUE(tree->Get("a", &value).ok());
  EXPECT_EQ(value, "1");
  ASSERT_TRUE(tree->Get("b", &value).ok());
  EXPECT_EQ(value, "2");
  ASSERT_TRUE(tree->Get("c", &value).ok());
  EXPECT_EQ(value, "3");
  EXPECT_TRUE(tree->Get("d", &value).IsNotFound());
  EXPECT_EQ(tree->num_entries(), 3u);
}

TEST_F(BTreeTest, UpsertReplaces) {
  auto tree = OpenTree("t");
  ASSERT_TRUE(tree->Upsert("k", "old").ok());
  ASSERT_TRUE(tree->Upsert("k", "new").ok());
  std::string value;
  ASSERT_TRUE(tree->Get("k", &value).ok());
  EXPECT_EQ(value, "new");
  EXPECT_EQ(tree->num_entries(), 1u);
}

TEST_F(BTreeTest, UpsertSameSizeInPlace) {
  auto tree = OpenTree("t");
  ASSERT_TRUE(tree->Upsert("k", "aaaa").ok());
  ASSERT_TRUE(tree->Upsert("k", "bbbb").ok());
  std::string value;
  ASSERT_TRUE(tree->Get("k", &value).ok());
  EXPECT_EQ(value, "bbbb");
  EXPECT_EQ(tree->num_entries(), 1u);
}

TEST_F(BTreeTest, DeleteIsIdempotent) {
  auto tree = OpenTree("t");
  ASSERT_TRUE(tree->Upsert("k", "v").ok());
  ASSERT_TRUE(tree->Delete("k").ok());
  std::string value;
  EXPECT_TRUE(tree->Get("k", &value).IsNotFound());
  EXPECT_EQ(tree->num_entries(), 0u);
  ASSERT_TRUE(tree->Delete("k").ok());
  ASSERT_TRUE(tree->Delete("never-there").ok());
}

TEST_F(BTreeTest, ManyInsertsSplitAndStaySorted) {
  auto tree = OpenTree("t");
  // Enough 8-byte-key entries to force multiple levels with 4 KB pages.
  const int n = 20000;
  Random rnd(11);
  std::vector<int64_t> vids(n);
  for (int i = 0; i < n; ++i) vids[i] = i;
  // Shuffle insertion order.
  for (int i = n - 1; i > 0; --i) {
    std::swap(vids[i], vids[rnd.Uniform(i + 1)]);
  }
  for (int64_t vid : vids) {
    std::string value = "value-" + std::to_string(vid);
    ASSERT_TRUE(tree->Upsert(OrderedKeyI64(vid), value).ok());
  }
  EXPECT_EQ(tree->num_entries(), static_cast<uint64_t>(n));
  EXPECT_GT(tree->height(), 1);

  // Full scan must return all keys in order.
  auto it = tree->NewIterator();
  ASSERT_TRUE(it->SeekToFirst().ok());
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(it->Valid()) << "stopped early at " << i;
    EXPECT_EQ(DecodeOrderedI64(it->key().data()), i);
    EXPECT_EQ(it->value().ToString(), "value-" + std::to_string(i));
    ASSERT_TRUE(it->Next().ok());
  }
  EXPECT_FALSE(it->Valid());
}

TEST_F(BTreeTest, RandomizedAgainstStdMap) {
  auto tree = OpenTree("t");
  std::map<std::string, std::string> model;
  Random rnd(99);
  for (int op = 0; op < 30000; ++op) {
    const int64_t vid = static_cast<int64_t>(rnd.Uniform(2000));
    const std::string key = OrderedKeyI64(vid);
    const int action = static_cast<int>(rnd.Uniform(10));
    if (action < 6) {
      std::string value(rnd.Uniform(40) + 1, 'a' + vid % 26);
      ASSERT_TRUE(tree->Upsert(key, value).ok());
      model[key] = value;
    } else if (action < 8) {
      ASSERT_TRUE(tree->Delete(key).ok());
      model.erase(key);
    } else {
      std::string value;
      Status s = tree->Get(key, &value);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_TRUE(s.IsNotFound());
      } else {
        ASSERT_TRUE(s.ok()) << s.ToString();
        EXPECT_EQ(value, it->second);
      }
    }
  }
  EXPECT_EQ(tree->num_entries(), model.size());
  Status cs = tree->CheckConsistency();
  EXPECT_TRUE(cs.ok()) << cs.ToString();
  // Final scan equals model scan.
  auto it = tree->NewIterator();
  ASSERT_TRUE(it->SeekToFirst().ok());
  for (const auto& [key, value] : model) {
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(it->key().ToString(), key);
    EXPECT_EQ(it->value().ToString(), value);
    ASSERT_TRUE(it->Next().ok());
  }
  EXPECT_FALSE(it->Valid());
}

TEST_F(BTreeTest, SeekPositionsAtLowerBound) {
  auto tree = OpenTree("t");
  for (int64_t vid = 0; vid < 100; vid += 10) {
    ASSERT_TRUE(tree->Upsert(OrderedKeyI64(vid), "v").ok());
  }
  auto it = tree->NewIterator();
  ASSERT_TRUE(it->Seek(OrderedKeyI64(35)).ok());
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(DecodeOrderedI64(it->key().data()), 40);
  ASSERT_TRUE(it->Seek(OrderedKeyI64(40)).ok());
  EXPECT_EQ(DecodeOrderedI64(it->key().data()), 40);
  ASSERT_TRUE(it->Seek(OrderedKeyI64(91)).ok());
  EXPECT_FALSE(it->Valid());
  ASSERT_TRUE(it->Seek(OrderedKeyI64(-5)).ok());
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(DecodeOrderedI64(it->key().data()), 0);
}

TEST_F(BTreeTest, OverflowValuesRoundTrip) {
  auto tree = OpenTree("t");
  // Values far larger than a page exercise the overflow chain.
  std::string big1(3 * 4096 + 123, 'x');
  std::string big2(10 * 4096, 'y');
  ASSERT_TRUE(tree->Upsert("big1", big1).ok());
  ASSERT_TRUE(tree->Upsert("big2", big2).ok());
  ASSERT_TRUE(tree->Upsert("small", "s").ok());
  std::string value;
  ASSERT_TRUE(tree->Get("big1", &value).ok());
  EXPECT_EQ(value, big1);
  ASSERT_TRUE(tree->Get("big2", &value).ok());
  EXPECT_EQ(value, big2);
  // Iterator also reads overflowed values.
  auto it = tree->NewIterator();
  ASSERT_TRUE(it->SeekToFirst().ok());
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->value().size(), big1.size());
}

TEST_F(BTreeTest, OverflowPagesAreRecycled) {
  auto tree = OpenTree("t");
  std::string big(4 * 4096, 'x');
  ASSERT_TRUE(tree->Upsert("k", big).ok());
  const uint32_t pages_after_first = tree->num_pages();
  // Repeated same-size overwrites must reuse freed overflow pages instead of
  // growing the file.
  for (int i = 0; i < 10; ++i) {
    big[0] = static_cast<char>('a' + i);
    ASSERT_TRUE(tree->Upsert("k", big).ok());
  }
  EXPECT_LE(tree->num_pages(), pages_after_first + 5);
  std::string value;
  ASSERT_TRUE(tree->Get("k", &value).ok());
  EXPECT_EQ(value, big);
}

TEST_F(BTreeTest, BulkLoadThenRead) {
  auto tree = OpenTree("t");
  auto loader = tree->NewBulkLoader();
  const int n = 50000;
  for (int64_t vid = 0; vid < n; ++vid) {
    ASSERT_TRUE(loader->Add(OrderedKeyI64(vid), "v" + std::to_string(vid)).ok());
  }
  ASSERT_TRUE(loader->Finish().ok());
  EXPECT_EQ(tree->num_entries(), static_cast<uint64_t>(n));

  std::string value;
  ASSERT_TRUE(tree->Get(OrderedKeyI64(0), &value).ok());
  EXPECT_EQ(value, "v0");
  ASSERT_TRUE(tree->Get(OrderedKeyI64(n / 2), &value).ok());
  EXPECT_EQ(value, "v" + std::to_string(n / 2));
  ASSERT_TRUE(tree->Get(OrderedKeyI64(n - 1), &value).ok());
  EXPECT_EQ(value, "v" + std::to_string(n - 1));
  EXPECT_TRUE(tree->Get(OrderedKeyI64(n), &value).IsNotFound());

  // Updates after a bulk load must work (splits into loaded pages).
  for (int64_t vid = 0; vid < 1000; ++vid) {
    ASSERT_TRUE(
        tree->Upsert(OrderedKeyI64(vid), std::string(60, 'z')).ok());
  }
  ASSERT_TRUE(tree->Get(OrderedKeyI64(500), &value).ok());
  EXPECT_EQ(value, std::string(60, 'z'));
  EXPECT_EQ(tree->num_entries(), static_cast<uint64_t>(n));
}

TEST_F(BTreeTest, BulkLoadEmptyInput) {
  auto tree = OpenTree("t");
  auto loader = tree->NewBulkLoader();
  ASSERT_TRUE(loader->Finish().ok());
  EXPECT_EQ(tree->num_entries(), 0u);
  auto it = tree->NewIterator();
  ASSERT_TRUE(it->SeekToFirst().ok());
  EXPECT_FALSE(it->Valid());
}

TEST_F(BTreeTest, PersistsAcrossReopen) {
  const std::string path = dir_.path() + "/persist";
  {
    std::unique_ptr<BTree> tree;
    ASSERT_TRUE(BTree::Open(&cache_, path, &tree).ok());
    for (int64_t vid = 0; vid < 5000; ++vid) {
      ASSERT_TRUE(tree->Upsert(OrderedKeyI64(vid), "p" + std::to_string(vid))
                      .ok());
    }
    ASSERT_TRUE(tree->Flush().ok());
  }
  std::unique_ptr<BTree> tree;
  ASSERT_TRUE(BTree::Open(&cache_, path, &tree).ok());
  EXPECT_EQ(tree->num_entries(), 5000u);
  std::string value;
  ASSERT_TRUE(tree->Get(OrderedKeyI64(4321), &value).ok());
  EXPECT_EQ(value, "p4321");
}

TEST_F(BTreeTest, WorksWithTinyBufferCache) {
  // 24 pages of 4 KB = 96 KB of memory for a multi-MB tree: everything
  // must still be correct, just slower (this is the out-of-core path).
  WorkerMetrics metrics;
  BufferCache small_cache(4096, 24, &metrics);
  std::unique_ptr<BTree> tree;
  ASSERT_TRUE(BTree::Open(&small_cache, dir_.path() + "/small", &tree).ok());
  const int n = 20000;
  for (int64_t vid = 0; vid < n; ++vid) {
    ASSERT_TRUE(
        tree->Upsert(OrderedKeyI64(vid), std::string(100, 'a' + vid % 26))
            .ok());
  }
  EXPECT_GT(small_cache.eviction_count(), 0u);
  std::string value;
  for (int64_t vid = 0; vid < n; vid += 997) {
    ASSERT_TRUE(tree->Get(OrderedKeyI64(vid), &value).ok());
    EXPECT_EQ(value, std::string(100, 'a' + vid % 26));
  }
  EXPECT_GT(metrics.Snapshot().disk_read_bytes, 0u);
}

// ---------------------------------------------------------------------------
// Writing through the scan cursor

/// Pins `n` distinct pages of a scratch file at once: succeeds only if no
/// other page of `cache` (capacity n) is still pinned.
::testing::AssertionResult CanPinWholeCache(BufferCache* cache,
                                            const std::string& path,
                                            size_t n) {
  int file_id = -1;
  Status s = cache->OpenFile(path, &file_id);
  if (!s.ok()) return ::testing::AssertionFailure() << s.ToString();
  std::vector<PageHandle> pins(n);
  for (size_t i = 0; i < n && s.ok(); ++i) {
    s = cache->AllocatePage(file_id, &pins[i]);
  }
  pins.clear();
  Status closed = cache->DeleteFile(file_id);
  if (!s.ok()) return ::testing::AssertionFailure() << s.ToString();
  if (!closed.ok()) return ::testing::AssertionFailure() << closed.ToString();
  return ::testing::AssertionSuccess();
}

std::string EightByteValue(int64_t vid, int round) {
  return OrderedKeyI64(vid * 31 + round);
}

TEST_F(BTreeTest, CursorOverwriteIsSeenByGetAndFreshScan) {
  MetricsRegistry registry;
  cache_.SetObservability(nullptr, &registry, 0);
  auto tree = OpenTree("t");
  const int n = 3000;  // several leaves
  for (int64_t vid = 0; vid < n; ++vid) {
    ASSERT_TRUE(tree->Upsert(OrderedKeyI64(vid), EightByteValue(vid, 0)).ok());
  }
  Counter* inserts = registry.GetCounter(
      "pregelix.storage.inserts",
      MetricLabels{{"worker", "0"}, {"storage_tier", "btree"}});
  const uint64_t inserts_before = inserts->value();
  const uint64_t hits_before = cache_.hit_count() + cache_.miss_count();

  auto it = tree->NewIterator();
  ASSERT_TRUE(it->SeekToFirst().ok());
  int64_t vid = 0;
  for (; it->Valid(); ++vid) {
    const std::string old_value = it->value().ToString();
    bool done = false;
    ASSERT_TRUE(it->OverwriteValue(EightByteValue(vid, 1), &done).ok());
    ASSERT_TRUE(done);
    // The cursor's buffers keep the bytes read before the overwrite.
    EXPECT_EQ(it->value().ToString(), old_value);
    EXPECT_EQ(DecodeOrderedI64(it->key().data()), vid);
    ASSERT_TRUE(it->Next().ok());
  }
  EXPECT_EQ(vid, n);
  EXPECT_EQ(inserts->value() - inserts_before, static_cast<uint64_t>(n));
  // One pin per leaf, not one per entry (nor a descent per overwrite).
  EXPECT_LT(cache_.hit_count() + cache_.miss_count() - hits_before,
            static_cast<uint64_t>(n) / 10);
  EXPECT_EQ(tree->num_entries(), static_cast<uint64_t>(n));

  std::string value;
  for (int64_t v = 0; v < n; ++v) {
    ASSERT_TRUE(tree->Get(OrderedKeyI64(v), &value).ok());
    ASSERT_EQ(value, EightByteValue(v, 1)) << v;
  }
  auto fresh = tree->NewIterator();
  ASSERT_TRUE(fresh->SeekToFirst().ok());
  for (int64_t v = 0; v < n; ++v) {
    ASSERT_TRUE(fresh->Valid());
    ASSERT_EQ(fresh->value().ToString(), EightByteValue(v, 1));
    ASSERT_TRUE(fresh->Next().ok());
  }
  EXPECT_FALSE(fresh->Valid());
  EXPECT_TRUE(tree->CheckConsistency().ok());
}

TEST_F(BTreeTest, CursorOverwriteRefusesSizeChangeAndOverflow) {
  auto tree = OpenTree("t");
  const std::string big(3000, 'o');  // > page/4: an overflow chain
  ASSERT_TRUE(tree->Upsert("a", "1234").ok());
  ASSERT_TRUE(tree->Upsert("b", big).ok());
  ASSERT_TRUE(tree->Upsert("c", "xy").ok());
  // A flush of a clean tree still rewrites its meta page; measure that.
  ASSERT_TRUE(tree->Flush().ok());
  const uint64_t clean0 = cache_.writeback_count();
  ASSERT_TRUE(tree->Flush().ok());
  const uint64_t writebacks = cache_.writeback_count();
  const uint64_t clean_flush = writebacks - clean0;

  auto it = tree->NewIterator();
  ASSERT_TRUE(it->SeekToFirst().ok());
  bool done = true;
  ASSERT_TRUE(it->OverwriteValue("12345", &done).ok());  // longer
  EXPECT_FALSE(done);
  done = true;
  ASSERT_TRUE(it->OverwriteValue("123", &done).ok());  // shorter
  EXPECT_FALSE(done);
  ASSERT_TRUE(it->Next().ok());
  ASSERT_EQ(it->key().ToString(), "b");
  done = true;
  ASSERT_TRUE(it->OverwriteValue(std::string(big.size(), 'p'), &done).ok());
  EXPECT_FALSE(done);  // same length, but stored out of line
  ASSERT_TRUE(it->Next().ok());
  ASSERT_TRUE(it->Next().ok());
  EXPECT_FALSE(it->Valid());
  done = true;
  EXPECT_FALSE(it->OverwriteValue("zz", &done).ok());  // past the end
  EXPECT_FALSE(done);
  it.reset();

  // No leaf was marked dirty: the flush writes back what a clean one does.
  ASSERT_TRUE(tree->Flush().ok());
  EXPECT_EQ(cache_.writeback_count() - writebacks, clean_flush);
  std::string value;
  ASSERT_TRUE(tree->Get("a", &value).ok());
  EXPECT_EQ(value, "1234");
  ASSERT_TRUE(tree->Get("b", &value).ok());
  EXPECT_EQ(value, big);
  ASSERT_TRUE(tree->Get("c", &value).ok());
  EXPECT_EQ(value, "xy");
}

TEST_F(BTreeTest, CursorPinLeavesEvictionWorkingAndIsReleased) {
  // Six 4 KB pages for a tree of hundreds of leaves: while the cursor holds
  // one leaf, point lookups across the tree must still evict the rest.
  WorkerMetrics metrics;
  constexpr size_t kPages = 6;
  BufferCache small_cache(4096, kPages, &metrics);
  std::unique_ptr<BTree> tree;
  ASSERT_TRUE(BTree::Open(&small_cache, dir_.path() + "/small", &tree).ok());
  const int n = 20000;
  for (int64_t vid = 0; vid < n; ++vid) {
    ASSERT_TRUE(tree->Upsert(OrderedKeyI64(vid), EightByteValue(vid, 0)).ok());
  }
  Random rnd(17);
  std::string value;
  {
    auto it = tree->NewIterator();
    ASSERT_TRUE(it->SeekToFirst().ok());
    int64_t vid = 0;
    for (; it->Valid(); ++vid) {
      ASSERT_EQ(DecodeOrderedI64(it->key().data()), vid);
      bool done = false;
      ASSERT_TRUE(it->OverwriteValue(EightByteValue(vid, 1), &done).ok());
      ASSERT_TRUE(done);
      if (vid % 97 == 0) {
        const int64_t probe = static_cast<int64_t>(rnd.Uniform(n));
        ASSERT_TRUE(tree->Get(OrderedKeyI64(probe), &value).ok());
        EXPECT_EQ(value, EightByteValue(probe, probe <= vid ? 1 : 0));
      }
      ASSERT_TRUE(it->Next().ok());
    }
    EXPECT_EQ(vid, n);
    // Exhausted: the cursor no longer holds its last leaf.
    EXPECT_TRUE(CanPinWholeCache(&small_cache, dir_.path() + "/probe1",
                                 kPages));
  }
  EXPECT_GT(small_cache.eviction_count(), 0u);
  {
    // Destroyed mid-leaf: the pin goes with it.
    auto it = tree->NewIterator();
    ASSERT_TRUE(it->Seek(OrderedKeyI64(n / 2)).ok());
    ASSERT_TRUE(it->Valid());
    bool done = false;
    ASSERT_TRUE(it->OverwriteValue(EightByteValue(n / 2, 2), &done).ok());
    ASSERT_TRUE(done);
  }
  EXPECT_TRUE(CanPinWholeCache(&small_cache, dir_.path() + "/probe2", kPages));
  // The overwrites survived eviction (write-back of the released leaves).
  for (int64_t vid = 0; vid < n; vid += 101) {
    ASSERT_TRUE(tree->Get(OrderedKeyI64(vid), &value).ok());
    EXPECT_EQ(value, EightByteValue(vid, 1)) << vid;
  }
  ASSERT_TRUE(tree->Get(OrderedKeyI64(n / 2), &value).ok());
  EXPECT_EQ(value, EightByteValue(n / 2, 2));
}

struct BTreeSweepParam {
  int num_keys;
  int value_size;
};

class BTreeSweepTest : public ::testing::TestWithParam<BTreeSweepParam> {};

/// Property sweep: for a grid of (cardinality, record size), a full scan
/// after random-order inserts yields exactly the sorted key sequence.
TEST_P(BTreeSweepTest, ScanEqualsSortedInsertSet) {
  const auto [num_keys, value_size] = GetParam();
  TempDir dir("btree-sweep");
  WorkerMetrics metrics;
  BufferCache cache(4096, 64, &metrics);
  std::unique_ptr<BTree> tree;
  ASSERT_TRUE(BTree::Open(&cache, dir.path() + "/t", &tree).ok());
  Random rnd(static_cast<uint64_t>(num_keys * 31 + value_size));
  std::vector<int64_t> vids(num_keys);
  for (int i = 0; i < num_keys; ++i) vids[i] = i * 3;  // gaps
  for (int i = num_keys - 1; i > 0; --i) {
    std::swap(vids[i], vids[rnd.Uniform(i + 1)]);
  }
  for (int64_t vid : vids) {
    ASSERT_TRUE(
        tree->Upsert(OrderedKeyI64(vid), std::string(value_size, 'v')).ok());
  }
  Status cs = tree->CheckConsistency();
  ASSERT_TRUE(cs.ok()) << cs.ToString();
  auto it = tree->NewIterator();
  ASSERT_TRUE(it->SeekToFirst().ok());
  for (int i = 0; i < num_keys; ++i) {
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(DecodeOrderedI64(it->key().data()), i * 3);
    EXPECT_EQ(it->value().size(), static_cast<size_t>(value_size));
    ASSERT_TRUE(it->Next().ok());
  }
  EXPECT_FALSE(it->Valid());
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, BTreeSweepTest,
    ::testing::Values(BTreeSweepParam{10, 8}, BTreeSweepParam{100, 100},
                      BTreeSweepParam{1000, 500}, BTreeSweepParam{5000, 40},
                      BTreeSweepParam{300, 2000}));

}  // namespace
}  // namespace pregelix
