#ifndef PREGELIX_STORAGE_INDEX_H_
#define PREGELIX_STORAGE_INDEX_H_

#include <memory>
#include <string>

#include "common/slice.h"
#include "common/status.h"

namespace pregelix {

/// Forward cursor over an ordered index. Keys are visited in memcmp order.
class IndexIterator {
 public:
  virtual ~IndexIterator() = default;

  virtual Status SeekToFirst() = 0;
  /// Positions at the first entry with key >= target.
  virtual Status Seek(const Slice& target) = 0;
  virtual bool Valid() const = 0;
  virtual Status Next() = 0;

  /// Valid only while Valid(); invalidated by Next().
  virtual Slice key() const = 0;
  virtual Slice value() const = 0;

  /// Overwrites the current entry's value in place, without a second index
  /// descent. Sets *done when it did; otherwise (a value of another size,
  /// an out-of-line value) returns OK with *done false and changes nothing,
  /// and the caller falls back to OrderedIndex::Upsert. key() and value()
  /// keep the bytes read before the overwrite until the cursor moves. The
  /// default reports NotSupported: an index without in-place cells (the
  /// LSM B-tree) never overwrites through its cursor.
  virtual Status OverwriteValue(const Slice& value, bool* done) {
    (void)value;
    *done = false;
    return Status::NotSupported("in-place overwrite through a cursor");
  }
};

/// Ordered key-value index interface implemented by BTree and LsmBTree.
///
/// The Pregelix Vertex and Vid relations are stored behind this interface
/// (paper Section 5.2); the physical choice is a job-level hint. External
/// synchronization: one writer per partition (the dataflow scheduler
/// guarantees this via sticky location constraints).
class OrderedIndex {
 public:
  virtual ~OrderedIndex() = default;

  /// Inserts or replaces.
  virtual Status Upsert(const Slice& key, const Slice& value) = 0;
  /// Removes the key; OK even if absent.
  virtual Status Delete(const Slice& key) = 0;
  /// Point lookup. NotFound if absent.
  virtual Status Get(const Slice& key, std::string* value) = 0;
  virtual std::unique_ptr<IndexIterator> NewIterator() = 0;
  /// Durably writes buffered state.
  virtual Status Flush() = 0;
  /// Live entry count (excluding tombstoned keys).
  virtual uint64_t num_entries() const = 0;
};

/// Sorted-input bulk loader; Add must be called in strictly increasing key
/// order.
class IndexBulkLoader {
 public:
  virtual ~IndexBulkLoader() = default;
  virtual Status Add(const Slice& key, const Slice& value) = 0;
  virtual Status Finish() = 0;
};

}  // namespace pregelix

#endif  // PREGELIX_STORAGE_INDEX_H_
