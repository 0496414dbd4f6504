#ifndef PREGELIX_DATAFLOW_OPS_SORT_H_
#define PREGELIX_DATAFLOW_OPS_SORT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/trace.h"
#include "dataflow/frame.h"
#include "io/run_file.h"

namespace pregelix {

struct OperatorStats;  // dataflow/plan_profile.h

/// Streaming consumer of sorted output: called once per tuple, in key order.
using TupleEmitFn = std::function<Status(std::span<const Slice> fields)>;

/// Aggregation hooks for message combination (the user's `combine` UDF
/// packaged for the group-by operators). Operates on the payload field of
/// (key, payload) tuples; must be associative and commutative, as required
/// of Pregel combiners. The accumulator is itself a payload: there is no
/// final transform, so a partial group folded again anywhere downstream
/// (a merge pass, the receive-side group-by) gives the same bytes. The
/// default combiner (gather into a list) is built by the Pregelix layer on
/// top of these hooks.
struct GroupCombiner {
  /// Starts an accumulator from the first payload of a group.
  std::function<void(const Slice& payload, std::string* acc)> init;
  /// Folds another payload into the accumulator.
  std::function<void(const Slice& payload, std::string* acc)> step;

  bool valid() const { return static_cast<bool>(init) && static_cast<bool>(step); }
};

/// Shared configuration for the sort/group-by family.
struct SortConfig {
  int field_count = 2;
  int key_field = 0;
  size_t memory_budget_bytes = 1 << 20;  ///< in-memory batch / table budget
  size_t frame_size = 32 * 1024;
  /// The grouper's one spill file is `<prefix>-spill`: every sorted run and
  /// merge-pass output is an extent of it (DESIGN.md §19).
  std::string scratch_prefix;
  WorkerMetrics* metrics = nullptr;
  Tracer* tracer = nullptr;  ///< optional; spans for run generation vs merge
  int worker = 0;            ///< worker id stamped on sort spans
  int merge_fanin = 16;
  /// Activation record of the driving operator clone (null for kernels run
  /// outside RunJob). The groupers record their memory high-water mark at
  /// spill/finish boundaries and each spilled run's byte volume into it.
  OperatorStats* stats = nullptr;
};

namespace internal_sort {

/// A grouper's one scratch file, `<scratch_prefix>-spill`. Every sorted run
/// and every intermediate merge-pass output is appended to it as an extent,
/// written as frames. The file is created by the first run and deleted with
/// this object, so consumed extents are freed only then (DESIGN.md §19).
/// Errors are sticky (RunFileWriter): after a failed append or flush every
/// call returns that status and no further extent is handed out.
class SpillFile {
 public:
  explicit SpillFile(const SortConfig& config);
  ~SpillFile();

  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  /// Appends one tuple to the open run.
  Status Append(std::span<const Slice> fields);
  /// Ends the open run (possibly empty) and returns its extent.
  Status EndRun(RunExtent* extent);
  /// Frame bytes of the last ended run, block headers excluded.
  uint64_t run_bytes() const { return run_bytes_; }
  const std::string& path() const { return path_; }

 private:
  Status AppendFrame();

  std::string path_;
  WorkerMetrics* metrics_;
  FrameTupleAppender appender_;
  std::unique_ptr<RunFileWriter> writer_;  ///< null until the first run
  uint64_t run_begin_ = 0;
  uint64_t open_run_bytes_ = 0;
  uint64_t run_bytes_ = 0;
};

/// K-way merge (with optional combining) over runs of one spill file;
/// shared by both spilling groupers. Multi-pass when the number of runs
/// exceeds the fan-in: each pass appends its outputs to the same file.
Status MergeRuns(const SortConfig& config, const GroupCombiner& combiner,
                 SpillFile* file, std::vector<RunExtent> runs,
                 const TupleEmitFn& emit);

}  // namespace internal_sort

/// The contract the two spilling group-bys share (paper Section 4): absorb
/// tuples under `memory_budget_bytes`, write the in-memory state out as one
/// sorted (and, with a combiner, pre-combined) run on overflow, and merge
/// the runs at the end. The plans hold one of these and never ask which
/// kind it is.
class SpillingGrouper {
 public:
  virtual ~SpillingGrouper() = default;

  SpillingGrouper(const SpillingGrouper&) = delete;
  SpillingGrouper& operator=(const SpillingGrouper&) = delete;

  virtual Status Add(std::span<const Slice> fields) = 0;

  /// Streams everything added to `emit` in key order: the in-memory
  /// remainder is drained straight to `emit` when eager or when nothing
  /// spilled, and is spilled as one more run otherwise; any runs are then
  /// merged (after an eager remainder, as a second sorted stream). The
  /// instance is exhausted afterwards.
  Status Finish(const TupleEmitFn& emit);

  /// Eager shuffle mode (DESIGN.md §19): when a sink is set, a budget
  /// overflow whose state combined heavily (distinct keys at most half the
  /// tuples — duplicates cluster locally, so a cross-batch run merge would
  /// have little left to collapse) drains the sorted, pre-combined state
  /// straight to the sink instead of spilling a run; poorly-combining state
  /// keeps spilling so cross-batch duplicates are still merged before they
  /// reach the wire. Finish then streams the remainder, followed by the
  /// merged runs, so a key may be emitted once per drain: the downstream
  /// group-by folds the partial groups. Must be set before the first Add;
  /// Finish must then be called with this same sink.
  void SetEagerSink(TupleEmitFn sink) { eager_sink_ = std::move(sink); }

  int runs_spilled() const { return static_cast<int>(runs_.size()); }

 protected:
  SpillingGrouper(const SortConfig& config, GroupCombiner combiner);

  /// Bytes the in-memory state charges against memory_budget_bytes.
  virtual size_t MemoryBytes() const = 0;
  /// Streams the in-memory state to `emit` in key order (combined when
  /// configured) and empties it.
  virtual Status DrainSorted(const TupleEmitFn& emit) = 0;
  /// Writes the in-memory state as one sorted run; no-op when empty.
  virtual Status SpillRun() = 0;

  SortConfig config_;
  GroupCombiner combiner_;
  internal_sort::SpillFile spill_;
  std::vector<RunExtent> runs_;  ///< spilled runs, in creation order
  TupleEmitFn eager_sink_;       ///< eager shuffle sink; empty = spill to runs
  bool finished_ = false;
};

/// External sort with optional early aggregation (paper Section 4
/// "sort-based group-by": the combine function is pushed into both the
/// in-memory sort phase and the merge phase).
///
/// Without a combiner this is the plain external sort operator (used by the
/// data-loading and recovery plans to prepare bulk-load input). With a
/// combiner (field_count must be 2, key_field 0) it is the sort-based
/// group-by: runs are written pre-combined and merging combines across runs,
/// so spill volume shrinks with the combining factor. In eager mode the
/// ship-or-spill decision keys off the previous drain's combining ratio.
class ExternalSortGrouper final : public SpillingGrouper {
 public:
  ExternalSortGrouper(const SortConfig& config, GroupCombiner combiner = {});

  Status Add(std::span<const Slice> fields) override;

 private:
  /// Pool bytes plus the entry array's real footprint (capacity, not size).
  size_t MemoryBytes() const override;
  /// Sorts the in-memory batch, feeds it (combined if configured) to `emit`,
  /// and records the batch's group/tuple counts for the eager-ship gate.
  Status DrainSorted(const TupleEmitFn& emit) override;
  Status SpillRun() override;
  /// Sorts entries_ by key (norm-prefix fast path); charges the sort's CPU.
  void SortBatch();

  // In-memory batch: raw tuple bytes in a pool, one entry per tuple carrying
  // the tuple's (offset, size) plus its normalized key prefix, cached at Add
  // time so the common sort comparison is a single integer compare (the full
  // key is only decoded from the pool on a prefix tie). Sorting permutes the
  // entry array only.
  std::string pool_;
  struct Entry {
    uint64_t norm;  ///< NormalizedKeyPrefix of the key field
    uint32_t offset;
    uint32_t size;
  };
  /// Key field of one batch entry, decoded from the pool.
  Slice EntryKey(const Entry& e) const;
  std::vector<Entry> entries_;
  std::string acc_;  ///< reused accumulator buffer for combined drains
  /// The last drained batch's size (tuples in, distinct groups out): the
  /// in-batch combining ratio the next eager-ship decision keys off. Falls
  /// out of the drain loop for free; zero tuples = no flush yet, so the
  /// first overflow spills.
  uint64_t last_flush_groups_ = 0;
  uint64_t last_flush_tuples_ = 0;
  /// Key width of the current batch when every key so far has one width
  /// ≤ 8 bytes (the cached norm prefix is then injective and the batch
  /// sort/group loops run on the entry strip alone); -1 = empty batch,
  /// -2 = mixed or long keys.
  int64_t batch_key_size_ = -1;
};

/// Hash-based pre-aggregation with sorted spill runs (paper Section 4
/// "HashSort group-by"): groups are absorbed into an in-memory hash table;
/// when the table exceeds its budget it is emptied as one sorted, combined
/// run; the merge phase is shared with the sort-based group-by. Faster than
/// sort-based when the number of distinct keys is small. In eager mode the
/// ship-or-spill decision keys off the live table's own combining ratio.
///
/// The table is a flat open-addressing index (slot array of group indices)
/// over an insertion-ordered group vector whose keys live in one arena, so
/// the hit path — hash, probe, combiner step into the resident accumulator
/// — performs no heap allocation (fixed-width accumulators stay in the
/// string's inline buffer). Memory is accounted from the real footprint of
/// the arena, the group and slot arrays, and a signed running total of
/// accumulator bytes (a combiner step may shrink its accumulator).
class HashSortGrouper final : public SpillingGrouper {
 public:
  HashSortGrouper(const SortConfig& config, GroupCombiner combiner);

  Status Add(std::span<const Slice> fields) override;

 private:
  struct Group {
    uint64_t hash;        ///< full 64-bit key hash (probe filter)
    uint64_t norm;        ///< NormalizedKeyPrefix, cached for the spill sort
    uint32_t key_offset;  ///< into key_arena_
    uint32_t key_size;
    std::string acc;
  };

  Slice GroupKey(const Group& g) const {
    return Slice(key_arena_.data() + g.key_offset, g.key_size);
  }
  /// Real bytes held by the table.
  size_t MemoryBytes() const override;
  /// Sorted (key, partial-acc) stream to `emit`, then release.
  Status DrainSorted(const TupleEmitFn& emit) override;
  Status SpillRun() override;
  /// Doubles the slot array and rehashes the group indices into it.
  void GrowSlots();
  /// Sorted-by-key view of groups_ (indices), using the cached norm keys.
  void SortedOrder(std::vector<uint32_t>* order) const;
  /// Frees the table's memory after a spill or drain.
  void ReleaseTable();

  std::string key_arena_;        ///< group keys, back to back
  std::vector<Group> groups_;    ///< insertion order
  std::vector<uint32_t> slots_;  ///< open addressing; group index + 1, 0 empty
  int64_t acc_bytes_ = 0;        ///< signed sum of acc sizes (steps may shrink)
  /// Tuples absorbed since the table was last drained; with groups_.size()
  /// this is the in-table combining ratio the eager-ship decision keys off.
  uint64_t tuples_since_drain_ = 0;
  /// One key width ≤ 8 across the table makes the cached norms distinct
  /// (keys are deduped), so the spill sort runs over a contiguous
  /// (norm, index) strip; -1 = empty, -2 = mixed or long keys.
  int64_t uniform_key_size_ = -1;
};

/// Streaming group-by over already-clustered input (paper Section 4
/// "preclustered group-by"); pairs with the m-to-n partitioning merging
/// connector whose receiver delivers key-sorted tuples.
class PreclusteredGrouper {
 public:
  PreclusteredGrouper(GroupCombiner combiner, WorkerMetrics* metrics);

  /// Input must arrive in non-decreasing key order.
  Status Add(const Slice& key, const Slice& payload, const TupleEmitFn& emit);
  /// Flushes the last group.
  Status Finish(const TupleEmitFn& emit);

 private:
  Status EmitCurrent(const TupleEmitFn& emit);

  GroupCombiner combiner_;
  WorkerMetrics* metrics_;
  // Group-key and accumulator buffers are assigned into, never replaced, so
  // a steady stream of groups reuses their capacity instead of allocating.
  std::string current_key_;
  std::string acc_;
  bool has_group_ = false;
};

}  // namespace pregelix

#endif  // PREGELIX_DATAFLOW_OPS_SORT_H_
