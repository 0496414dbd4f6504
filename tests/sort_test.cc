#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <new>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/random.h"
#include "common/serde.h"
#include "common/temp_dir.h"
#include "dataflow/ops/sort.h"
#include "dataflow/ops/sort_by_norm.h"

// Binary-wide counting allocator: every global operator new bumps a counter,
// so tests can assert that a code path performs zero heap allocations (the
// "no per-tuple allocation on the group-by hit path" guarantee, DESIGN.md
// §13). Replacing these in one TU replaces them for the whole test binary.
namespace {
std::atomic<uint64_t> g_heap_allocs{0};
}  // namespace

// The nothrow forms are replaced too (std::stable_sort's temporary buffer
// uses them), so every block this binary frees with std::free came from
// std::malloc — AddressSanitizer reports a mismatch otherwise.
void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace pregelix {
namespace {

/// min-combiner over 8-byte little-endian doubles, as SSSP uses.
GroupCombiner MinDoubleCombiner() {
  GroupCombiner c;
  c.init = [](const Slice& payload, std::string* acc) {
    acc->assign(payload.data(), payload.size());
  };
  c.step = [](const Slice& payload, std::string* acc) {
    const double incoming = DecodeDouble(payload.data());
    const double current = DecodeDouble(acc->data());
    if (incoming < current) acc->assign(payload.data(), payload.size());
  };
  return c;
}

/// Concatenating list combiner (the default "gather" combine). Payloads
/// must already be length-prefixed item sequences so that accumulators and
/// payloads share one representation and combining stays associative across
/// spilled runs (a partially combined run entry is just a longer sequence).
GroupCombiner ListCombiner() {
  GroupCombiner c;
  c.init = [](const Slice& payload, std::string* acc) {
    acc->assign(payload.data(), payload.size());
  };
  c.step = [](const Slice& payload, std::string* acc) {
    acc->append(payload.data(), payload.size());
  };
  return c;
}

/// Wraps one message as a single-item sequence for ListCombiner.
std::string ListItem(const std::string& message) {
  std::string out;
  PutLengthPrefixed(&out, message);
  return out;
}

class SortTest : public ::testing::Test {
 protected:
  SortConfig MakeConfig(size_t budget) {
    SortConfig config;
    config.field_count = 2;
    config.key_field = 0;
    config.memory_budget_bytes = budget;
    config.frame_size = 1024;
    config.scratch_prefix = dir_.path() + "/sort";
    config.metrics = &metrics_;
    return config;
  }

  TempDir dir_{"sort-test"};
  WorkerMetrics metrics_;
};

TEST_F(SortTest, InMemorySortNoCombiner) {
  ExternalSortGrouper sorter(MakeConfig(1 << 20));
  Random rnd(5);
  std::vector<int64_t> keys;
  for (int i = 0; i < 1000; ++i) {
    keys.push_back(static_cast<int64_t>(rnd.Uniform(10000)));
    const std::string k = OrderedKeyI64(keys.back());
    const std::string v = "v" + std::to_string(keys.back());
    const Slice t[2] = {Slice(k), Slice(v)};
    ASSERT_TRUE(sorter.Add(t).ok());
  }
  EXPECT_EQ(sorter.runs_spilled(), 0);
  std::sort(keys.begin(), keys.end());
  size_t i = 0;
  ASSERT_TRUE(sorter
                  .Finish([&](std::span<const Slice> fields) {
                    EXPECT_EQ(DecodeOrderedI64(fields[0].data()), keys[i]);
                    ++i;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(i, keys.size());
}

TEST_F(SortTest, SpillingSortKeepsAllTuplesSorted) {
  // 4 KB budget forces many spilled runs.
  ExternalSortGrouper sorter(MakeConfig(4 * 1024));
  Random rnd(6);
  std::multiset<int64_t> expected;
  for (int i = 0; i < 5000; ++i) {
    const int64_t key = static_cast<int64_t>(rnd.Uniform(500));
    expected.insert(key);
    const std::string k = OrderedKeyI64(key);
    const Slice t[2] = {Slice(k), Slice("payload")};
    ASSERT_TRUE(sorter.Add(t).ok());
  }
  EXPECT_GT(sorter.runs_spilled(), 1);
  std::vector<int64_t> seen;
  ASSERT_TRUE(sorter
                  .Finish([&](std::span<const Slice> fields) {
                    seen.push_back(DecodeOrderedI64(fields[0].data()));
                    return Status::OK();
                  })
                  .ok());
  ASSERT_EQ(seen.size(), expected.size());
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  std::vector<int64_t> expected_vec(expected.begin(), expected.end());
  EXPECT_EQ(seen, expected_vec);
}

TEST_F(SortTest, MultiPassMergeBeyondFanin) {
  SortConfig config = MakeConfig(512);
  config.merge_fanin = 3;  // force multiple merge passes
  ExternalSortGrouper sorter(config);
  const int n = 3000;
  for (int i = n - 1; i >= 0; --i) {
    const std::string k = OrderedKeyI64(i);
    const Slice t[2] = {Slice(k), Slice("x")};
    ASSERT_TRUE(sorter.Add(t).ok());
  }
  EXPECT_GT(sorter.runs_spilled(), 3);
  int64_t next = 0;
  ASSERT_TRUE(sorter
                  .Finish([&](std::span<const Slice> fields) {
                    EXPECT_EQ(DecodeOrderedI64(fields[0].data()), next);
                    ++next;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(next, n);
}

TEST_F(SortTest, SortGroupByCombinesDuplicates) {
  ExternalSortGrouper grouper(MakeConfig(1 << 20), MinDoubleCombiner());
  // Messages to 100 destinations, 10 each; min payload should win.
  std::map<int64_t, double> expected;
  Random rnd(7);
  for (int i = 0; i < 1000; ++i) {
    const int64_t dest = static_cast<int64_t>(rnd.Uniform(100));
    const double dist = rnd.NextDouble() * 100;
    auto it = expected.find(dest);
    if (it == expected.end() || dist < it->second) expected[dest] = dist;
    const std::string k = OrderedKeyI64(dest);
    std::string payload;
    PutDouble(&payload, dist);
    const Slice t[2] = {Slice(k), Slice(payload)};
    ASSERT_TRUE(grouper.Add(t).ok());
  }
  std::map<int64_t, double> got;
  ASSERT_TRUE(grouper
                  .Finish([&](std::span<const Slice> fields) {
                    got[DecodeOrderedI64(fields[0].data())] =
                        DecodeDouble(fields[1].data());
                    return Status::OK();
                  })
                  .ok());
  ASSERT_EQ(got.size(), expected.size());
  for (const auto& [dest, dist] : expected) {
    EXPECT_DOUBLE_EQ(got[dest], dist);
  }
}

TEST_F(SortTest, SortGroupByCombinesAcrossSpilledRuns) {
  ExternalSortGrouper grouper(MakeConfig(2048), MinDoubleCombiner());
  std::map<int64_t, double> expected;
  Random rnd(8);
  for (int i = 0; i < 5000; ++i) {
    const int64_t dest = static_cast<int64_t>(rnd.Uniform(50));
    const double dist = rnd.NextDouble() * 100;
    auto it = expected.find(dest);
    if (it == expected.end() || dist < it->second) expected[dest] = dist;
    const std::string k = OrderedKeyI64(dest);
    std::string payload;
    PutDouble(&payload, dist);
    const Slice t[2] = {Slice(k), Slice(payload)};
    ASSERT_TRUE(grouper.Add(t).ok());
  }
  EXPECT_GT(grouper.runs_spilled(), 1);
  int groups = 0;
  ASSERT_TRUE(grouper
                  .Finish([&](std::span<const Slice> fields) {
                    const int64_t dest = DecodeOrderedI64(fields[0].data());
                    EXPECT_DOUBLE_EQ(DecodeDouble(fields[1].data()),
                                     expected[dest]);
                    ++groups;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(groups, 50);
}

TEST_F(SortTest, HashSortGroupByMatchesSortGroupBy) {
  HashSortGrouper hash_grouper(MakeConfig(1 << 20), MinDoubleCombiner());
  ExternalSortGrouper sort_grouper(MakeConfig(1 << 20), MinDoubleCombiner());
  Random rnd(9);
  for (int i = 0; i < 2000; ++i) {
    const int64_t dest = static_cast<int64_t>(rnd.Uniform(64));
    const double dist = rnd.NextDouble();
    const std::string k = OrderedKeyI64(dest);
    std::string payload;
    PutDouble(&payload, dist);
    const Slice t[2] = {Slice(k), Slice(payload)};
    ASSERT_TRUE(hash_grouper.Add(t).ok());
    ASSERT_TRUE(sort_grouper.Add(t).ok());
  }
  std::map<int64_t, double> hash_result, sort_result;
  ASSERT_TRUE(hash_grouper
                  .Finish([&](std::span<const Slice> fields) {
                    hash_result[DecodeOrderedI64(fields[0].data())] =
                        DecodeDouble(fields[1].data());
                    return Status::OK();
                  })
                  .ok());
  ASSERT_TRUE(sort_grouper
                  .Finish([&](std::span<const Slice> fields) {
                    sort_result[DecodeOrderedI64(fields[0].data())] =
                        DecodeDouble(fields[1].data());
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(hash_result, sort_result);
}

TEST_F(SortTest, HashSortSpillsAndStillCombines) {
  HashSortGrouper grouper(MakeConfig(2048), MinDoubleCombiner());
  std::map<int64_t, double> expected;
  Random rnd(10);
  for (int i = 0; i < 4000; ++i) {
    const int64_t dest = static_cast<int64_t>(rnd.Uniform(200));
    const double dist = rnd.NextDouble();
    auto it = expected.find(dest);
    if (it == expected.end() || dist < it->second) expected[dest] = dist;
    const std::string k = OrderedKeyI64(dest);
    std::string payload;
    PutDouble(&payload, dist);
    const Slice t[2] = {Slice(k), Slice(payload)};
    ASSERT_TRUE(grouper.Add(t).ok());
  }
  EXPECT_GT(grouper.runs_spilled(), 0);
  int64_t prev = INT64_MIN;
  int groups = 0;
  ASSERT_TRUE(grouper
                  .Finish([&](std::span<const Slice> fields) {
                    const int64_t dest = DecodeOrderedI64(fields[0].data());
                    EXPECT_GT(dest, prev);  // sorted, distinct
                    prev = dest;
                    EXPECT_DOUBLE_EQ(DecodeDouble(fields[1].data()),
                                     expected[dest]);
                    ++groups;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(groups, static_cast<int>(expected.size()));
}

TEST_F(SortTest, PreclusteredGrouperStreams) {
  PreclusteredGrouper grouper(ListCombiner(), &metrics_);
  std::vector<std::pair<int64_t, std::string>> got;
  auto emit = [&](std::span<const Slice> fields) {
    got.emplace_back(DecodeOrderedI64(fields[0].data()),
                     fields[1].ToString());
    return Status::OK();
  };
  // Sorted input: keys 1,1,2,3,3,3.
  for (const auto& [key, payload] :
       std::vector<std::pair<int64_t, std::string>>{
           {1, "a"}, {1, "b"}, {2, "c"}, {3, "d"}, {3, "e"}, {3, "f"}}) {
    const std::string k = OrderedKeyI64(key);
    ASSERT_TRUE(grouper.Add(k, ListItem(payload), emit).ok());
  }
  ASSERT_TRUE(grouper.Finish(emit).ok());
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].first, 1);
  EXPECT_EQ(got[1].first, 2);
  EXPECT_EQ(got[2].first, 3);
  // Group 3 gathered three payloads.
  Slice acc(got[2].second);
  Slice item;
  int count = 0;
  while (GetLengthPrefixed(&acc, &item)) ++count;
  EXPECT_EQ(count, 3);
}

TEST_F(SortTest, ListCombinerGathersAllMessages) {
  ExternalSortGrouper grouper(MakeConfig(4096), ListCombiner());
  const int dests = 10, per_dest = 37;
  for (int m = 0; m < per_dest; ++m) {
    for (int64_t d = 0; d < dests; ++d) {
      const std::string k = OrderedKeyI64(d);
      const std::string payload = ListItem("m" + std::to_string(m));
      const Slice t[2] = {Slice(k), Slice(payload)};
      ASSERT_TRUE(grouper.Add(t).ok());
    }
  }
  int total_messages = 0, groups = 0;
  ASSERT_TRUE(grouper
                  .Finish([&](std::span<const Slice> fields) {
                    Slice acc = fields[1];
                    Slice item;
                    while (GetLengthPrefixed(&acc, &item)) ++total_messages;
                    ++groups;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(groups, dests);
  EXPECT_EQ(total_messages, dests * per_dest);
}

TEST_F(SortTest, EmptyInputProducesNothing) {
  ExternalSortGrouper sorter(MakeConfig(1024));
  int count = 0;
  ASSERT_TRUE(sorter
                  .Finish([&](std::span<const Slice>) {
                    ++count;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(count, 0);

  HashSortGrouper grouper(MakeConfig(1024), MinDoubleCombiner());
  ASSERT_TRUE(grouper
                  .Finish([&](std::span<const Slice>) {
                    ++count;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(count, 0);
}

// Hand-built runs, written as extents of one spill file, fed straight into
// internal_sort::MergeRuns: one group's fragments sit in three different
// runs (two of which merge in different *passes* at fan-in 2), plus an
// empty run in the middle. With the
// order-sensitive ListCombiner the final accumulator proves both that
// combining works across run AND pass boundaries and that the loser tree
// breaks key ties by cursor index (run order), i.e. gather order is the
// run-creation order — the stability contract the Pregel gather path
// depends on.
TEST_F(SortTest, MergeRunsCombinesAcrossRunAndPassBoundaries) {
  SortConfig config = MakeConfig(1 << 20);
  config.merge_fanin = 2;
  const std::string k5 = OrderedKeyI64(5), k7 = OrderedKeyI64(7);
  internal_sort::SpillFile file(config);
  auto write_run =
      [&](std::vector<std::pair<const std::string*, std::string>> tuples) {
        for (const auto& [key, payload] : tuples) {
          const std::string item = ListItem(payload);
          const Slice t[2] = {Slice(*key), Slice(item)};
          EXPECT_TRUE(file.Append(t).ok());
        }
        RunExtent extent;
        EXPECT_TRUE(file.EndRun(&extent).ok());
        return extent;
      };
  std::vector<RunExtent> runs;
  runs.push_back(write_run({{&k5, "a"}}));
  runs.push_back(write_run({{&k5, "b"}}));
  runs.push_back(write_run({}));  // empty run: exhausted leaf at Init
  runs.push_back(write_run({{&k5, "c"}, {&k7, "x"}}));
  runs.push_back(write_run({{&k7, "y"}}));
  std::vector<std::pair<int64_t, std::vector<std::string>>> got;
  ASSERT_TRUE(internal_sort::MergeRuns(
                  config, ListCombiner(), &file, std::move(runs),
                  [&](std::span<const Slice> fields) {
                    std::vector<std::string> items;
                    Slice acc = fields[1], item;
                    while (GetLengthPrefixed(&acc, &item))
                      items.push_back(item.ToString());
                    got.emplace_back(DecodeOrderedI64(fields[0].data()),
                                     std::move(items));
                    return Status::OK();
                  })
                  .ok());
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].first, 5);
  EXPECT_EQ(got[0].second, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(got[1].first, 7);
  EXPECT_EQ(got[1].second, (std::vector<std::string>{"x", "y"}));
}

/// Regular files directly under `dir`.
int RegularFiles(const std::string& dir) {
  int n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) ++n;
  }
  return n;
}

/// Adds the next (key, min-distance) tuple of a seeded stream whose keys are
/// drawn from [0, 100000), so almost every tuple opens a new group.
template <typename Grouper>
Status AddRandomTuple(Grouper* grouper, Random* rnd) {
  const std::string k =
      OrderedKeyI64(static_cast<int64_t>(rnd->Uniform(100000)));
  std::string payload;
  PutDouble(&payload, rnd->NextDouble() * 100);
  const Slice t[2] = {Slice(k), Slice(payload)};
  return grouper->Add(t);
}

// One scratch file per grouper: at fan-in 2 a grouper that spills at least
// 10 runs merges in at least two intermediate passes, whose outputs are
// appended to the same file. Its scratch directory holds exactly one
// regular file through Add and Finish and none after destruction, and the
// output equals an in-memory grouper's.
template <typename Grouper>
void CheckOneSpillFilePerGrouper(SortConfig config, uint64_t seed) {
  TempDir scratch("spill-file");
  config.scratch_prefix = scratch.path() + "/g";
  config.merge_fanin = 2;
  SortConfig in_memory = config;
  in_memory.memory_budget_bytes = 1 << 20;
  using Output = std::vector<std::pair<std::string, std::string>>;
  Output got, expected;
  {
    Grouper grouper(config, MinDoubleCombiner());
    Grouper reference(in_memory, MinDoubleCombiner());
    Random rnd(seed), rnd_ref(seed);
    for (int i = 0; i < 3000; ++i) {
      ASSERT_TRUE(AddRandomTuple(&grouper, &rnd).ok());
      ASSERT_TRUE(AddRandomTuple(&reference, &rnd_ref).ok());
      ASSERT_EQ(RegularFiles(scratch.path()),
                grouper.runs_spilled() > 0 ? 1 : 0);
    }
    ASSERT_GE(grouper.runs_spilled(), 10);
    ASSERT_TRUE(grouper
                    .Finish([&](std::span<const Slice> fields) {
                      EXPECT_EQ(RegularFiles(scratch.path()), 1);
                      got.emplace_back(fields[0].ToString(),
                                       fields[1].ToString());
                      return Status::OK();
                    })
                    .ok());
    EXPECT_EQ(RegularFiles(scratch.path()), 1);
    ASSERT_TRUE(reference
                    .Finish([&](std::span<const Slice> fields) {
                      expected.emplace_back(fields[0].ToString(),
                                            fields[1].ToString());
                      return Status::OK();
                    })
                    .ok());
    EXPECT_EQ(reference.runs_spilled(), 0);
  }
  EXPECT_EQ(RegularFiles(scratch.path()), 0);
  EXPECT_EQ(got, expected);
}

TEST_F(SortTest, SortGrouperKeepsOneSpillFile) {
  CheckOneSpillFilePerGrouper<ExternalSortGrouper>(MakeConfig(4096), 41);
}

TEST_F(SortTest, HashGrouperKeepsOneSpillFile) {
  CheckOneSpillFilePerGrouper<HashSortGrouper>(MakeConfig(4096), 42);
}

// A torn write of the third spilled run is sticky: the failing Add returns
// the injected error, every later failure is that same error, Finish
// returns it and emits nothing, and the scratch file goes with the grouper.
// Without the sticky error, later runs would be written at offsets the
// torn run no longer matches.
template <typename Grouper>
void CheckTornSpillIsSticky(SortConfig config, uint64_t seed) {
  TempDir scratch("torn-spill");
  config.scratch_prefix = scratch.path() + "/g";
  fault::FaultSpec spec;
  spec.trigger = fault::Trigger::kNthHit;
  spec.n = 3;
  spec.action = fault::Action::kTornWrite;
  spec.message = "injected torn spill";
  fault::FaultInjector::Global().Arm("io.file.write", spec);
  Status first_error;
  Status finished;
  int emitted = 0;
  {
    Grouper grouper(config, MinDoubleCombiner());
    Random rnd(seed);
    for (int i = 0; i < 1000; ++i) {
      const Status s = AddRandomTuple(&grouper, &rnd);
      if (s.ok()) continue;
      if (first_error.ok()) first_error = s;
      EXPECT_EQ(s.ToString(), first_error.ToString());
    }
    finished = grouper.Finish([&](std::span<const Slice>) {
      ++emitted;
      return Status::OK();
    });
    EXPECT_EQ(RegularFiles(scratch.path()), 1);
  }
  fault::FaultInjector::Global().Reset();
  ASSERT_FALSE(first_error.ok());
  EXPECT_NE(first_error.message().find("injected torn spill"),
            std::string::npos)
      << first_error.ToString();
  EXPECT_EQ(finished.ToString(), first_error.ToString());
  EXPECT_EQ(emitted, 0);
  EXPECT_EQ(RegularFiles(scratch.path()), 0);
}

TEST_F(SortTest, SortGrouperTornSpillIsSticky) {
  CheckTornSpillIsSticky<ExternalSortGrouper>(MakeConfig(4096), 43);
}

TEST_F(SortTest, HashGrouperTornSpillIsSticky) {
  CheckTornSpillIsSticky<HashSortGrouper>(MakeConfig(4096), 44);
}

// Duplicate-heavy input through a tiny budget and fan-in 2: every group's
// tuples straddle many runs and several merge passes, and the combined
// result must still be one exact minimum per key.
TEST_F(SortTest, CombinerGroupsStraddleRunsAndPasses) {
  SortConfig config = MakeConfig(512);
  config.merge_fanin = 2;
  ExternalSortGrouper grouper(config, MinDoubleCombiner());
  std::map<int64_t, double> expected;
  Random rnd(21);
  for (int i = 0; i < 3000; ++i) {
    const int64_t dest = static_cast<int64_t>(rnd.Uniform(10));
    const double dist = rnd.NextDouble() * 100;
    auto it = expected.find(dest);
    if (it == expected.end() || dist < it->second) expected[dest] = dist;
    const std::string k = OrderedKeyI64(dest);
    std::string payload;
    PutDouble(&payload, dist);
    const Slice t[2] = {Slice(k), Slice(payload)};
    ASSERT_TRUE(grouper.Add(t).ok());
  }
  // Way more runs than fanin^2 so at least three merge passes happen.
  EXPECT_GT(grouper.runs_spilled(), 8);
  int groups = 0;
  ASSERT_TRUE(grouper
                  .Finish([&](std::span<const Slice> fields) {
                    const int64_t dest = DecodeOrderedI64(fields[0].data());
                    EXPECT_DOUBLE_EQ(DecodeDouble(fields[1].data()),
                                     expected[dest]);
                    ++groups;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(groups, static_cast<int>(expected.size()));
}

// Regression (S1): a combiner step that SHRINKS the accumulator. The old
// byte accounting subtracted sizes as size_t, so a shrink underflowed the
// counter to ~2^64, every later Add thought the table was over budget, and
// the grouper degenerated into spilling a run per tuple. With a generous
// budget there must be no spills at all.
TEST_F(SortTest, HashSortShrinkingAccumulatorDoesNotUnderflowBudget) {
  GroupCombiner last;  // acc := most recent payload (shrinks and grows)
  last.init = [](const Slice& p, std::string* acc) {
    acc->assign(p.data(), p.size());
  };
  last.step = [](const Slice& p, std::string* acc) {
    acc->assign(p.data(), p.size());
  };
  HashSortGrouper grouper(MakeConfig(1 << 20), last);
  const std::string long_payload(64, 'L');
  const std::string short_payload(8, 's');
  for (int round = 0; round < 200; ++round) {
    for (int64_t dest = 0; dest < 16; ++dest) {
      const std::string k = OrderedKeyI64(dest);
      const Slice& p = (round % 2 == 0) ? Slice(long_payload)
                                        : Slice(short_payload);
      const Slice t[2] = {Slice(k), p};
      ASSERT_TRUE(grouper.Add(t).ok());
    }
  }
  EXPECT_EQ(grouper.runs_spilled(), 0);
  int groups = 0;
  ASSERT_TRUE(grouper
                  .Finish([&](std::span<const Slice> fields) {
                    EXPECT_EQ(fields[1].ToString(), short_payload);
                    ++groups;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(groups, 16);
}

// S2: the sort grouper charges the Entry array's capacity against the
// budget, not just the tuple bytes. With empty payloads the per-tuple pool
// cost is 16 bytes but the honest cost is ~32+ (Entry capacity), so spills
// must happen roughly twice as often as a pool-bytes-only accounting would
// predict: 640 tuples at 16 pool bytes each under a 1 KiB budget would
// yield 10 runs; honest accounting yields strictly more.
TEST_F(SortTest, SortGrouperChargesEntryArrayToBudget) {
  ExternalSortGrouper sorter(MakeConfig(1024));
  for (int i = 0; i < 640; ++i) {
    const std::string k = OrderedKeyI64(i);
    const Slice t[2] = {Slice(k), Slice()};
    ASSERT_TRUE(sorter.Add(t).ok());
  }
  EXPECT_GT(sorter.runs_spilled(), 10);
  int64_t next = 0;
  ASSERT_TRUE(sorter
                  .Finish([&](std::span<const Slice> fields) {
                    EXPECT_EQ(DecodeOrderedI64(fields[0].data()), next++);
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(next, 640);
}

// The in-memory hash group-by hit path must not allocate: probing is a
// flat-array walk, the key is compared in place (transparent hash/eq, no
// materialized lookup key), and the min-combiner folds into the resident
// SSO accumulator. Counted with the binary-wide allocator hook above.
TEST_F(SortTest, HashSortHitPathDoesNotAllocate) {
  HashSortGrouper grouper(MakeConfig(1 << 20), MinDoubleCombiner());
  std::vector<std::string> keys;
  std::vector<std::string> payloads;
  for (int64_t dest = 0; dest < 64; ++dest) {
    keys.push_back(OrderedKeyI64(dest));
    std::string payload;
    PutDouble(&payload, 100.0 + static_cast<double>(dest));
    payloads.push_back(payload);
  }
  // Two warm-up rounds: the first creates every group, the second verifies
  // the table is steady (no slot growth pending).
  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < keys.size(); ++i) {
      const Slice t[2] = {Slice(keys[i]), Slice(payloads[i])};
      ASSERT_TRUE(grouper.Add(t).ok());
    }
  }
  const uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int round = 0; round < 100; ++round) {
    for (size_t i = 0; i < keys.size(); ++i) {
      const Slice t[2] = {Slice(keys[i]), Slice(payloads[i])};
      if (!grouper.Add(t).ok()) FAIL() << "Add failed";
    }
  }
  const uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "hit path allocated";
}

// S6: the merge refill boundary is a fault point. Arming it with an error
// makes a spilling Finish surface the injected status instead of OK.
TEST_F(SortTest, MergeRefillFaultPointSurfacesInjectedError) {
  fault::FaultSpec spec;
  spec.trigger = fault::Trigger::kNthHit;
  spec.n = 100;
  spec.code = StatusCode::kIoError;
  spec.message = "injected merge refill failure";
  fault::FaultInjector::Global().Arm("sort.merge.refill", spec);
  ExternalSortGrouper sorter(MakeConfig(1024));
  Random rnd(22);
  for (int i = 0; i < 2000; ++i) {
    const std::string k =
        OrderedKeyI64(static_cast<int64_t>(rnd.Uniform(1000)));
    const Slice t[2] = {Slice(k), Slice("p")};
    ASSERT_TRUE(sorter.Add(t).ok());
  }
  ASSERT_GT(sorter.runs_spilled(), 1);
  const Status s =
      sorter.Finish([](std::span<const Slice>) { return Status::OK(); });
  fault::FaultInjector::Global().Reset();
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.message().find("injected merge refill failure") !=
              std::string::npos)
      << s.message();
}

// Eager shuffle (SpillingGrouper::SetEagerSink): feeds `n` (key,
// min-distance) tuples with keys drawn from [0, key_range) to an eager
// grouper and a plain one of the same kind under the same small budget.
// Records how many tuples the sink saw before Finish and how many key-sorted
// streams it saw during Finish, folds everything the sink saw with the
// combiner (the receiving group-by's job), and checks the folded groups
// equal the plain grouper's output.
struct EagerRun {
  size_t shipped_before_finish = 0;
  int runs_spilled = 0;
  /// 1 + the key descents in the sink's stream during Finish: 2 when the
  /// remainder was drained and the runs were then merged after it.
  int finish_streams = 0;
};

template <typename Grouper>
EagerRun CheckEagerMatchesPlain(const SortConfig& config, uint64_t seed,
                                int n, uint64_t key_range) {
  SortConfig plain_config = config;
  plain_config.scratch_prefix += "-plain";  // the two spill side by side
  Grouper eager(config, MinDoubleCombiner());
  Grouper plain(plain_config, MinDoubleCombiner());
  std::map<int64_t, double> folded;
  size_t shipped = 0;
  const TupleEmitFn sink = [&](std::span<const Slice> fields) {
    ++shipped;
    const int64_t key = DecodeOrderedI64(fields[0].data());
    const double dist = DecodeDouble(fields[1].data());
    auto [it, inserted] = folded.emplace(key, dist);
    if (!inserted && dist < it->second) it->second = dist;
    return Status::OK();
  };
  eager.SetEagerSink(sink);
  Random rnd(seed);
  for (int i = 0; i < n; ++i) {
    const std::string k =
        OrderedKeyI64(static_cast<int64_t>(rnd.Uniform(key_range)));
    std::string payload;
    PutDouble(&payload, rnd.NextDouble() * 100);
    const Slice t[2] = {Slice(k), Slice(payload)};
    EXPECT_TRUE(eager.Add(t).ok());
    EXPECT_TRUE(plain.Add(t).ok());
  }
  EagerRun run;
  run.shipped_before_finish = shipped;
  run.runs_spilled = eager.runs_spilled();
  std::string last_key;
  EXPECT_TRUE(eager
                  .Finish([&](std::span<const Slice> fields) {
                    if (run.finish_streams == 0 ||
                        fields[0].compare(Slice(last_key)) < 0) {
                      ++run.finish_streams;
                    }
                    last_key = fields[0].ToString();
                    return sink(fields);
                  })
                  .ok());

  std::map<int64_t, double> expected;
  EXPECT_TRUE(plain
                  .Finish([&](std::span<const Slice> fields) {
                    expected[DecodeOrderedI64(fields[0].data())] =
                        DecodeDouble(fields[1].data());
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(folded.size(), expected.size());
  for (const auto& [key, dist] : expected) {
    auto it = folded.find(key);
    if (it == folded.end()) {
      ADD_FAILURE() << "key " << key << " never reached the sink";
      continue;
    }
    EXPECT_EQ(it->second, dist) << "key " << key;
  }
  return run;
}

TEST_F(SortTest, EagerSinkShipsHeavilyCombiningBatches) {
  // 20 keys: every budget-sized batch or table collapses to at most 20
  // groups, so overflows ship. The sort grouper judges a batch by the
  // previous drain, so its first overflow spills; the HashSort grouper
  // judges its live table.
  const EagerRun sort = CheckEagerMatchesPlain<ExternalSortGrouper>(
      MakeConfig(2048), 31, 5000, /*key_range=*/20);
  EXPECT_GT(sort.shipped_before_finish, 0u);
  EXPECT_EQ(sort.runs_spilled, 1);
  const EagerRun hash = CheckEagerMatchesPlain<HashSortGrouper>(
      MakeConfig(2048), 31, 5000, /*key_range=*/20);
  EXPECT_GT(hash.shipped_before_finish, 0u);
}

TEST_F(SortTest, EagerSinkSpillsPoorlyCombiningBatches) {
  // Keys far outnumber the tuples of one batch, so batches barely combine
  // and keep spilling: nothing reaches the sink before Finish.
  for (const EagerRun& run :
       {CheckEagerMatchesPlain<ExternalSortGrouper>(MakeConfig(2048), 32,
                                                    5000, 100000),
        CheckEagerMatchesPlain<HashSortGrouper>(MakeConfig(2048), 32, 5000,
                                                100000)}) {
    EXPECT_EQ(run.shipped_before_finish, 0u);
    EXPECT_GT(run.runs_spilled, 1);
  }
}

TEST_F(SortTest, EagerFinishDrainsRemainderThenMergesRuns) {
  // Spilled runs plus an in-memory remainder at Finish: the remainder goes
  // to the sink as one sorted stream and the merged runs follow as a second,
  // and the two folded together equal the plain grouper's output.
  for (const EagerRun& run :
       {CheckEagerMatchesPlain<ExternalSortGrouper>(MakeConfig(2048), 33,
                                                    3000, 100000),
        CheckEagerMatchesPlain<HashSortGrouper>(MakeConfig(2048), 33, 3000,
                                                100000)}) {
    EXPECT_GT(run.runs_spilled, 0);
    EXPECT_EQ(run.finish_streams, 2);
  }
}

// ---------------------------------------------------------------------------
// SortByNorm: the in-place radix kernel both groupers sort with

using NormItem = std::pair<uint64_t, uint32_t>;  // (norm, input position)

/// Radix-sorts `norms` tagged with their input positions and checks the
/// result against std::sort: the same key sequence, and a permutation of
/// the input (every position exactly once, still carrying its own key).
void CheckSortByNorm(const std::vector<uint64_t>& norms) {
  std::vector<NormItem> items(norms.size());
  for (size_t i = 0; i < norms.size(); ++i) {
    items[i] = {norms[i], static_cast<uint32_t>(i)};
  }
  SortByNorm(std::span<NormItem>(items),
             [](const NormItem& e) { return e.first; });
  std::vector<uint64_t> expected = norms;
  std::sort(expected.begin(), expected.end());
  ASSERT_EQ(items.size(), expected.size());
  std::vector<bool> seen(norms.size(), false);
  for (size_t i = 0; i < items.size(); ++i) {
    ASSERT_EQ(items[i].first, expected[i]) << "at " << i;
    ASSERT_LT(items[i].second, norms.size());
    ASSERT_FALSE(seen[items[i].second]) << "position repeated";
    seen[items[i].second] = true;
    ASSERT_EQ(norms[items[i].second], items[i].first) << "key lost its item";
  }
}

TEST(SortByNormTest, MatchesStdSortAcrossKeyShapes) {
  Random rnd(61);
  for (size_t n : {0, 1, 2, 7, 32, 33, 257, 5000, 100000}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::vector<uint64_t> random(n), dups(n), low_byte(n), mid_byte(n),
        equal(n, 0x0123456789abcdefull), ids(n), descending(n);
    for (size_t i = 0; i < n; ++i) {
      random[i] = rnd.Next();
      dups[i] = rnd.Uniform(5) << 40;  // five values, heavy duplication
      low_byte[i] = 0x1122334455667700ull | rnd.Uniform(256);
      mid_byte[i] = 0x1100000000000044ull | (rnd.Uniform(256) << 24);
      // Normalized 8-byte ordered vertex ids, as the send-side batches hold.
      ids[i] = NormalizedKeyPrefix(
          OrderedKeyI64(static_cast<int64_t>(rnd.Uniform(50000))));
      descending[i] = n - i;
    }
    for (const auto* norms :
         {&random, &dups, &low_byte, &mid_byte, &equal, &ids, &descending}) {
      CheckSortByNorm(*norms);
    }
  }
}

// Keys of different widths can share a normalized prefix ("a" and "a\0"),
// so a mixed-width batch must take the comparator sort: sorting on the norm
// alone would leave such keys in arbitrary order.
TEST_F(SortTest, MixedWidthBatchSortsByFullKey) {
  std::vector<std::string> keys;
  for (char c : {'a', 'b'}) {
    for (size_t width = 1; width <= 12; ++width) {
      std::string k(width, '\0');
      k[0] = c;
      keys.push_back(k);
      k.back() = '\1';
      keys.push_back(k);
    }
  }
  std::vector<std::string> expected = keys;
  std::sort(expected.begin(), expected.end());
  std::vector<std::string> input = expected;
  std::reverse(input.begin(), input.end());
  ExternalSortGrouper sorter(MakeConfig(1 << 20));
  for (const std::string& k : input) {
    const Slice t[2] = {Slice(k), Slice("v")};
    ASSERT_TRUE(sorter.Add(t).ok());
  }
  std::vector<std::string> got;
  ASSERT_TRUE(sorter
                  .Finish([&](std::span<const Slice> fields) {
                    got.push_back(fields[0].ToString());
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(got, expected);
}

/// Sums 8-byte unsigned payloads (exact, so any grouping order agrees).
GroupCombiner SumU64Combiner() {
  GroupCombiner c;
  c.init = [](const Slice& payload, std::string* acc) {
    acc->assign(payload.data(), payload.size());
  };
  c.step = [](const Slice& payload, std::string* acc) {
    uint64_t a, b;
    memcpy(&a, acc->data(), 8);
    memcpy(&b, payload.data(), 8);
    a += b;
    memcpy(acc->data(), &a, 8);
  };
  return c;
}

/// Feeds `n` tuples with keys of `key_width` bytes (≤ 8, so batches take the
/// radix kernel) drawn from [0, key_range) to a spilling grouper and checks
/// its combined output against an in-memory std::map reference.
template <typename Grouper>
void CheckGrouperAgainstMap(SortConfig config, size_t key_width,
                            uint64_t key_range, int n, uint64_t seed) {
  std::map<std::string, uint64_t> reference;
  Grouper grouper(config, SumU64Combiner());
  Random rnd(seed);
  for (int i = 0; i < n; ++i) {
    const std::string id =
        OrderedKeyI64(static_cast<int64_t>(rnd.Uniform(key_range)));
    const std::string key = id.substr(8 - key_width);
    const uint64_t value = rnd.Uniform(1000);
    std::string payload(8, '\0');
    memcpy(payload.data(), &value, 8);
    reference[key] += value;
    const Slice t[2] = {Slice(key), Slice(payload)};
    ASSERT_TRUE(grouper.Add(t).ok());
  }
  EXPECT_GT(grouper.runs_spilled(), 1);
  auto next = reference.begin();
  ASSERT_TRUE(grouper
                  .Finish([&](std::span<const Slice> fields) {
                    EXPECT_NE(next, reference.end());
                    if (next == reference.end()) return Status::OK();
                    uint64_t sum;
                    memcpy(&sum, fields[1].data(), 8);
                    EXPECT_EQ(fields[0].ToString(), next->first);
                    EXPECT_EQ(sum, next->second);
                    ++next;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(next, reference.end());
}

TEST_F(SortTest, RadixSortedGroupersMatchInMemoryReference) {
  for (size_t width : {8, 4, 2}) {
    SCOPED_TRACE("key width " + std::to_string(width));
    const uint64_t range = width == 2 ? 60000 : 200000;
    CheckGrouperAgainstMap<ExternalSortGrouper>(MakeConfig(8192), width,
                                                range, 20000, 71 + width);
    CheckGrouperAgainstMap<HashSortGrouper>(MakeConfig(8192), width, range,
                                            20000, 81 + width);
    // Duplicate-heavy: 50 keys.
    CheckGrouperAgainstMap<ExternalSortGrouper>(MakeConfig(2048), width, 50,
                                                20000, 91 + width);
  }
}

}  // namespace
}  // namespace pregelix
