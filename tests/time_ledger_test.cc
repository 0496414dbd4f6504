// Worker time ledger (DESIGN.md §20): conservation on attach/detach, nested
// scope suspend/resume, reattribution of measured waits, contended-lock
// accounting, guard-misuse counting, and end-to-end surface consistency —
// after a full PageRank run, /profilez (JSON and collapsed), the Prometheus
// exposition, and TakeSnapshot must all report the same totals, with zero
// unattributed nanoseconds. Finally, the ledger observes and never steers:
// SSSP and PageRank run the same supersteps, dump the same bytes and meter
// the same simulated time with the ledger off as with it on.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/algorithms.h"
#include "common/event_journal.h"
#include "common/metrics.h"
#include "common/metrics_registry.h"
#include "common/mutex.h"
#include "common/temp_dir.h"
#include "common/time_ledger.h"
#include "dataflow/cluster.h"
#include "dfs/dfs.h"
#include "graph/generator.h"
#include "io/file.h"
#include "pregel/runtime.h"
#include "server/http.h"
#include "server/job_registry.h"
#include "server/server.h"

namespace pregelix {
namespace {

/// Burns wall time on the steady clock the ledger reads, so every test
/// interval is bounded below deterministically (sleep_for could oversleep,
/// never undersleep — but a spin keeps the thread attached-and-running the
/// way engine threads are).
void SpinFor(uint64_t ns) {
  const uint64_t until = TimeLedger::NowNs() + ns;
  while (TimeLedger::NowNs() < until) {
  }
}

TEST(TimeLedgerTest, AttachDetachConservesExactly) {
  TimeLedger& ledger = TimeLedger::Global();
  ledger.Reset();
  ASSERT_TRUE(TimeLedger::AttachCurrentThread(0, TimeCategory::kCompute,
                                              "unit-op"));
  EXPECT_TRUE(TimeLedger::CurrentThreadAttached());
  // Double attach refuses and stays inert.
  EXPECT_FALSE(
      TimeLedger::AttachCurrentThread(1, TimeCategory::kIdle, "dup"));
  SpinFor(1'000'000);
  TimeLedger::DetachCurrentThread();
  EXPECT_FALSE(TimeLedger::CurrentThreadAttached());

  const TimeLedgerSnapshot snap = ledger.TakeSnapshot();
  EXPECT_EQ(snap.unattributed_ns, 0);
  EXPECT_EQ(snap.misuse_count, 0);
  EXPECT_GE(snap.elapsed_ns, 1'000'000);
  // Conservation: every attached nanosecond is in exactly one bucket.
  EXPECT_EQ(snap.attributed_ns(), snap.elapsed_ns);
  // All of it landed in the base category of the one attached thread.
  EXPECT_EQ(snap.ns(TimeCategory::kCompute), snap.elapsed_ns);
  ASSERT_EQ(snap.cells.size(), 1u);
  EXPECT_EQ(snap.cells[0].worker, 0);
  EXPECT_EQ(snap.cells[0].label, "unit-op");
}

TEST(TimeLedgerTest, NestedScopesSuspendParentWithoutDoubleCounting) {
  TimeLedger& ledger = TimeLedger::Global();
  ledger.Reset();
  ASSERT_TRUE(
      TimeLedger::AttachCurrentThread(0, TimeCategory::kCompute, "nested"));
  SpinFor(500'000);  // compute
  {
    ScopedTimeCategory sort(TimeCategory::kSort);
    SpinFor(2'000'000);
    {
      ScopedTimeCategory merge(TimeCategory::kMerge);
      SpinFor(2'000'000);
    }
    SpinFor(1'000'000);  // back in sort after the nested scope pops
  }
  SpinFor(500'000);  // back in compute
  TimeLedger::DetachCurrentThread();

  const TimeLedgerSnapshot snap = ledger.TakeSnapshot();
  EXPECT_EQ(snap.unattributed_ns, 0);
  EXPECT_EQ(snap.misuse_count, 0);
  EXPECT_EQ(snap.attributed_ns(), snap.elapsed_ns);
  // Each category holds at least its own spins — and strictly less than the
  // whole, which it would swallow if nesting failed to suspend the parent.
  EXPECT_GE(snap.ns(TimeCategory::kSort), 3'000'000);
  EXPECT_GE(snap.ns(TimeCategory::kMerge), 2'000'000);
  EXPECT_GE(snap.ns(TimeCategory::kCompute), 1'000'000);
  EXPECT_LT(snap.ns(TimeCategory::kSort), snap.elapsed_ns);
  EXPECT_LT(snap.ns(TimeCategory::kMerge),
            snap.elapsed_ns - snap.ns(TimeCategory::kSort));
}

TEST(TimeLedgerTest, ReattributeMovesExactNanoseconds) {
  TimeLedger& ledger = TimeLedger::Global();
  ledger.Reset();
  ASSERT_TRUE(
      TimeLedger::AttachCurrentThread(0, TimeCategory::kCompute, "reattr"));
  SpinFor(2'000'000);
  TimeLedger::Reattribute(TimeCategory::kIoWait, 1'000'000);
  // Reattributing into the current category is a no-op by contract.
  {
    ScopedTimeCategory io_wait(TimeCategory::kIoWait);
    TimeLedger::Reattribute(TimeCategory::kIoWait, 123'456'789);
  }
  TimeLedger::DetachCurrentThread();

  const TimeLedgerSnapshot snap = ledger.TakeSnapshot();
  EXPECT_EQ(snap.unattributed_ns, 0);
  // The move is exact: the io_wait bucket carries precisely the measured
  // wait (plus whatever the brief io_wait scope itself accrued, < the spin).
  EXPECT_GE(snap.ns(TimeCategory::kIoWait), 1'000'000);
  EXPECT_LT(snap.ns(TimeCategory::kIoWait), 2'000'000);
  // Conservation survives the move — it shifts, never creates, time.
  EXPECT_EQ(snap.attributed_ns(), snap.elapsed_ns);
}

TEST(TimeLedgerTest, CrossThreadGuardDestructionIsCountedNotCorrupting) {
  TimeLedger& ledger = TimeLedger::Global();
  ledger.Reset();

  std::unique_ptr<ScopedTimeCategory> stray;
  std::atomic<bool> guard_made{false};
  std::atomic<bool> may_detach{false};
  std::thread t([&]() {
    ASSERT_TRUE(
        TimeLedger::AttachCurrentThread(7, TimeCategory::kCompute, "owner"));
    stray = std::make_unique<ScopedTimeCategory>(TimeCategory::kSort);
    guard_made.store(true);
    while (!may_detach.load()) {
    }
    // Detaching with the guard still open is the second misuse: the stack
    // entry is counted and the bracketed time stays in its category.
    TimeLedger::DetachCurrentThread();
  });
  while (!guard_made.load()) {
  }
  // First misuse: destroyed on this (unattached) thread — the guard must
  // skip accounting instead of touching the owner's stack.
  stray.reset();
  may_detach.store(true);
  t.join();

  const TimeLedgerSnapshot snap = ledger.TakeSnapshot();
  EXPECT_EQ(snap.misuse_count, 2);
  // Misuse never costs nanoseconds: conservation still holds exactly.
  EXPECT_EQ(snap.unattributed_ns, 0);
  EXPECT_EQ(snap.attributed_ns(), snap.elapsed_ns);
}

TEST(TimeLedgerTest, GuardsAreInertOnUnattachedThreads) {
  TimeLedger& ledger = TimeLedger::Global();
  ledger.Reset();
  ASSERT_FALSE(TimeLedger::CurrentThreadAttached());
  {
    ScopedTimeCategory sort(TimeCategory::kSort);
    ScopedTimeCategory merge(TimeCategory::kMerge);
  }
  TimeLedger::Reattribute(TimeCategory::kIoWait, 1'000'000);
  TimeLedger::ChargeLockWait("inert_lock", 1'000'000);
  const TimeLedgerSnapshot snap = ledger.TakeSnapshot();
  EXPECT_EQ(snap.misuse_count, 0);
  EXPECT_EQ(snap.attributed_ns(), 0);
  EXPECT_TRUE(snap.locks.empty());
}

// File create, open, close and unlink are I/O even when no byte moves:
// create, open-for-write, close and unlink go to io_write, and opening a
// file for reads goes to io_read, not to the enclosing category.
TEST(TimeLedgerTest, FileSyscallsAreChargedToIo) {
  TempDir dir("ledger-files");
  TimeLedger& ledger = TimeLedger::Global();
  ledger.Reset();
  ASSERT_TRUE(
      TimeLedger::AttachCurrentThread(0, TimeCategory::kCompute, "files"));
  bool ok = true;
  for (int i = 0; i < 50 && ok; ++i) {
    const std::string path = dir.path() + "/f" + std::to_string(i);
    std::unique_ptr<WritableFile> w;
    std::unique_ptr<RandomAccessFile> r;
    ok = WritableFile::Open(path, nullptr, &w).ok() && w->Close().ok() &&
         RandomAccessFile::Open(path, nullptr, &r).ok();
    r.reset();
    DeleteFileIfExists(path);
  }
  TimeLedger::DetachCurrentThread();
  ASSERT_TRUE(ok);
  const TimeLedgerSnapshot snap = ledger.TakeSnapshot();
  EXPECT_EQ(snap.attributed_ns(), snap.elapsed_ns);
  EXPECT_GT(snap.ns(TimeCategory::kIoWrite), 0);
  EXPECT_GT(snap.ns(TimeCategory::kIoRead), 0);
}

TEST(TimeLedgerTest, ContendedMutexChargesLockWaitTable) {
  TimeLedger& ledger = TimeLedger::Global();
  ledger.Reset();

  Mutex contended("ledger_test_lock", LockRank::kChannel);
  auto contended_waits = [&ledger]() -> int64_t {
    for (const TimeLedgerSnapshot::LockWait& l : ledger.TakeSnapshot().locks) {
      if (l.name == "ledger_test_lock") return l.count;
    }
    return 0;
  };

  ASSERT_TRUE(
      TimeLedger::AttachCurrentThread(0, TimeCategory::kCompute, "waiter"));
  // The holder keeps the lock for 5 ms after the waiter announces itself,
  // so the waiter's try_lock fails unless it is descheduled that long
  // between the announcement and the attempt; a round that found the lock
  // free is repeated, a bounded number of times.
  for (int round = 0; round < 20 && contended_waits() == 0; ++round) {
    std::atomic<bool> held{false};
    std::atomic<bool> waiting{false};
    std::thread holder([&]() {
      MutexLock lock(&contended);
      held.store(true);
      while (!waiting.load()) {
      }
      SpinFor(5'000'000);
    });
    while (!held.load()) {
    }
    waiting.store(true);
    {
      // Blocks until the holder releases: a contended acquisition, so
      // pregelix::Mutex charges the blocked interval to the ledger.
      MutexLock lock(&contended);
    }
    holder.join();
  }
  TimeLedger::DetachCurrentThread();

  const TimeLedgerSnapshot snap = ledger.TakeSnapshot();
  EXPECT_EQ(snap.unattributed_ns, 0);
  EXPECT_EQ(snap.attributed_ns(), snap.elapsed_ns);
  EXPECT_GT(snap.ns(TimeCategory::kLockWait), 0);
  bool found = false;
  for (const TimeLedgerSnapshot::LockWait& l : snap.locks) {
    if (l.name != "ledger_test_lock") continue;
    found = true;
    EXPECT_GE(l.count, 1);
    EXPECT_GT(l.ns, 0);
    // The per-lock table and the category bucket measure the same blocked
    // intervals (other engine locks may add to the bucket, never subtract).
    EXPECT_LE(l.ns, snap.ns(TimeCategory::kLockWait));
  }
  EXPECT_TRUE(found);
}

TEST(TimeLedgerTest, DisabledLedgerRefusesAttachesAndStaysEmpty) {
  TimeLedger& ledger = TimeLedger::Global();
  ledger.Reset();
  ledger.SetEnabled(false);
  EXPECT_FALSE(
      TimeLedger::AttachCurrentThread(0, TimeCategory::kCompute, "off"));
  {
    ScopedTimeCategory sort(TimeCategory::kSort);
    SpinFor(100'000);
  }
  ledger.SetEnabled(true);
  const TimeLedgerSnapshot snap = ledger.TakeSnapshot();
  EXPECT_EQ(snap.elapsed_ns, 0);
  EXPECT_EQ(snap.attributed_ns(), 0);
  EXPECT_EQ(snap.misuse_count, 0);
}

// ---------------------------------------------------------------------------
// End-to-end surface consistency

int64_t JsonInt(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = json.find(needle);
  if (pos == std::string::npos) return -1;
  return std::strtoll(json.c_str() + pos + needle.size(), nullptr, 10);
}

TEST(TimeLedgerE2eTest, FullRunConservesAndAllSurfacesAgree) {
  TimeLedger& ledger = TimeLedger::Global();
  ledger.Reset();
  server::JobStatusRegistry::Global().Reset();
  const uint64_t journal_start = EventJournal::Global().last_seq();

  TempDir dir("ledger-e2e");
  DistributedFileSystem dfs(dir.Sub("dfs"));
  {
    ClusterConfig config;
    config.num_workers = 2;
    config.partitions_per_worker = 2;
    config.worker_ram_bytes = 8u << 20;
    config.frame_size = 8 * 1024;
    config.temp_root = dir.Sub("cluster");
    SimulatedCluster cluster(config);
    PregelixRuntime runtime(&cluster, &dfs);
    GraphStats stats;
    ASSERT_TRUE(
        GenerateWebmapLike(dfs, "input/g", 3, 600, 6.0, 42, &stats).ok());

    PageRankProgram program(6);
    PageRankProgram::Adapter adapter(&program);
    PregelixJobConfig job;
    job.name = "ledger-e2e";
    job.job_id = "ledger-e2e";
    job.input_dir = "input/g";
    JobResult result;
    ASSERT_TRUE(runtime.Run(&adapter, job, &result).ok());
    ASSERT_GE(result.supersteps, 6);
  }
  // Cluster destroyed: every engine thread has detached, so the ledger is
  // static and all surfaces below must agree exactly.

  const TimeLedgerSnapshot snap = ledger.TakeSnapshot();
  // Conservation on a full job, across every instrumented thread.
  EXPECT_EQ(snap.unattributed_ns, 0);
  EXPECT_EQ(snap.misuse_count, 0);
  EXPECT_EQ(snap.attributed_ns(), snap.elapsed_ns);
  EXPECT_GT(snap.ns(TimeCategory::kCompute), 0);
  EXPECT_GT(snap.ns(TimeCategory::kBarrierWait), 0);

  // /profilez JSON: byte-for-byte what WriteJson produces, with the same
  // totals the snapshot reports.
  server::ObservabilityServer srv(server::ServerOptions{}, nullptr, nullptr,
                                  nullptr);
  server::HttpRequest req;
  req.method = "GET";
  req.path = "/profilez";
  const server::HttpResponse json_resp = srv.Dispatch(req);
  EXPECT_EQ(json_resp.code, 200);
  EXPECT_EQ(json_resp.content_type, "application/json");
  std::ostringstream json_os;
  ledger.WriteJson(json_os);
  EXPECT_EQ(json_resp.body, json_os.str());
  EXPECT_EQ(JsonInt(json_resp.body, "elapsed_ns"), snap.elapsed_ns);
  EXPECT_EQ(JsonInt(json_resp.body, "attributed_ns"), snap.attributed_ns());
  EXPECT_EQ(JsonInt(json_resp.body, "unattributed_ns"), 0);

  // /profilez?format=collapsed: one `worker;operator;category ns` line per
  // positive cell entry; the integer sum reproduces the snapshot exactly.
  req.query = "format=collapsed";
  const server::HttpResponse collapsed_resp = srv.Dispatch(req);
  EXPECT_EQ(collapsed_resp.code, 200);
  int64_t collapsed_sum = 0;
  int64_t positive_cell_sum = 0;
  {
    std::istringstream in(collapsed_resp.body);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      const size_t space = line.rfind(' ');
      ASSERT_NE(space, std::string::npos) << line;
      collapsed_sum += std::strtoll(line.c_str() + space + 1, nullptr, 10);
    }
    for (const TimeLedgerSnapshot::Cell& cell : snap.cells) {
      for (int64_t ns : cell.ns) {
        if (ns > 0) positive_cell_sum += ns;
      }
    }
  }
  EXPECT_EQ(collapsed_sum, positive_cell_sum);
  req.query.clear();

  // A bad format is rejected, not served as something else.
  req.query = "format=xml";
  EXPECT_EQ(srv.Dispatch(req).code, 400);
  req.query.clear();

  // Prometheus: pregelix_time_seconds_total series sum back to the
  // attributed total (each value is ns-exact decimal seconds).
  std::ostringstream prom;
  ledger.WritePrometheus(prom);
  const std::string exposition = prom.str();
  double prom_seconds = 0;
  {
    std::istringstream in(exposition);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("pregelix_time_seconds_total{", 0) != 0) continue;
      const size_t space = line.rfind(' ');
      ASSERT_NE(space, std::string::npos) << line;
      prom_seconds += std::strtod(line.c_str() + space + 1, nullptr);
    }
  }
  EXPECT_NEAR(prom_seconds * 1e9, static_cast<double>(snap.attributed_ns()),
              1e4);

  // /metrics carries the ledger families and its conservation gauges.
  req.path = "/metrics";
  const server::HttpResponse metrics_resp = srv.Dispatch(req);
  EXPECT_EQ(metrics_resp.code, 200);
  EXPECT_NE(metrics_resp.body.find("pregelix_time_seconds_total"),
            std::string::npos);
  EXPECT_NE(metrics_resp.body.find("pregelix_ledger_unattributed_ns"),
            std::string::npos);

  // Per-superstep ledger deltas reached the job registry and /jobs/<id>.
  server::JobStatus status;
  ASSERT_TRUE(server::JobStatusRegistry::Global().Get("ledger-e2e", &status));
  ASSERT_FALSE(status.recent.empty());
  int briefs_with_ledger = 0;
  for (const server::SuperstepBrief& b : status.recent) {
    int64_t sum = 0;
    for (int64_t ns : b.ledger_ns) sum += ns;
    if (sum > 0) ++briefs_with_ledger;
  }
  EXPECT_GT(briefs_with_ledger, 0);
  std::ostringstream job_os;
  ASSERT_TRUE(
      server::JobStatusRegistry::Global().WriteJobJson("ledger-e2e", job_os));
  EXPECT_NE(job_os.str().find("\"ledger_ns\":{"), std::string::npos);

  // ... and the superstep.end journal events carry the same rollup.
  std::ostringstream events;
  EventJournal::Global().WriteJsonl(events, journal_start, 0);
  EXPECT_NE(events.str().find("ledger_ns"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Ledger off vs on

/// What one job run leaves behind for the off/on comparison.
struct JobArm {
  int64_t supersteps = 0;
  double sim_seconds = 0;
  std::string output;  ///< every output part, concatenated in name order
};

/// Runs PageRank on `web` or SSSP on `btc` on a fresh 2-worker cluster with
/// 1 MB per worker, dumping to `output`.
void RunJobArm(DistributedFileSystem& dfs, const std::string& root,
               bool pagerank, const std::string& output, JobArm* arm) {
  {
    ClusterConfig config;
    config.num_workers = 2;
    config.worker_ram_bytes = 1u << 20;
    config.frame_size = 8 * 1024;
    config.page_size = 2 * 1024;
    config.temp_root = root;
    SimulatedCluster cluster(config);
    PregelixRuntime runtime(&cluster, &dfs);
    SsspProgram sssp(0);
    SsspProgram::Adapter sssp_adapter(&sssp);
    PageRankProgram ranks(5);
    PageRankProgram::Adapter ranks_adapter(&ranks);
    PregelixJobConfig job;
    job.name = "ledger-off-on";
    job.input_dir = pagerank ? "web" : "btc";
    job.output_dir = output;
    JobResult result;
    const Status s = runtime.Run(
        pagerank ? static_cast<PregelProgram*>(&ranks_adapter)
                 : &sssp_adapter,
        job, &result);
    ASSERT_TRUE(s.ok()) << s.ToString();
    arm->supersteps = result.supersteps;
    arm->sim_seconds = result.total_sim_seconds;
  }
  // The cluster is gone, so every engine thread has detached.
  std::vector<std::string> parts;
  ASSERT_TRUE(dfs.List(output, &parts).ok());
  for (const std::string& part : parts) {
    std::string contents;
    ASSERT_TRUE(dfs.Read(output + "/" + part, &contents).ok());
    arm->output += part + ":\n" + contents;
  }
}

/// Compares two runs' output line by line. SSSP is compared byte for byte.
/// PageRank sums floating-point messages in arrival order, and when the
/// group-by spills, senders' arrival order shapes the partial sums, so two
/// identical runs can differ in the last bits whether the ledger is on or
/// off. Its values are compared to a 1e-12 relative bound instead.
void ExpectSameOutput(const std::string& off, const std::string& on,
                      bool float_values) {
  if (!float_values) {
    EXPECT_EQ(off, on) << "the ledger changed the computed values";
    return;
  }
  std::istringstream off_lines(off), on_lines(on);
  std::string a, b;
  int64_t lines = 0;
  while (std::getline(off_lines, a)) {
    ASSERT_TRUE(std::getline(on_lines, b)) << "ledger-on output is shorter";
    ++lines;
    if (a == b) continue;
    std::istringstream fa(a), fb(b);
    int64_t vid_a = -1, vid_b = -2;
    double va = 0, vb = 0;
    ASSERT_TRUE((fa >> vid_a >> va) && (fb >> vid_b >> vb))
        << "line " << lines << ": '" << a << "' vs '" << b << "'";
    ASSERT_EQ(vid_a, vid_b) << "line " << lines;
    ASSERT_LE(std::abs(va - vb), 1e-12 * std::max(std::abs(va), std::abs(vb)))
        << "vid " << vid_a << ": " << a << " vs " << b;
  }
  EXPECT_FALSE(std::getline(on_lines, b)) << "ledger-on output is longer";
}

/// Turns the global ledger off for its scope, and back on at exit even when
/// a failed assertion returns from the test early.
class LedgerOffScope {
 public:
  LedgerOffScope() { TimeLedger::Global().SetEnabled(false); }
  ~LedgerOffScope() { TimeLedger::Global().SetEnabled(true); }
};

TEST(TimeLedgerE2eTest, LedgerOffRunMatchesLedgerOn) {
  TempDir dir("ledger-off-on");
  DistributedFileSystem dfs(dir.Sub("dfs"));
  GraphStats stats;
  ASSERT_TRUE(GenerateBtcLike(dfs, "btc", 4, 3000, 8.94, 5000, &stats).ok());
  ASSERT_TRUE(
      GenerateWebmapLike(dfs, "web", 4, 3000, 8.0, 4000, &stats).ok());

  for (const bool pagerank : {false, true}) {
    SCOPED_TRACE(pagerank ? "pagerank on web" : "sssp on btc");
    const std::string name = pagerank ? "pagerank" : "sssp";

    // Ledger off first: every attach is refused and every guard is inert,
    // so the run must leave the books empty.
    TimeLedger::Global().Reset();
    JobArm off;
    {
      LedgerOffScope ledger_off;
      ASSERT_NO_FATAL_FAILURE(RunJobArm(dfs, dir.Sub(name + "-off"), pagerank,
                                        "out-" + name + "-off", &off));
      const TimeLedgerSnapshot snap = TimeLedger::Global().TakeSnapshot();
      EXPECT_EQ(snap.elapsed_ns, 0);
      EXPECT_EQ(snap.attributed_ns(), 0);
    }

    // Ledger on, from clean books, so conservation describes this run alone.
    TimeLedger::Global().Reset();
    JobArm on;
    ASSERT_NO_FATAL_FAILURE(RunJobArm(dfs, dir.Sub(name + "-on"), pagerank,
                                      "out-" + name + "-on", &on));
    EXPECT_EQ(TimeLedger::Global().TakeSnapshot().unattributed_ns, 0);

    EXPECT_EQ(off.supersteps, on.supersteps);
    ASSERT_FALSE(on.output.empty());
    ExpectSameOutput(off.output, on.output, /*float_values=*/pagerank);
    ASSERT_GT(off.sim_seconds, 0);
    EXPECT_LE(std::abs(on.sim_seconds / off.sim_seconds - 1.0), 0.02)
        << "simulated seconds " << off.sim_seconds << " off vs "
        << on.sim_seconds << " on";
  }
}

}  // namespace
}  // namespace pregelix
