#include "common/fault_injection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/algorithms.h"
#include "common/event_journal.h"
#include "common/temp_dir.h"
#include "dataflow/cluster.h"
#include "dataflow/job.h"
#include "io/file.h"
#include "pregel/plan_optimizer.h"
#include "pregel/state.h"

namespace pregelix {
namespace {

using fault::Action;
using fault::FaultInjector;
using fault::FaultSpec;
using fault::Trigger;

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }
};

TEST_F(FaultInjectionTest, DisarmedIsOk) {
  EXPECT_FALSE(FaultInjector::Global().any_armed());
  EXPECT_TRUE(fault::MaybeFail("io.file.write").ok());
  // An unarmed injector records nothing.
  EXPECT_EQ(FaultInjector::Global().Stats("io.file.write").hits, 0u);
}

TEST_F(FaultInjectionTest, NthHitFiresExactlyOnce) {
  FaultSpec spec;
  spec.trigger = Trigger::kNthHit;
  spec.n = 3;
  FaultInjector::Global().Arm("p", spec);
  EXPECT_TRUE(fault::MaybeFail("p").ok());
  EXPECT_TRUE(fault::MaybeFail("p").ok());
  Status s = fault::MaybeFail("p");
  EXPECT_TRUE(s.IsIoError()) << s.ToString();
  EXPECT_TRUE(fault::MaybeFail("p").ok());  // past n: quiet again
  const auto stats = FaultInjector::Global().Stats("p");
  EXPECT_EQ(stats.hits, 4u);
  EXPECT_EQ(stats.fires, 1u);
}

TEST_F(FaultInjectionTest, EveryKthFiresPeriodically) {
  FaultSpec spec;
  spec.trigger = Trigger::kEveryKth;
  spec.n = 2;
  FaultInjector::Global().Arm("p", spec);
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    if (!fault::MaybeFail("p").ok()) ++fired;
  }
  EXPECT_EQ(fired, 5);
}

TEST_F(FaultInjectionTest, UnrelatedPointDoesNotFire) {
  FaultInjector::Global().Arm("p", FaultSpec{});
  EXPECT_TRUE(fault::MaybeFail("q").ok());
  EXPECT_FALSE(fault::MaybeFail("p").ok());
}

TEST_F(FaultInjectionTest, ProbabilityIsSeedDeterministic) {
  auto schedule = [&](uint64_t seed) {
    FaultSpec spec;
    spec.trigger = Trigger::kProbability;
    spec.probability = 0.3;
    spec.seed = seed;
    FaultInjector::Global().Arm("p", spec);
    std::vector<bool> fires;
    for (int i = 0; i < 200; ++i) {
      fires.push_back(!fault::MaybeFail("p").ok());
    }
    FaultInjector::Global().Disarm("p");
    return fires;
  };
  const auto a1 = schedule(42);
  const auto a2 = schedule(42);
  const auto b = schedule(43);
  EXPECT_EQ(a1, a2);  // same seed => same failure schedule
  EXPECT_NE(a1, b);   // different seed => different schedule
  const int fired = static_cast<int>(std::count(a1.begin(), a1.end(), true));
  EXPECT_GT(fired, 20);   // ~60 expected at p=0.3
  EXPECT_LT(fired, 120);
}

TEST_F(FaultInjectionTest, SuperstepScopeGatesFiring) {
  FaultSpec spec;
  spec.scope_superstep = 5;
  FaultInjector::Global().Arm("p", spec);
  EXPECT_TRUE(fault::MaybeFail("p").ok());  // no scope set
  FaultInjector::Global().SetScope(4);
  EXPECT_TRUE(fault::MaybeFail("p").ok());
  FaultInjector::Global().SetScope(5);
  EXPECT_FALSE(fault::MaybeFail("p").ok());
  FaultInjector::Global().SetScope(6);
  EXPECT_TRUE(fault::MaybeFail("p").ok());
}

TEST_F(FaultInjectionTest, MaxFiresBoundsTheDamage) {
  FaultSpec spec;
  spec.max_fires = 2;
  FaultInjector::Global().Arm("p", spec);
  EXPECT_FALSE(fault::MaybeFail("p").ok());
  EXPECT_FALSE(fault::MaybeFail("p").ok());
  EXPECT_TRUE(fault::MaybeFail("p").ok());
  EXPECT_EQ(FaultInjector::Global().Stats("p").fires, 2u);
}

TEST_F(FaultInjectionTest, CrashActionReturnsAborted) {
  FaultSpec spec;
  spec.action = Action::kCrash;
  FaultInjector::Global().Arm("p", spec);
  Status s = fault::MaybeFail("p");
  EXPECT_TRUE(s.IsAborted());
  EXPECT_TRUE(fault::IsSimulatedCrash(s));
}

TEST_F(FaultInjectionTest, ErrorCodeIsConfigurable) {
  FaultSpec spec;
  spec.code = StatusCode::kCorruption;
  spec.message = "bit rot";
  FaultInjector::Global().Arm("p", spec);
  Status s = fault::MaybeFail("p");
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.ToString().find("bit rot"), std::string::npos);
}

TEST_F(FaultInjectionTest, TornWriteHalvesTheLength) {
  FaultSpec spec;
  spec.action = Action::kTornWrite;
  FaultInjector::Global().Arm("p", spec);
  size_t len = 1000;
  Status s = fault::MaybeFailWrite("p", &len);
  EXPECT_TRUE(s.IsIoError());
  EXPECT_EQ(len, 500u);

  // Plain error action: nothing gets written.
  FaultInjector::Global().Arm("q", FaultSpec{});
  len = 1000;
  s = fault::MaybeFailWrite("q", &len);
  EXPECT_TRUE(s.IsIoError());
  EXPECT_EQ(len, 0u);
}

TEST_F(FaultInjectionTest, TornWriteLeavesPrefixOnDisk) {
  TempDir dir("fault-io");
  const std::string path = dir.path() + "/victim";
  // Write once cleanly to learn the flush boundary is the whole buffer.
  FaultSpec spec;
  spec.action = Action::kTornWrite;
  spec.trigger = Trigger::kAlways;
  FaultInjector::Global().Arm("io.file.write", spec);

  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(WritableFile::Open(path, nullptr, &file).ok());
  const std::string payload(4096, 'x');
  ASSERT_TRUE(file->Append(payload).ok());  // buffered: no fault yet
  Status s = file->Flush();
  EXPECT_TRUE(s.IsIoError()) << s.ToString();
  FaultInjector::Global().Reset();
  (void)file->Close();

  uint64_t size = 0;
  ASSERT_TRUE(GetFileSize(path, &size).ok());
  EXPECT_EQ(size, 2048u);  // half of the buffered 4096 hit the disk
}

TEST_F(FaultInjectionTest, ChecksumFileDetectsCorruption) {
  TempDir dir("fault-io");
  const std::string path = dir.path() + "/f";
  ASSERT_TRUE(WriteStringToFileAtomic(path, "hello checkpoint world").ok());
  uint64_t before = 0;
  ASSERT_TRUE(ChecksumFile(path, &before).ok());
  ASSERT_TRUE(WriteStringToFileAtomic(path, "hello checkpoint w0rld").ok());
  uint64_t after = 0;
  ASSERT_TRUE(ChecksumFile(path, &after).ok());
  EXPECT_NE(before, after);
}

TEST_F(FaultInjectionTest, RenameFileFaultPoint) {
  TempDir dir("fault-io");
  const std::string from = dir.path() + "/a", to = dir.path() + "/b";
  ASSERT_TRUE(WriteStringToFileAtomic(from, "x").ok());
  FaultInjector::Global().Arm("io.file.rename", FaultSpec{});
  EXPECT_FALSE(RenameFile(from, to).ok());
  EXPECT_TRUE(FileExists(from));
  EXPECT_FALSE(FileExists(to));
  FaultInjector::Global().Reset();
  EXPECT_TRUE(RenameFile(from, to).ok());
  EXPECT_TRUE(FileExists(to));
}

TEST_F(FaultInjectionTest, PlanSwitchBoundaryIsAFaultPoint) {
  // `pregel.plan.switch` fires when (and only when) the resolved plan
  // differs from the previous superstep's, and it fires BEFORE the switch
  // is journaled or published — a crashed switch must leave no trace.
  struct OverrideGuard {
    ~OverrideGuard() { SetPlanDecisionOverrideForTesting(nullptr); }
  } guard;
  SetPlanDecisionOverrideForTesting([](int64_t superstep, PlanDecision* d) {
    d->join = superstep >= 2 ? JoinStrategy::kLeftOuter
                             : JoinStrategy::kFullOuter;
    return true;
  });

  // ResolveAndPublishPlan also builds the superstep job, which needs a
  // cluster and a program to plan for.
  TempDir dir("plan-switch-fault");
  ClusterConfig cluster_config;
  cluster_config.num_workers = 1;
  cluster_config.temp_root = dir.Sub("cluster");
  SimulatedCluster cluster(cluster_config);
  ConnectedComponentsProgram program;
  ConnectedComponentsProgram::Adapter adapter(&program);

  PregelixJobConfig cfg;
  cfg.name = "plan-switch-fault";
  cfg.join = JoinStrategy::kAuto;
  cfg.groupby = GroupByStrategy::kAuto;
  cfg.groupby_connector = GroupByConnector::kAuto;
  JobRuntimeContext ctx;
  ctx.program = &adapter;
  ctx.job_config = &cfg;
  ctx.cluster = &cluster;
  ctx.job_id = "plan-switch-fault";
  ctx.optimizer = std::make_shared<PlanOptimizer>();

  FaultSpec spec;
  spec.action = Action::kCrash;
  FaultInjector::Global().Arm("pregel.plan.switch", spec);

  // Superstep 1 has no previous plan: nothing switches, the armed point
  // stays quiet.
  PlanDecisionRecord record;
  JobSpec job_spec;
  ctx.current_superstep = 1;
  EXPECT_TRUE(ResolveAndPublishPlan(&ctx, nullptr, &record, &job_spec).ok());
  EXPECT_TRUE(record.switched.empty());
  EXPECT_EQ(FaultInjector::Global().Stats("pregel.plan.switch").fires, 0u);

  // Superstep 2 flips the join: the boundary crashes, and the aborted
  // switch is never journaled.
  const uint64_t since = EventJournal::Global().last_seq();
  ctx.current_superstep = 2;
  Status s = ResolveAndPublishPlan(&ctx, nullptr, &record, &job_spec);
  EXPECT_TRUE(s.IsAborted()) << s.ToString();
  EXPECT_TRUE(fault::IsSimulatedCrash(s));
  for (const JournalEvent& e : EventJournal::Global().SnapshotSince(since)) {
    EXPECT_NE(e.category, "plan.switch") << "crashed switch was journaled";
  }

  // Disarmed, the retried decision publishes the same switch.
  FaultInjector::Global().Reset();
  EXPECT_TRUE(ResolveAndPublishPlan(&ctx, nullptr, &record, &job_spec).ok());
  EXPECT_EQ(record.switched, "join");
  bool journaled = false;
  for (const JournalEvent& e : EventJournal::Global().SnapshotSince(since)) {
    journaled = journaled || e.category == "plan.switch";
  }
  EXPECT_TRUE(journaled);
}

TEST_F(FaultInjectionTest, RearmResetsCounters) {
  FaultInjector::Global().Arm("p", FaultSpec{});
  (void)fault::MaybeFail("p");
  EXPECT_EQ(FaultInjector::Global().Stats("p").hits, 1u);
  FaultInjector::Global().Arm("p", FaultSpec{});
  EXPECT_EQ(FaultInjector::Global().Stats("p").hits, 0u);
}

}  // namespace
}  // namespace pregelix
