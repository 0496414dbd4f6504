// Adaptive plan optimizer suite (DESIGN.md "Adaptive plan optimization").
//
// Unit half: the decision functions in isolation — the PlanOptimizer's
// threshold edges, confirmation streaks, cooldowns, and reactive
// (stall/spill) switches, all driven by hand-built OptimizerFeedback
// records; plus admission-time storage resolution, ResolvePlanDecision, and
// the canonical knob spellings.
//
// End-to-end half: a connected-components run under all-kAuto knobs on a
// "lollipop" graph (a star head that converges fast, then a long path tail
// that keeps the frontier at 2-3 vertices for dozens of supersteps). The
// sparse tail makes the full-outer -> left-outer join flip deterministic,
// and the test reads it back from all three observable channels: the
// JobResult decision trail, the `plan.switch` event journal, and the
// `pregelix.optimizer.*` metrics. Then the chooser's acceptance bar: on
// SSSP and PageRank, all-kAuto stays within 5% of the simulated time of
// the best of the four static join x group-by plans.

#include "pregel/plan_optimizer.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "algorithms/algorithms.h"
#include "common/event_journal.h"
#include "common/metrics_registry.h"
#include "common/temp_dir.h"
#include "dataflow/cluster.h"
#include "dfs/dfs.h"
#include "graph/generator.h"
#include "graph/ref_algos.h"
#include "graph/text_io.h"
#include "pregel/runtime.h"
#include "pregel/state.h"

namespace pregelix {
namespace {

// ---------------------------------------------------------------------------
// Scan-volume approximation

TEST(ApproxVertexScanBytesTest, TracksGraphShape) {
  // The constants are a contract: the optimizer's message-dominance guard
  // compares message volume against exactly this approximation.
  EXPECT_EQ(ApproxVertexScanBytes(0, 0), 0);
  EXPECT_EQ(ApproxVertexScanBytes(1000, 5000), 1000 * 16 + 5000 * 8);
  EXPECT_LT(ApproxVertexScanBytes(100, 100), ApproxVertexScanBytes(100, 200));
}

// ---------------------------------------------------------------------------
// PlanOptimizer decision logic (fake feedback feed)

/// Baseline feedback: 1000 vertices, 5000 edges, negligible message volume.
/// Scan approximation is 56000 bytes, so the default message-dominance
/// threshold sits at 28000.
OptimizerFeedback Feedback(int64_t live, int64_t messages) {
  OptimizerFeedback fb;
  fb.num_vertices = 1000;
  fb.num_edges = 5000;
  fb.live_vertices = live;
  fb.messages = messages;
  fb.message_bytes = 64;
  return fb;
}

TEST(PlanOptimizerTest, DefaultsBeforeAnyFeedback) {
  PlanOptimizer opt;
  const PlanDecision d = opt.Decide(1);
  EXPECT_EQ(d.join, JoinStrategy::kFullOuter);
  // Hash pre-aggregation is the optimistic start (within budget it is
  // never worse than sort; a spill demotes it reactively).
  EXPECT_EQ(d.groupby, GroupByStrategy::kHashSort);
  EXPECT_EQ(d.connector, GroupByConnector::kUnmerged);
  EXPECT_EQ(opt.last_reason(), "initial");
  EXPECT_FALSE(opt.last_reactive());
  EXPECT_EQ(opt.switch_count(), 0);
}

TEST(PlanOptimizerTest, JoinSwitchRequiresConfirmationStreak) {
  PlanOptimizer opt;
  opt.Observe(Feedback(50, 50));  // ratio 0.1 < 0.20
  EXPECT_EQ(opt.Decide(2).join, JoinStrategy::kFullOuter) << "streak of 1";
  opt.Observe(Feedback(50, 50));
  EXPECT_EQ(opt.Decide(3).join, JoinStrategy::kLeftOuter) << "streak of 2";
  EXPECT_EQ(opt.switch_count(), 1);
  EXPECT_FALSE(opt.last_reactive());
  EXPECT_EQ(opt.last_reason().rfind("frontier", 0), 0u) << opt.last_reason();
}

TEST(PlanOptimizerTest, SparseBoundaryIsExclusive) {
  PlanOptimizer opt;
  // ratio == sparse_frontier_ratio exactly (200/1000 = 0.20): not sparse.
  for (int64_t ss = 1; ss <= 6; ++ss) {
    opt.Observe(Feedback(100, 100));
    EXPECT_EQ(opt.Decide(ss + 1).join, JoinStrategy::kFullOuter)
        << "superstep " << ss + 1;
  }
  EXPECT_EQ(opt.switch_count(), 0);
}

TEST(PlanOptimizerTest, HysteresisBandHoldsTheProbeJoin) {
  PlanOptimizer opt;
  opt.Observe(Feedback(50, 50));
  opt.Decide(2);
  opt.Observe(Feedback(50, 50));
  ASSERT_EQ(opt.Decide(3).join, JoinStrategy::kLeftOuter);

  // Ratio 0.30 sits inside the [0.20, 0.35] band: no backswitch, ever.
  for (int64_t ss = 3; ss <= 8; ++ss) {
    opt.Observe(Feedback(200, 100));
    EXPECT_EQ(opt.Decide(ss + 1).join, JoinStrategy::kLeftOuter)
        << "band ratio flapped at superstep " << ss + 1;
  }
  EXPECT_EQ(opt.switch_count(), 1);

  // Ratio 0.50 is past the dense edge: back to the scan after the streak.
  opt.Observe(Feedback(400, 100));
  EXPECT_EQ(opt.Decide(10).join, JoinStrategy::kLeftOuter);
  opt.Observe(Feedback(400, 100));
  EXPECT_EQ(opt.Decide(11).join, JoinStrategy::kFullOuter);
  EXPECT_EQ(opt.switch_count(), 2);
}

TEST(PlanOptimizerTest, MessageVolumeBlocksTheProbeJoin) {
  PlanOptimizer opt;
  for (int64_t ss = 1; ss <= 6; ++ss) {
    OptimizerFeedback fb = Feedback(25, 25);  // ratio 0.05: very sparse
    fb.message_bytes = 30000;                     // >= 0.5 * 56000: dominant
    opt.Observe(fb);
    EXPECT_EQ(opt.Decide(ss + 1).join, JoinStrategy::kFullOuter)
        << "message-bound superstep " << ss + 1 << " picked the probe join";
  }
  EXPECT_EQ(opt.switch_count(), 0);
}

TEST(PlanOptimizerTest, StallSwitchesReactivelyButRespectsCooldown) {
  PlanOptimizer opt;
  // Ratio 0.30 would not proactively switch (inside the band), but a stall
  // relaxes the edge and skips the confirmation streak.
  OptimizerFeedback fb = Feedback(200, 100);
  fb.stalled = true;
  opt.Observe(fb);
  EXPECT_EQ(opt.Decide(2).join, JoinStrategy::kLeftOuter);
  EXPECT_TRUE(opt.last_reactive());
  EXPECT_EQ(opt.last_reason(), "stall");

  // The new plan stalls too at a dense ratio: wants to switch back
  // reactively, but the cooldown pins the knob until superstep 5.
  for (int64_t ss = 2; ss <= 3; ++ss) {
    OptimizerFeedback dense = Feedback(400, 100);
    dense.stalled = true;
    opt.Observe(dense);
    EXPECT_EQ(opt.Decide(ss + 1).join, JoinStrategy::kLeftOuter)
        << "cooldown violated at superstep " << ss + 1;
  }
  OptimizerFeedback dense = Feedback(400, 100);
  dense.stalled = true;
  opt.Observe(dense);
  EXPECT_EQ(opt.Decide(5).join, JoinStrategy::kFullOuter);
  EXPECT_TRUE(opt.last_reactive());
  EXPECT_EQ(opt.switch_count(), 2);
}

TEST(PlanOptimizerTest, AlternatingSignalNeverConfirms) {
  PlanOptimizer opt;
  // Adversarial feed: the frontier alternates sparse/dense every superstep.
  // The confirmation streak resets on every flip, so the plan never moves.
  for (int64_t ss = 1; ss <= 12; ++ss) {
    opt.Observe(ss % 2 == 1 ? Feedback(25, 25)     // ratio 0.05
                            : Feedback(900, 50));  // ratio 0.95
    EXPECT_EQ(opt.Decide(ss + 1).join, JoinStrategy::kFullOuter)
        << "oscillating signal switched the join at superstep " << ss + 1;
  }
  EXPECT_EQ(opt.switch_count(), 0);
}

TEST(PlanOptimizerTest, GroupBySpillDemotesHashAndReductionRepromotes) {
  PlanOptimizerOptions opts;
  opts.groupby_memory_bytes = 1u << 20;
  PlanOptimizer opt(opts);

  // Spill bytes past the budget: reactive demotion from the optimistic
  // hash start to sort (which degrades gracefully to runs), in a single
  // superstep — no confirmation streak needed.
  OptimizerFeedback spilled = Feedback(500, 100);
  spilled.spill_count = 3;
  spilled.spill_bytes = 3u << 20;  // 3x the budget
  opt.Observe(spilled);
  EXPECT_EQ(opt.Decide(2).groupby, GroupByStrategy::kSort);
  EXPECT_TRUE(opt.last_reactive());
  EXPECT_EQ(opt.last_reason(), "spill");

  // Re-promotion must be earned: the combiner folds 10:1 with nothing
  // spilling, but the switch waits for the cooldown (pinned through
  // superstep 4) plus the two-superstep confirmation streak.
  OptimizerFeedback fb = Feedback(500, 100);
  fb.combine_tuples_in = 1000;
  fb.combine_tuples_out = 100;
  for (int64_t ss = 2; ss <= 5; ++ss) {
    opt.Observe(fb);
    EXPECT_EQ(opt.Decide(ss + 1).groupby,
              ss < 5 ? GroupByStrategy::kSort : GroupByStrategy::kHashSort)
        << "superstep " << ss + 1;
  }
  EXPECT_FALSE(opt.last_reactive());
}

TEST(PlanOptimizerTest, GroupByStaysSortWithoutReductionEvidence) {
  PlanOptimizerOptions opts;
  opts.groupby_memory_bytes = 1u << 20;
  PlanOptimizer opt(opts);
  OptimizerFeedback spilled = Feedback(500, 100);
  spilled.spill_bytes = 3u << 20;
  opt.Observe(spilled);
  ASSERT_EQ(opt.Decide(2).groupby, GroupByStrategy::kSort);

  // Clean supersteps but a combiner that barely folds (1.5:1, below the
  // 2.0 re-promotion threshold): sort holds indefinitely.
  OptimizerFeedback weak = Feedback(500, 100);
  weak.combine_tuples_in = 300;
  weak.combine_tuples_out = 200;
  for (int64_t ss = 2; ss <= 10; ++ss) {
    opt.Observe(weak);
    EXPECT_EQ(opt.Decide(ss + 1).groupby, GroupByStrategy::kSort)
        << "superstep " << ss + 1;
  }
}

TEST(PlanOptimizerTest, ConnectorBackswitchNeedsTheLoadToHalve) {
  PlanOptimizer opt;
  // Heavy combine-op skew prefers the merged (sender-materializing)
  // connector; no spill and no stall, so this is a proactive streak switch.
  OptimizerFeedback skewed = Feedback(500, 100);
  skewed.groupby_skew = 5.0;
  skewed.message_bytes = 1000;
  opt.Observe(skewed);
  EXPECT_EQ(opt.Decide(2).connector, GroupByConnector::kUnmerged);
  opt.Observe(skewed);
  EXPECT_EQ(opt.Decide(3).connector, GroupByConnector::kMerged);
  EXPECT_FALSE(opt.last_reactive());

  // Clean again, but message volume has only dropped to 600 of the 1000 at
  // switch time: the merged connector hides the signal that caused the
  // switch, so the backswitch demands the load halve. Stays merged.
  for (int64_t ss = 3; ss <= 8; ++ss) {
    OptimizerFeedback clean = Feedback(500, 100);
    clean.message_bytes = 600;
    opt.Observe(clean);
    EXPECT_EQ(opt.Decide(ss + 1).connector, GroupByConnector::kMerged)
        << "backswitched without the load halving at superstep " << ss + 1;
  }

  // Load at 400 (< half of 1000): backswitch after the streak.
  OptimizerFeedback light = Feedback(500, 100);
  light.message_bytes = 400;
  opt.Observe(light);
  EXPECT_EQ(opt.Decide(10).connector, GroupByConnector::kMerged);
  opt.Observe(light);
  EXPECT_EQ(opt.Decide(11).connector, GroupByConnector::kUnmerged);
  EXPECT_EQ(opt.last_reason(), "load-drop");
}

TEST(PlanOptimizerTest, OverrideHookForcesAdversarialPlans) {
  PlanOptimizer opt;
  SetPlanDecisionOverrideForTesting([](int64_t superstep, PlanDecision* d) {
    d->join = superstep % 2 == 0 ? JoinStrategy::kLeftOuter
                                 : JoinStrategy::kFullOuter;
    d->connector = GroupByConnector::kMerged;
    return true;
  });
  EXPECT_EQ(opt.Decide(2).join, JoinStrategy::kLeftOuter);
  EXPECT_EQ(opt.Decide(2).connector, GroupByConnector::kMerged);
  EXPECT_EQ(opt.last_reason(), "override");
  EXPECT_EQ(opt.Decide(3).join, JoinStrategy::kFullOuter);
  SetPlanDecisionOverrideForTesting(nullptr);
  // Cleared: the optimizer's own (carried) plan is back in charge.
  EXPECT_EQ(opt.Decide(4).join, JoinStrategy::kFullOuter);
  EXPECT_NE(opt.last_reason(), "override");
}

// ---------------------------------------------------------------------------
// Resolution helpers (storage admission, ResolvePlanDecision)

/// Minimal program whose only interesting property is MutatesGraph().
class FakeProgram : public PregelProgram {
 public:
  explicit FakeProgram(bool mutates) : mutates_(mutates) {}
  Status InitialVertex(int64_t, const std::vector<int64_t>&,
                       std::string*) override {
    return Status::OK();
  }
  Status Compute(const ComputeInput&, ComputeOutput*) override {
    return Status::OK();
  }
  GroupCombiner MsgCombiner() const override { return ListMsgCombiner(); }
  Status FormatVertex(int64_t, const Slice&, std::string*) override {
    return Status::OK();
  }
  bool MutatesGraph() const override { return mutates_; }

 private:
  bool mutates_;
};

TEST(ResolveStorageTest, AutoPicksLsmForMutatingPrograms) {
  FakeProgram mutating(true), readonly(false);
  PregelixJobConfig cfg;
  cfg.storage = VertexStorage::kAuto;
  JobRuntimeContext ctx;
  ctx.job_config = &cfg;

  ctx.program = &mutating;
  EXPECT_EQ(ResolveStorageAtAdmission(ctx), VertexStorage::kLsmBTree);
  ctx.program = &readonly;
  EXPECT_EQ(ResolveStorageAtAdmission(ctx), VertexStorage::kBTree);

  // Static hints pass through untouched, mutations or not.
  cfg.storage = VertexStorage::kLsmBTree;
  EXPECT_EQ(ResolveStorageAtAdmission(ctx), VertexStorage::kLsmBTree);
  cfg.storage = VertexStorage::kBTree;
  ctx.program = &mutating;
  EXPECT_EQ(ResolveStorageAtAdmission(ctx), VertexStorage::kBTree);
}

TEST(ResolvePlanDecisionTest, StaticHintsWinOverTheOptimizer) {
  PregelixJobConfig cfg;
  cfg.join = JoinStrategy::kLeftOuter;
  cfg.groupby = GroupByStrategy::kAuto;
  cfg.groupby_connector = GroupByConnector::kMerged;
  JobRuntimeContext ctx;
  ctx.job_config = &cfg;
  ctx.current_superstep = 2;
  ctx.optimizer = std::make_shared<PlanOptimizer>();

  const PlanDecision d = ResolvePlanDecision(&ctx);
  EXPECT_EQ(d.join, JoinStrategy::kLeftOuter);
  EXPECT_EQ(d.groupby, GroupByStrategy::kHashSort);  // the kAuto knob
  EXPECT_EQ(d.connector, GroupByConnector::kMerged);
  EXPECT_EQ(ctx.plan, d);
}

/// Every enumerator of a knob parses back from its canonical spelling, and
/// near-misses are rejected with a message naming every accepted spelling.
template <typename Enum>
void ExpectRoundTrip(std::initializer_list<Enum> all,
                     const char* (*to_name)(Enum),
                     Status (*parse)(std::string_view, Enum*),
                     const std::string& typo) {
  for (Enum e : all) {
    Enum parsed{};
    ASSERT_TRUE(parse(to_name(e), &parsed).ok()) << to_name(e);
    EXPECT_EQ(parsed, e) << to_name(e);
  }
  for (const std::string& bad : {std::string("adaptive"), std::string(),
                                 typo}) {
    Enum parsed = *all.begin();
    const Status s = parse(bad, &parsed);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument)
        << "'" << bad << "' was accepted";
    EXPECT_EQ(parsed, *all.begin()) << "'" << bad << "' clobbered the output";
    for (Enum e : all) {
      EXPECT_NE(s.message().find(to_name(e)), std::string::npos)
          << s.message();
    }
  }
}

TEST(PlanNamesTest, CanonicalSpellings) {
  EXPECT_STREQ(JoinStrategyName(JoinStrategy::kFullOuter), "fullouter");
  EXPECT_STREQ(JoinStrategyName(JoinStrategy::kLeftOuter), "leftouter");
  EXPECT_STREQ(JoinStrategyName(JoinStrategy::kAuto), "auto");
  EXPECT_STREQ(GroupByStrategyName(GroupByStrategy::kHashSort), "hashsort");
  EXPECT_STREQ(GroupByConnectorName(GroupByConnector::kMerged), "merged");
  EXPECT_STREQ(VertexStorageName(VertexStorage::kLsmBTree), "lsm");
  PlanDecision d;
  EXPECT_EQ(PlanDecisionString(d), "fullouter/sort/unmerged");

  ExpectRoundTrip({JoinStrategy::kFullOuter, JoinStrategy::kLeftOuter,
                   JoinStrategy::kAuto},
                  JoinStrategyName, ParseJoinStrategy, "leftouterr");
  ExpectRoundTrip({GroupByStrategy::kSort, GroupByStrategy::kHashSort,
                   GroupByStrategy::kAuto},
                  GroupByStrategyName, ParseGroupByStrategy, "hash");
  ExpectRoundTrip({GroupByConnector::kUnmerged, GroupByConnector::kMerged,
                   GroupByConnector::kAuto},
                  GroupByConnectorName, ParseGroupByConnector, "Merged");
  ExpectRoundTrip({VertexStorage::kBTree, VertexStorage::kLsmBTree,
                   VertexStorage::kAuto},
                  VertexStorageName, ParseVertexStorage, "lsmbtree");
}

// ---------------------------------------------------------------------------
// End to end: the observable plan flip

/// Star head (vertex 0 adjacent to 1..head-1) plus a path tail hung off
/// vertex head-1. CC floods component 0 through the head in a couple of
/// supersteps, then walks the tail one vertex per superstep: a long run of
/// supersteps whose frontier is 2-3 vertices out of head+tail.
InMemoryGraph LollipopGraph(int64_t head, int64_t tail) {
  InMemoryGraph g;
  g.adj.resize(head + tail);
  for (int64_t v = 1; v < head; ++v) {
    g.adj[0].push_back(v);
    g.adj[v].push_back(0);
  }
  for (int64_t i = 0; i < tail; ++i) {
    const int64_t v = head + i;
    const int64_t prev = i == 0 ? head - 1 : v - 1;
    g.adj[prev].push_back(v);
    g.adj[v].push_back(prev);
  }
  return g;
}

TEST(AdaptiveEndToEndTest, CcUnderAutoFlipsJoinToLeftOuter) {
  TempDir dir("adaptive-e2e");
  DistributedFileSystem dfs(dir.Sub("dfs"));
  const InMemoryGraph graph = LollipopGraph(100, 30);
  ASSERT_TRUE(WriteGraph(dfs, "lollipop", graph, 3).ok());
  const std::vector<int64_t> ref = CcRef(graph);

  ClusterConfig config;
  config.num_workers = 3;
  config.worker_ram_bytes = 8u << 20;
  config.temp_root = dir.Sub("cluster");
  SimulatedCluster cluster(config);
  PregelixRuntime runtime(&cluster, &dfs);

  PregelixJobConfig job;
  job.name = "cc-auto";
  job.input_dir = "lollipop";
  job.output_dir = "out";
  job.join = JoinStrategy::kAuto;
  job.groupby = GroupByStrategy::kAuto;
  job.groupby_connector = GroupByConnector::kAuto;
  job.storage = VertexStorage::kAuto;

  const uint64_t since = EventJournal::Global().last_seq();
  ConnectedComponentsProgram program;
  ConnectedComponentsProgram::Adapter adapter(&program);
  JobResult result;
  Status s = runtime.Run(&adapter, job, &result);
  ASSERT_TRUE(s.ok()) << s.ToString();

  // Channel 1: the JobResult decision trail. Superstep 1 is the default
  // scan plan; the sparse tail must have flipped the join to the probe.
  ASSERT_FALSE(result.plan_decisions.empty());
  EXPECT_EQ(result.plan_decisions.front().plan.join, JoinStrategy::kFullOuter);
  EXPECT_EQ(result.plan_decisions.front().reason, "initial");
  const PlanDecisionRecord* flip = nullptr;
  for (const PlanDecisionRecord& r : result.plan_decisions) {
    if (r.switched.find("join") != std::string::npos &&
        r.plan.join == JoinStrategy::kLeftOuter) {
      flip = &r;
      break;
    }
  }
  ASSERT_NE(flip, nullptr)
      << "kAuto never switched to the left-outer join on a graph whose "
         "frontier is 2-3 vertices for 30 supersteps";
  EXPECT_GT(flip->superstep, 1);
  // The tail stays sparse to the end: the flip must not revert.
  EXPECT_EQ(result.plan_decisions.back().plan.join, JoinStrategy::kLeftOuter);

  // Channel 2: the event journal carries the same switch.
  bool journaled = false;
  for (const JournalEvent& e : EventJournal::Global().SnapshotSince(since)) {
    if (e.category != "plan.switch") continue;
    std::map<std::string, std::string> kv(e.kv.begin(), e.kv.end());
    if (kv["knob"] == "join" && kv["from"] == "fullouter" &&
        kv["to"] == "leftouter") {
      EXPECT_EQ(e.superstep, flip->superstep);
      journaled = true;
    }
  }
  EXPECT_TRUE(journaled) << "no plan.switch event for the join flip";

  // Channel 3: the optimizer metrics counted it.
  EXPECT_GE(cluster.registry()
                ->GetCounter("pregelix.optimizer.switches",
                             {{"job", "cc-auto"}, {"knob", "join"}})
                ->value(),
            1u);
  EXPECT_GE(cluster.registry()
                ->GetCounter("pregelix.optimizer.decisions",
                             {{"job", "cc-auto"}})
                ->value(),
            static_cast<uint64_t>(result.plan_decisions.size()));

  // And the answer is still right: every vertex lands in component 0.
  std::vector<std::string> names;
  ASSERT_TRUE(dfs.List("out", &names).ok());
  std::map<int64_t, int64_t> out;
  for (const std::string& part : names) {
    std::string contents;
    ASSERT_TRUE(dfs.Read("out/" + part, &contents).ok());
    std::istringstream lines(contents);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.empty()) continue;
      std::istringstream fields(line);
      int64_t vid, component;
      fields >> vid >> component;
      EXPECT_TRUE(out.emplace(vid, component).second);
    }
  }
  ASSERT_EQ(out.size(), ref.size());
  for (const auto& [vid, component] : out) {
    EXPECT_EQ(component, ref[vid]) << "vid " << vid;
  }
}

/// One whole job's simulated seconds (load + supersteps) on a fresh
/// 2-worker cluster with 1 MB per worker, so the 6,000-vertex graphs below
/// spill and the plans differ in I/O as well as in CPU. Runs PageRank on
/// `web` or SSSP on `btc`.
void RunForSimSeconds(DistributedFileSystem& dfs, const std::string& root,
                      bool pagerank, JoinStrategy join,
                      GroupByStrategy groupby, GroupByConnector connector,
                      VertexStorage storage, double* sim_seconds) {
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
  job.name = "auto-vs-static";
  job.input_dir = pagerank ? "web" : "btc";
  job.join = join;
  job.groupby = groupby;
  job.groupby_connector = connector;
  job.storage = storage;
  JobResult result;
  const Status s = runtime.Run(
      pagerank ? static_cast<PregelProgram*>(&ranks_adapter) : &sssp_adapter,
      job, &result);
  ASSERT_TRUE(s.ok()) << s.ToString();
  *sim_seconds = result.total_sim_seconds;
}

TEST(AdaptiveEndToEndTest, AutoTracksBestStaticPlan) {
  TempDir dir("auto-vs-static");
  DistributedFileSystem dfs(dir.Sub("dfs"));
  GraphStats stats;
  ASSERT_TRUE(GenerateBtcLike(dfs, "btc", 4, 6000, 8.94, 8000, &stats).ok());
  ASSERT_TRUE(
      GenerateWebmapLike(dfs, "web", 4, 6000, 8.0, 7000, &stats).ok());

  // SSSP wins with the left-outer probe once its frontier thins; PageRank
  // keeps every vertex live and wins with the full-outer scan throughout.
  // kAuto is told neither.
  int runs = 0;
  auto next_root = [&] { return dir.Sub("cluster-" + std::to_string(runs++)); };
  for (const bool pagerank : {false, true}) {
    SCOPED_TRACE(pagerank ? "pagerank on web" : "sssp on btc");
    std::ostringstream arms;
    double best = 0;
    for (JoinStrategy join :
         {JoinStrategy::kFullOuter, JoinStrategy::kLeftOuter}) {
      for (GroupByStrategy groupby :
           {GroupByStrategy::kSort, GroupByStrategy::kHashSort}) {
        double seconds = 0;
        ASSERT_NO_FATAL_FAILURE(RunForSimSeconds(
            dfs, next_root(), pagerank, join, groupby,
            GroupByConnector::kUnmerged, VertexStorage::kBTree, &seconds));
        arms << JoinStrategyName(join) << "/" << GroupByStrategyName(groupby)
             << " " << seconds << "s; ";
        if (best == 0 || seconds < best) best = seconds;
      }
    }
    double automatic = 0;
    ASSERT_NO_FATAL_FAILURE(RunForSimSeconds(
        dfs, next_root(), pagerank, JoinStrategy::kAuto,
        GroupByStrategy::kAuto, GroupByConnector::kAuto, VertexStorage::kAuto,
        &automatic));
    ASSERT_GT(best, 0);
    EXPECT_LE(automatic / best, 1.05)
        << "all-kAuto " << automatic << "s vs static plans: " << arms.str();
  }
}

}  // namespace
}  // namespace pregelix
