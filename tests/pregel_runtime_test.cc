#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <sstream>
#include <string>

#include "algorithms/algorithms.h"
#include "common/temp_dir.h"
#include "dataflow/cluster.h"
#include "dfs/dfs.h"
#include "graph/generator.h"
#include "graph/ref_algos.h"
#include "graph/text_io.h"
#include "pregel/runtime.h"

namespace pregelix {
namespace {

/// Reads a dumped result directory into vid -> value-string.
std::map<int64_t, std::string> ParseOutput(const DistributedFileSystem& dfs,
                                           const std::string& dir) {
  std::map<int64_t, std::string> out;
  std::vector<std::string> names;
  EXPECT_TRUE(dfs.List(dir, &names).ok());
  for (const std::string& name : names) {
    std::string contents;
    EXPECT_TRUE(dfs.Read(dir + "/" + name, &contents).ok());
    std::istringstream lines(contents);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.empty()) continue;
      std::istringstream fields(line);
      int64_t vid;
      std::string value;
      fields >> vid >> value;
      out[vid] = value;
    }
  }
  return out;
}

/// Threads of this process, from /proc/self/task (-1 if unreadable).
int CountThreads() {
  std::error_code ec;
  int n = 0;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
       !ec && it != end; it.increment(ec)) {
    ++n;
  }
  return ec ? -1 : n;
}

class PregelRuntimeTest : public ::testing::Test {
 protected:
  PregelRuntimeTest() : dfs_(dir_.Sub("dfs")) {
    config_.num_workers = 2;
    config_.partitions_per_worker = 2;
    config_.worker_ram_bytes = 8u << 20;
    config_.frame_size = 8 * 1024;
    config_.temp_root = dir_.Sub("cluster");
    cluster_ = std::make_unique<SimulatedCluster>(config_);
    runtime_ = std::make_unique<PregelixRuntime>(cluster_.get(), &dfs_);
  }

  /// A small symmetric (undirected) test graph.
  void MakeUndirected(int64_t n, const std::string& dir) {
    GraphStats stats;
    ASSERT_TRUE(GenerateBtcLike(dfs_, dir, 3, n, 6.0, 42, &stats).ok());
  }
  /// A small directed power-law graph.
  void MakeDirected(int64_t n, const std::string& dir) {
    GraphStats stats;
    ASSERT_TRUE(GenerateWebmapLike(dfs_, dir, 3, n, 5.0, 42, &stats).ok());
  }

  TempDir dir_{"pregel-test"};
  DistributedFileSystem dfs_;
  ClusterConfig config_;
  std::unique_ptr<SimulatedCluster> cluster_;
  std::unique_ptr<PregelixRuntime> runtime_;
};

TEST_F(PregelRuntimeTest, PageRankMatchesReference) {
  MakeDirected(300, "input/pr");
  InMemoryGraph graph;
  ASSERT_TRUE(LoadGraph(dfs_, "input/pr", &graph).ok());
  const std::vector<double> expected = PageRankRef(graph, 10);

  PageRankProgram program(10);
  PageRankProgram::Adapter adapter(&program);
  PregelixJobConfig job;
  job.name = "pr";
  job.input_dir = "input/pr";
  job.output_dir = "output/pr";
  job.join = JoinStrategy::kFullOuter;
  JobResult result;
  Status s = runtime_->Run(&adapter, job, &result);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(result.supersteps, 11);

  auto output = ParseOutput(dfs_, "output/pr");
  ASSERT_EQ(output.size(), static_cast<size_t>(graph.num_vertices()));
  double sum = 0;
  for (auto& [vid, value] : output) {
    const double rank = std::stod(value);
    EXPECT_NEAR(rank, expected[vid], 1e-9) << "vid " << vid;
    sum += rank;
  }
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

// The cluster runs all I/O on the calling threads: once a job returns, no
// engine thread is left behind.
TEST_F(PregelRuntimeTest, RunLeavesNoBackgroundThreads) {
  MakeDirected(200, "input/threads");
  runtime_.reset();
  cluster_.reset();
  const int before = CountThreads();
  ASSERT_GT(before, 0);
  cluster_ = std::make_unique<SimulatedCluster>(config_);
  runtime_ = std::make_unique<PregelixRuntime>(cluster_.get(), &dfs_);

  PageRankProgram program(3);
  PageRankProgram::Adapter adapter(&program);
  PregelixJobConfig job;
  job.name = "threads";
  job.input_dir = "input/threads";
  job.output_dir = "output/threads";
  JobResult result;
  Status s = runtime_->Run(&adapter, job, &result);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(CountThreads(), before);
}

TEST_F(PregelRuntimeTest, SsspLeftOuterMatchesBfs) {
  MakeUndirected(400, "input/sssp");
  InMemoryGraph graph;
  ASSERT_TRUE(LoadGraph(dfs_, "input/sssp", &graph).ok());
  const std::vector<double> expected = SsspRef(graph, 0);

  SsspProgram program(0);
  SsspProgram::Adapter adapter(&program);
  PregelixJobConfig job;
  job.name = "sssp";
  job.input_dir = "input/sssp";
  job.output_dir = "output/sssp";
  job.join = JoinStrategy::kLeftOuter;
  job.groupby = GroupByStrategy::kHashSort;
  JobResult result;
  Status s = runtime_->Run(&adapter, job, &result);
  ASSERT_TRUE(s.ok()) << s.ToString();

  auto output = ParseOutput(dfs_, "output/sssp");
  ASSERT_EQ(output.size(), static_cast<size_t>(graph.num_vertices()));
  for (auto& [vid, value] : output) {
    if (expected[vid] < 0) {
      EXPECT_EQ(value, "inf");
    } else {
      EXPECT_NEAR(std::stod(value), expected[vid], 1e-9) << "vid " << vid;
    }
  }
}

TEST_F(PregelRuntimeTest, ConnectedComponentsMatchesUnionFind) {
  MakeUndirected(300, "input/cc");
  InMemoryGraph graph;
  ASSERT_TRUE(LoadGraph(dfs_, "input/cc", &graph).ok());
  const std::vector<int64_t> expected = CcRef(graph);

  ConnectedComponentsProgram program;
  ConnectedComponentsProgram::Adapter adapter(&program);
  PregelixJobConfig job;
  job.name = "cc";
  job.input_dir = "input/cc";
  job.output_dir = "output/cc";
  JobResult result;
  Status s = runtime_->Run(&adapter, job, &result);
  ASSERT_TRUE(s.ok()) << s.ToString();

  auto output = ParseOutput(dfs_, "output/cc");
  ASSERT_EQ(output.size(), static_cast<size_t>(graph.num_vertices()));
  for (auto& [vid, value] : output) {
    EXPECT_EQ(std::stoll(value), expected[vid]) << "vid " << vid;
  }
}

TEST_F(PregelRuntimeTest, ReachabilityMatchesBfs) {
  MakeDirected(300, "input/reach");
  InMemoryGraph graph;
  ASSERT_TRUE(LoadGraph(dfs_, "input/reach", &graph).ok());
  const std::vector<bool> expected = ReachabilityRef(graph, 5);

  ReachabilityProgram program(5);
  ReachabilityProgram::Adapter adapter(&program);
  PregelixJobConfig job;
  job.name = "reach";
  job.input_dir = "input/reach";
  job.output_dir = "output/reach";
  job.join = JoinStrategy::kLeftOuter;
  JobResult result;
  Status s = runtime_->Run(&adapter, job, &result);
  ASSERT_TRUE(s.ok()) << s.ToString();

  auto output = ParseOutput(dfs_, "output/reach");
  for (auto& [vid, value] : output) {
    EXPECT_EQ(value == "reachable", static_cast<bool>(expected[vid]))
        << "vid " << vid;
  }
}

TEST_F(PregelRuntimeTest, TriangleCountMatchesReference) {
  MakeUndirected(150, "input/tri");
  InMemoryGraph graph;
  ASSERT_TRUE(LoadGraph(dfs_, "input/tri", &graph).ok());
  const uint64_t expected = TriangleCountRef(graph);

  TriangleCountProgram program;
  TriangleCountProgram::Adapter adapter(&program);
  PregelixJobConfig job;
  job.name = "tri";
  job.input_dir = "input/tri";
  JobResult result;
  Status s = runtime_->Run(&adapter, job, &result);
  ASSERT_TRUE(s.ok()) << s.ToString();
  int64_t total = 0;
  ASSERT_TRUE(DeserializeValue(Slice(result.final_gs.aggregate), &total));
  EXPECT_EQ(static_cast<uint64_t>(total), expected);
}

TEST_F(PregelRuntimeTest, StatsTrackLiveVerticesAndMessages) {
  MakeUndirected(200, "input/stats");
  SsspProgram program(0);
  SsspProgram::Adapter adapter(&program);
  PregelixJobConfig job;
  job.name = "stats";
  job.input_dir = "input/stats";
  JobResult result;
  ASSERT_TRUE(runtime_->Run(&adapter, job, &result).ok());
  ASSERT_GT(result.superstep_stats.size(), 2u);
  // Superstep 1: only the source updates and messages its neighbors.
  EXPECT_GT(result.superstep_stats[0].messages, 0);
  // The frontier stays bounded by the vertex count.
  for (const SuperstepStats& stats : result.superstep_stats) {
    EXPECT_LE(stats.messages, result.final_gs.num_vertices);
    EXPECT_GE(stats.sim_seconds, 0.0);
  }
  // Final superstep produced no messages; job halted.
  EXPECT_EQ(result.superstep_stats.back().messages, 0);
  EXPECT_TRUE(result.final_gs.halt);
}

}  // namespace
}  // namespace pregelix
