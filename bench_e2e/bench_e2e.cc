// bench_e2e: end-to-end benchmark binary for whole Pregel jobs.
//
// One process runs one workload as a closed loop: one job at a time on a
// SimulatedCluster with the shipped defaults (ClusterConfig defaults, the
// default plan, overlap auto, the time ledger at its default). Every job is
// timed from outside around PregelixRuntime::Run, and every job's dumped
// output is checked against the single-threaded reference in
// graph/ref_algos.
//
//   bench_e2e --workload=pagerank-web --seed=1 --seconds=20 --trace=0
//             --work-dir=DIR [--trace-out=FILE] [--tiny]
//
// Prints one JSON document on stdout holding the raw samples: the
// reproducibility stamp, the setup times, and one row per timed job (wall,
// CPU, per-superstep wall, and in traced jobs the per-layer counters).
// run.py turns the samples into the named metrics. With --trace=1 the jobs
// alternate untraced/traced; traced jobs turn on plan profiling, the
// cluster's Tracer and a Compute timer, and the Chrome trace (program spans
// plus the benchmark's own "bench" spans) is written to --trace-out.
//
// Exit code 0 only when every job ran and matched the reference.

#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "algorithms/algorithms.h"
#include "common/metrics_registry.h"
#include "common/temp_dir.h"
#include "common/time_ledger.h"
#include "common/trace.h"
#include "dataflow/cluster.h"
#include "dfs/dfs.h"
#include "graph/generator.h"
#include "graph/ref_algos.h"
#include "graph/text_io.h"
#include "pregel/runtime.h"

namespace pregelix {
namespace {

constexpr const char* kBenchCat = "bench";
/// Setup is repeated this many times per run; run.py reports the median.
constexpr int kSetupRepeats = 5;
/// An untraced run always completes at least this many timed jobs, so the
/// superstep tail percentile rests on a fixed minimum sample count.
constexpr int kMinJobs = 4;
/// A traced run completes at least this many jobs in each mode.
constexpr int kMinTracedRunJobs = 2;
/// PageRank agreement with PageRankRef: |got - want| <= kRel * |want| + kAbs.
constexpr double kPageRankRelTol = 1e-9;
constexpr double kPageRankAbsTol = 1e-15;

enum class Algo { kPageRank, kSssp };

struct Workload {
  std::string name;
  Algo algo;
  std::string graph;  ///< "webmap" or "btc"
  int64_t vertices;
  double avg_degree;
  size_t worker_ram_bytes;  ///< 0 = ClusterConfig default
  int pagerank_iterations = 10;
  int64_t sssp_source = 0;
};

bool FindWorkload(const std::string& name, bool tiny, Workload* out) {
  const int64_t n = tiny ? 2000 : 100000;
  // 1 MB per worker puts the 100K-vertex webmap (~5 MB) at ~1.27x aggregate
  // RAM. Tiny graphs only exercise the plumbing: the plan verifier's
  // per-clone budgets need more RAM than a 2K-vertex graph has bytes.
  const size_t ooc_ram = tiny ? (128u << 10) : (1u << 20);
  if (name == "pagerank-web") {
    *out = {name, Algo::kPageRank, "webmap", n, 8.0, 0};
  } else if (name == "sssp-btc") {
    *out = {name, Algo::kSssp, "btc", n, 8.94, 0};
  } else if (name == "pagerank-web-ooc") {
    *out = {name, Algo::kPageRank, "webmap", n, 8.0, ooc_ram};
  } else {
    return false;
  }
  return true;
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Generator seed of one graph: a function of the benchmark seed and the
/// graph kind only, so the in-memory and OOC PageRank runs of one seed see
/// the same graph.
uint64_t GraphSeed(uint64_t bench_seed, const std::string& graph) {
  uint64_t h = bench_seed;
  for (char c : graph) h = SplitMix64(h ^ static_cast<unsigned char>(c));
  return h % 1000000007ULL;
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Compute timer: wraps a vertex program and times PregelProgram::Compute
// with one accumulator per calling thread (no shared cache line on the hot
// path). Slots outlive the executor's short-lived task threads.

class TimedProgram final : public PregelProgram {
 public:
  explicit TimedProgram(PregelProgram* inner)
      : inner_(inner), id_(next_id_.fetch_add(1) + 1) {}

  Status InitialVertex(int64_t vid, const std::vector<int64_t>& dests,
                       std::string* vertex_bytes) override {
    return inner_->InitialVertex(vid, dests, vertex_bytes);
  }
  Status Compute(const ComputeInput& input, ComputeOutput* output) override {
    Slot* slot = LocalSlot();
    const auto t0 = std::chrono::steady_clock::now();
    Status s = inner_->Compute(input, output);
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    // Single writer per slot: plain load/store, no read-modify-write.
    slot->ns.store(slot->ns.load(std::memory_order_relaxed) +
                       static_cast<uint64_t>(ns),
                   std::memory_order_relaxed);
    slot->calls.store(slot->calls.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
    return s;
  }
  GroupCombiner MsgCombiner() const override { return inner_->MsgCombiner(); }
  GlobalAggHooks GlobalAggregator() const override {
    return inner_->GlobalAggregator();
  }
  ResolveAction Resolve(int64_t vid,
                        const std::vector<MutationRecord>& mutations,
                        std::string* vertex_bytes) const override {
    return inner_->Resolve(vid, mutations, vertex_bytes);
  }
  Status FormatVertex(int64_t vid, const Slice& vertex_bytes,
                      std::string* line) override {
    return inner_->FormatVertex(vid, vertex_bytes, line);
  }
  bool MutatesGraph() const override { return inner_->MutatesGraph(); }

  uint64_t calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t n = 0;
    for (const auto& s : slots_) n += s->calls.load(std::memory_order_relaxed);
    return n;
  }
  double seconds() const {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t ns = 0;
    for (const auto& s : slots_) ns += s->ns.load(std::memory_order_relaxed);
    return static_cast<double>(ns) * 1e-9;
  }

 private:
  struct Slot {
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> ns{0};
  };

  Slot* LocalSlot() {
    thread_local uint64_t owner = 0;
    thread_local Slot* slot = nullptr;
    if (owner != id_) {
      std::lock_guard<std::mutex> lock(mu_);
      slots_.push_back(std::make_unique<Slot>());
      slot = slots_.back().get();
      owner = id_;
    }
    return slot;
  }

  static inline std::atomic<uint64_t> next_id_{0};
  PregelProgram* inner_;
  const uint64_t id_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Slot>> slots_;
};

// ---------------------------------------------------------------------------
// Minimal JSON emission.

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Ordered name -> number object.
using Fields = std::vector<std::pair<std::string, double>>;

std::string JsonObject(const Fields& fields) {
  std::string out = "{";
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonString(fields[i].first) + ":" + JsonNumber(fields[i].second);
  }
  return out + "}";
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonNumber(values[i]);
  }
  return out + "]";
}

// ---------------------------------------------------------------------------
// Per-layer counters read from outside the program.

/// Registry counters and gauges the cluster publishes, summed over labels.
struct RegistryCounts {
  double buffer_hits = 0, buffer_misses = 0, buffer_evictions = 0,
         buffer_writebacks = 0;
  double storage_probes = 0, storage_inserts = 0;
  double prefetch_hits = 0, prefetch_wasted = 0, writebehind_stalls = 0;
};

RegistryCounts ReadRegistry(SimulatedCluster* cluster) {
  cluster->PublishMetrics();
  MetricsRegistry* reg = cluster->registry();
  RegistryCounts c;
  for (int w = 0; w < cluster->num_workers(); ++w) {
    const MetricLabels labels{{"worker", std::to_string(w)}};
    c.buffer_hits += static_cast<double>(
        reg->GaugeValue("pregelix.buffer.hits", labels));
    c.buffer_misses += static_cast<double>(
        reg->GaugeValue("pregelix.buffer.misses", labels));
    c.buffer_evictions += static_cast<double>(
        reg->GaugeValue("pregelix.buffer.evictions", labels));
    c.buffer_writebacks += static_cast<double>(
        reg->GaugeValue("pregelix.buffer.writebacks", labels));
  }
  c.storage_probes =
      static_cast<double>(reg->SumCounters("pregelix.storage.probes"));
  c.storage_inserts =
      static_cast<double>(reg->SumCounters("pregelix.storage.inserts"));
  c.prefetch_hits =
      static_cast<double>(reg->GaugeValue("pregelix.io.prefetch_hits"));
  c.prefetch_wasted =
      static_cast<double>(reg->GaugeValue("pregelix.io.prefetch_wasted"));
  c.writebehind_stalls =
      static_cast<double>(reg->GaugeValue("pregelix.io.writebehind_stalls"));
  return c;
}

MetricsSnapshot ClusterTotals(const SimulatedCluster& cluster) {
  MetricsSnapshot total;
  for (const MetricsSnapshot& s : cluster.SnapshotAll()) total += s;
  return total;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Operators of the default superstep plan; per-operator metrics use these
/// names for every workload (0 when an operator did not run).
const char* const kPlanOperators[] = {"compute-full-outer-join",
                                      "combine-msgs", "global-agg",
                                      "resolve"};
/// Locks reported by name.
const char* const kLocks[] = {"overlap_prefetch", "overlap_writebehind",
                              "channel"};

/// Per-layer fields of one traced job.
Fields LayerFields(const JobResult& result, const TimeLedgerSnapshot& ledger,
                   const MetricsSnapshot& meter,
                   const RegistryCounts& before, const RegistryCounts& after,
                   const TimedProgram& timed, double job_wall) {
  auto sec = [&](TimeCategory c) {
    return static_cast<double>(ledger.ns(c)) * 1e-9;
  };
  double superstep_wall = 0, messages = 0, shuffle_bytes = 0, spills = 0,
         spill_bytes = 0, activations = 0, empty_activations = 0;
  for (const SuperstepStats& s : result.superstep_stats) {
    superstep_wall += s.wall_seconds;
    messages += static_cast<double>(s.messages);
    shuffle_bytes += static_cast<double>(s.bytes_shuffled);
    spills += static_cast<double>(s.spill_count);
    spill_bytes += static_cast<double>(s.spill_bytes);
    if (s.profile == nullptr) continue;
    // An operator with an incoming connector is "empty" in an activation
    // that received no tuples. Source operators (the index scan-join) read
    // storage, not tuples, and never count as empty.
    std::vector<bool> has_input(s.profile->ops().size(), false);
    for (const PlanEdgeProfile& e : s.profile->edges()) {
      if (e.dst_op >= 0 && static_cast<size_t>(e.dst_op) < has_input.size()) {
        has_input[static_cast<size_t>(e.dst_op)] = true;
      }
    }
    for (size_t i = 0; i < s.profile->ops().size(); ++i) {
      for (const PartitionStats& p : s.profile->ops()[i].partitions) {
        const double acts = static_cast<double>(p.stats.activations);
        activations += acts;
        if (has_input[i] && p.stats.tuples_in == 0) empty_activations += acts;
      }
    }
  }
  int plan_switches = 0;
  for (const PlanDecisionRecord& d : result.plan_decisions) {
    if (!d.switched.empty()) ++plan_switches;
  }
  double lock_contended = 0;
  for (const auto& l : ledger.locks) lock_contended += static_cast<double>(l.count);

  Fields f = {
      {"pregel.supersteps", static_cast<double>(result.supersteps)},
      {"pregel.messages", messages},
      {"pregel.load_dump_wall_s", job_wall - superstep_wall},
      {"pregel.barrier_wait_s", sec(TimeCategory::kBarrierWait)},
      {"pregel.plan_switches", plan_switches},
      {"dataflow.activations", activations},
      {"dataflow.empty_activation_ratio", Ratio(empty_activations, activations)},
      {"dataflow.shuffle_wait_s", sec(TimeCategory::kShuffleWait)},
      {"dataflow.sort_s", sec(TimeCategory::kSort)},
      {"dataflow.merge_s", sec(TimeCategory::kMerge)},
      {"dataflow.group_by_s", sec(TimeCategory::kGroupBy)},
      {"dataflow.shuffle_bytes", shuffle_bytes},
      {"dataflow.net_bytes", static_cast<double>(meter.net_bytes)},
      {"dataflow.cpu_ops", static_cast<double>(meter.cpu_ops)},
      {"dataflow.spills", spills},
      {"dataflow.spill_bytes", spill_bytes},
  };
  for (const char* op : kPlanOperators) {
    double wall = 0, tuples = 0;
    if (result.plan_profile != nullptr) {
      for (const PlanOperatorProfile& p : result.plan_profile->ops()) {
        if (p.name != op) continue;
        wall += static_cast<double>(p.total.wall_ns) * 1e-9;
        tuples += static_cast<double>(p.total.tuples_in);
      }
    }
    f.push_back({std::string("dataflow.op.") + op + ".wall_s", wall});
    f.push_back({std::string("dataflow.op.") + op + ".tuples_in", tuples});
  }
  const double hits = after.buffer_hits - before.buffer_hits;
  const double misses = after.buffer_misses - before.buffer_misses;
  const double pf_hits = after.prefetch_hits - before.prefetch_hits;
  const double pf_wasted = after.prefetch_wasted - before.prefetch_wasted;
  const Fields rest = {
      {"buffer.hits", hits},
      {"buffer.misses", misses},
      {"buffer.hit_ratio", Ratio(hits, hits + misses)},
      {"buffer.evictions", after.buffer_evictions - before.buffer_evictions},
      {"buffer.writebacks", after.buffer_writebacks - before.buffer_writebacks},
      {"storage.probes", after.storage_probes - before.storage_probes},
      {"storage.inserts", after.storage_inserts - before.storage_inserts},
      {"io.read_s", sec(TimeCategory::kIoRead)},
      {"io.write_s", sec(TimeCategory::kIoWrite)},
      {"io.wait_s", sec(TimeCategory::kIoWait)},
      {"io.disk_read_bytes", static_cast<double>(meter.disk_read_bytes)},
      {"io.disk_write_bytes", static_cast<double>(meter.disk_write_bytes)},
      {"io.disk_seeks", static_cast<double>(meter.disk_seeks)},
      {"io.overlap_io_bytes", static_cast<double>(meter.overlap_io_bytes)},
      {"io.writebehind_stalls",
       after.writebehind_stalls - before.writebehind_stalls},
      {"io.prefetch_hits", pf_hits},
      {"io.prefetch_wasted", pf_wasted},
      {"io.prefetch_useful_ratio", Ratio(pf_hits, pf_hits + pf_wasted)},
      {"common.lock_wait_s", sec(TimeCategory::kLockWait)},
      {"common.lock_contended", lock_contended},
      {"common.idle_s", sec(TimeCategory::kIdle)},
      {"common.ledger_unattributed_ns",
       static_cast<double>(ledger.unattributed_ns)},
      {"algorithms.compute_calls", static_cast<double>(timed.calls())},
      {"algorithms.compute_s", timed.seconds()},
  };
  f.insert(f.end(), rest.begin(), rest.end());
  for (const char* lock : kLocks) {
    double ns = 0, count = 0;
    for (const auto& l : ledger.locks) {
      if (l.name != lock) continue;
      ns += static_cast<double>(l.ns);
      count += static_cast<double>(l.count);
    }
    f.push_back({std::string("common.lock_wait_s.") + lock, ns * 1e-9});
    f.push_back({std::string("common.lock_contended.") + lock, count});
  }
  return f;
}

// ---------------------------------------------------------------------------
// Output check against graph/ref_algos.

struct Reference {
  Algo algo;
  std::vector<double> values;  ///< rank, or distance (-1 = unreachable)
};

Status CheckOutput(const DistributedFileSystem& dfs, const std::string& dir,
                   const Reference& ref) {
  std::vector<std::string> names;
  PREGELIX_RETURN_NOT_OK(dfs.List(dir, &names));
  std::vector<bool> seen(ref.values.size(), false);
  size_t count = 0;
  double rank_sum = 0;
  for (const std::string& name : names) {
    std::string contents;
    PREGELIX_RETURN_NOT_OK(dfs.Read(dir + "/" + name, &contents));
    std::istringstream lines(contents);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.empty()) continue;
      std::istringstream fields(line);
      int64_t vid = -1;
      std::string value;
      fields >> vid >> value;
      if (vid < 0 || static_cast<size_t>(vid) >= ref.values.size() ||
          seen[static_cast<size_t>(vid)]) {
        return Status::Corruption("bad or duplicate vertex line: " + line);
      }
      seen[static_cast<size_t>(vid)] = true;
      ++count;
      const double want = ref.values[static_cast<size_t>(vid)];
      if (ref.algo == Algo::kSssp) {
        const bool ok = want < 0 ? value == "inf"
                                 : value != "inf" && std::stod(value) == want;
        if (!ok) {
          return Status::Corruption("sssp mismatch at vertex " +
                                    std::to_string(vid) + ": got " + value);
        }
      } else {
        const double got = std::stod(value);
        rank_sum += got;
        if (std::fabs(got - want) >
            kPageRankRelTol * std::fabs(want) + kPageRankAbsTol) {
          return Status::Corruption("pagerank mismatch at vertex " +
                                    std::to_string(vid) + ": got " + value);
        }
      }
    }
  }
  if (count != ref.values.size()) {
    return Status::Corruption("output has " + std::to_string(count) +
                              " vertices, want " +
                              std::to_string(ref.values.size()));
  }
  if (ref.algo == Algo::kPageRank && std::fabs(rank_sum - 1.0) > 1e-6) {
    return Status::Corruption("ranks sum to " + JsonNumber(rank_sum));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------

struct Flags {
  std::map<std::string, std::string> values;
  std::string Get(const std::string& k, const std::string& def = "") const {
    auto it = values.find(k);
    return it == values.end() ? def : it->second;
  }
};

/// Everything one setup builds; the last of kSetupRepeats is kept.
struct Setup {
  std::unique_ptr<DistributedFileSystem> dfs;
  std::unique_ptr<SimulatedCluster> cluster;
  std::unique_ptr<PregelixRuntime> runtime;
  GraphStats stats;
  Reference ref;
  double generate_s = 0;
};

Status DoSetup(const Workload& w, uint64_t graph_seed, const std::string& root,
               Tracer* tracer, MetricsRegistry* registry, Setup* out) {
  TraceSpan span(tracer, "bench.setup", kBenchCat, kTraceDriverWorker);
  // Tear down the previous setup first: its cluster owns threads and files.
  out->runtime.reset();
  out->cluster.reset();
  out->dfs.reset();
  RemoveAll(root);
  if (!EnsureDir(root)) return Status::IoError("cannot create " + root);
  out->dfs = std::make_unique<DistributedFileSystem>(root + "/dfs");
  {
    TraceSpan gen(tracer, "bench.generate", kBenchCat, kTraceDriverWorker);
    const double t0 = Now();
    if (w.graph == "webmap") {
      PREGELIX_RETURN_NOT_OK(GenerateWebmapLike(*out->dfs, "input", 4,
                                                w.vertices, w.avg_degree,
                                                graph_seed, &out->stats));
    } else {
      PREGELIX_RETURN_NOT_OK(GenerateBtcLike(*out->dfs, "input", 4, w.vertices,
                                             w.avg_degree, graph_seed,
                                             &out->stats));
    }
    out->generate_s = Now() - t0;
  }
  {
    TraceSpan refspan(tracer, "bench.reference", kBenchCat,
                      kTraceDriverWorker);
    InMemoryGraph graph;
    PREGELIX_RETURN_NOT_OK(LoadGraph(*out->dfs, "input", &graph));
    out->ref.algo = w.algo;
    out->ref.values = w.algo == Algo::kPageRank
                          ? PageRankRef(graph, w.pagerank_iterations)
                          : SsspRef(graph, w.sssp_source);
  }
  {
    TraceSpan cl(tracer, "bench.cluster", kBenchCat, kTraceDriverWorker);
    ClusterConfig config;
    if (w.worker_ram_bytes != 0) config.worker_ram_bytes = w.worker_ram_bytes;
    config.temp_root = root + "/cluster";
    config.tracer = tracer;
    config.metrics_registry = registry;
    out->cluster = std::make_unique<SimulatedCluster>(config);
    out->runtime =
        std::make_unique<PregelixRuntime>(out->cluster.get(), out->dfs.get());
  }
  return Status::OK();
}

std::shared_ptr<PregelProgram> MakeProgram(const Workload& w) {
  if (w.algo == Algo::kPageRank) {
    auto program = std::make_shared<PageRankProgram>(w.pagerank_iterations);
    auto* adapter = new PageRankProgram::Adapter(program.get());
    return std::shared_ptr<PregelProgram>(
        adapter, [program](PregelProgram* p) { delete p; });
  }
  auto program = std::make_shared<SsspProgram>(w.sssp_source);
  auto* adapter = new SsspProgram::Adapter(program.get());
  return std::shared_ptr<PregelProgram>(
      adapter, [program](PregelProgram* p) { delete p; });
}

/// One timed job's samples.
struct JobRow {
  bool traced = false;
  bool ok = false;
  std::string error;
  double wall_s = 0;
  double cpu_s = 0;
  double sim_s = 0;
  int64_t supersteps = 0;
  std::vector<double> superstep_wall_s;
  Fields layers;
};

int Main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      fprintf(stderr, "bad argument: %s\n", arg.c_str());
      return 2;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      flags.values[arg] = "true";
    } else {
      flags.values[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
  const bool tiny = flags.Get("tiny") == "true";
  Workload w;
  if (!FindWorkload(flags.Get("workload"), tiny, &w)) {
    fprintf(stderr, "unknown --workload=%s\n", flags.Get("workload").c_str());
    return 2;
  }
  const std::string work_dir = flags.Get("work-dir");
  if (work_dir.empty()) {
    fprintf(stderr, "--work-dir is required\n");
    return 2;
  }
  const uint64_t seed = std::stoull(flags.Get("seed", "1"));
  const double seconds = std::stod(flags.Get("seconds", "10"));
  const bool trace = flags.Get("trace", "0") == "1";
  const std::string trace_out = flags.Get("trace-out");
  const uint64_t graph_seed = GraphSeed(seed, w.graph);

  Tracer tracer;
  MetricsRegistry registry;
  if (trace) tracer.Enable();

  // --- setup (repeated; the median is setup_s) ------------------------------
  Setup setup;
  std::vector<double> setup_s, generate_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = Now();
    Status s = DoSetup(w, graph_seed, work_dir, &tracer, &registry, &setup);
    if (!s.ok()) {
      fprintf(stderr, "setup failed: %s\n", s.ToString().c_str());
      return 1;
    }
    setup_s.push_back(Now() - t0);
    generate_s.push_back(setup.generate_s);
  }
  const double ram_ratio =
      static_cast<double>(setup.stats.size_bytes) /
      static_cast<double>(setup.cluster->config().aggregate_ram_bytes());
  const int workers = setup.cluster->num_workers();

  std::shared_ptr<PregelProgram> program = MakeProgram(w);
  int job_counter = 0;
  auto run_job = [&](bool traced, JobRow* row) {
    PregelixJobConfig job;
    job.name = w.name;
    job.input_dir = "input";
    job.output_dir = "output-" + std::to_string(job_counter++);
    job.profile_plan = traced;
    if (traced) {
      tracer.Enable();
    } else {
      tracer.Disable();
    }
    TraceSpan job_span(&tracer, "bench.job", kBenchCat, kTraceDriverWorker);
    TimedProgram timed(program.get());
    PregelProgram* run_program = traced ? &timed : program.get();
    RegistryCounts reg_before;
    MetricsSnapshot meter_before;
    if (traced) {
      reg_before = ReadRegistry(setup.cluster.get());
      meter_before = ClusterTotals(*setup.cluster);
      TimeLedger::Global().Reset();
    }
    JobResult result;
    Status s;
    {
      TraceSpan run_span(&tracer, "bench.run", kBenchCat, kTraceDriverWorker);
      const double cpu0 = ProcessCpuSeconds();
      const double t0 = Now();
      s = setup.runtime->Run(run_program, job, &result);
      row->wall_s = Now() - t0;
      row->cpu_s = ProcessCpuSeconds() - cpu0;
    }
    if (traced) {
      const TimeLedgerSnapshot ledger = TimeLedger::Global().TakeSnapshot();
      const MetricsSnapshot meter = ClusterTotals(*setup.cluster) - meter_before;
      row->layers = LayerFields(result, ledger, meter, reg_before,
                                ReadRegistry(setup.cluster.get()), timed,
                                row->wall_s);
    }
    row->traced = traced;
    row->sim_s = result.total_sim_seconds;
    row->supersteps = result.supersteps;
    for (const SuperstepStats& st : result.superstep_stats) {
      row->superstep_wall_s.push_back(st.wall_seconds);
    }
    if (s.ok()) {
      TraceSpan verify(&tracer, "bench.verify", kBenchCat, kTraceDriverWorker);
      s = CheckOutput(*setup.dfs, job.output_dir, setup.ref);
    }
    const Status cleaned = setup.dfs->DeleteRecursive(job.output_dir);
    if (s.ok() && !cleaned.ok()) s = cleaned;
    row->ok = s.ok();
    if (!s.ok()) row->error = s.ToString();
  };

  // --- warm-up: the untimed reference run ----------------------------------
  JobRow warmup;
  run_job(false, &warmup);
  if (!warmup.ok) {
    fprintf(stderr, "warm-up job failed: %s\n", warmup.error.c_str());
    return 1;
  }
  const int64_t ref_supersteps = warmup.supersteps;

  // --- closed loop ----------------------------------------------------------
  std::vector<JobRow> rows;
  const double deadline = Now() + seconds;
  int plain_jobs = 0, traced_jobs = 0;
  const int min_plain = trace ? kMinTracedRunJobs : kMinJobs;
  while (Now() < deadline || plain_jobs < min_plain ||
         (trace && traced_jobs < kMinTracedRunJobs)) {
    const bool traced = trace && traced_jobs < plain_jobs;
    JobRow row;
    run_job(traced, &row);
    if (row.ok && row.supersteps != ref_supersteps) {
      row.ok = false;
      row.error = "supersteps " + std::to_string(row.supersteps) +
                  " != reference " + std::to_string(ref_supersteps);
    }
    (traced ? traced_jobs : plain_jobs)++;
    rows.push_back(std::move(row));
  }
  tracer.Disable();
  const double peak_rss_mb = PeakRssMb();

  if (trace && !trace_out.empty()) {
    Status s = tracer.ExportChromeTrace(trace_out);
    if (!s.ok()) {
      fprintf(stderr, "trace export failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  // --- record ---------------------------------------------------------------
  setup.runtime.reset();
  setup.cluster.reset();
  setup.dfs.reset();
  RemoveAll(work_dir);

  std::string out = "{";
  out += "\"workload\":" + JsonString(w.name);
  out += ",\"stamp\":{";
  out += "\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ",\"compiler\":" + JsonString(BENCH_E2E_COMPILER);
  out += ",\"build_type\":" + JsonString(BENCH_E2E_BUILD_TYPE);
  out += ",\"seed\":" + std::to_string(seed);
  out += ",\"tiny\":" + std::string(tiny ? "true" : "false");
  out += ",\"workers\":" + std::to_string(workers);
  out += ",\"graphs\":[{\"name\":" + JsonString(w.graph) +
         ",\"generator_seed\":" + std::to_string(graph_seed) +
         ",\"vertices\":" + std::to_string(setup.stats.num_vertices) +
         ",\"edges\":" + std::to_string(setup.stats.num_edges) +
         ",\"input_bytes\":" + std::to_string(setup.stats.size_bytes) +
         ",\"ram_ratio\":" + JsonNumber(ram_ratio) + "}]}";
  out += ",\"graph\":" +
         JsonObject({{"graph.vertices",
                      static_cast<double>(setup.stats.num_vertices)},
                     {"graph.edges", static_cast<double>(setup.stats.num_edges)},
                     {"graph.input_bytes",
                      static_cast<double>(setup.stats.size_bytes)},
                     {"graph.ram_ratio", ram_ratio}});
  out += ",\"setup_s\":" + JsonArray(setup_s);
  out += ",\"generate_s\":" + JsonArray(generate_s);
  out += ",\"reference_supersteps\":" + std::to_string(ref_supersteps);
  out += ",\"min_jobs\":" + std::to_string(min_plain);
  out += ",\"peak_rss_mb\":" + JsonNumber(peak_rss_mb);
  out += ",\"jobs\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    const JobRow& r = rows[i];
    if (i > 0) out += ",";
    out += "{\"traced\":" + std::string(r.traced ? "true" : "false");
    out += ",\"ok\":" + std::string(r.ok ? "true" : "false");
    out += ",\"error\":" + JsonString(r.error);
    out += ",\"wall_s\":" + JsonNumber(r.wall_s);
    out += ",\"cpu_s\":" + JsonNumber(r.cpu_s);
    out += ",\"sim_s\":" + JsonNumber(r.sim_s);
    out += ",\"supersteps\":" + std::to_string(r.supersteps);
    out += ",\"superstep_wall_s\":" + JsonArray(r.superstep_wall_s);
    out += ",\"layers\":" + JsonObject(r.layers) + "}";
  }
  out += "]}\n";
  fputs(out.c_str(), stdout);
  fflush(stdout);
  for (const JobRow& r : rows) {
    if (!r.ok) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace pregelix

int main(int argc, char** argv) { return pregelix::Main(argc, argv); }
