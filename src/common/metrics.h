#ifndef PREGELIX_COMMON_METRICS_H_
#define PREGELIX_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <vector>

namespace pregelix {

/// Point-in-time copy of one worker's resource counters.
struct MetricsSnapshot {
  uint64_t cpu_ops = 0;           ///< tuple operations, comparisons, UDF calls
  uint64_t disk_read_bytes = 0;   ///< sequential read volume
  uint64_t disk_write_bytes = 0;  ///< sequential write volume
  uint64_t disk_seeks = 0;        ///< random I/Os (cold index probes)
  uint64_t net_bytes = 0;         ///< bytes crossing worker boundaries
  /// Always 0: no I/O runs off the calling thread (DESIGN.md §19). Kept
  /// only so existing readers of the snapshot keep compiling.
  uint64_t overlap_io_bytes = 0;

  MetricsSnapshot operator-(const MetricsSnapshot& o) const {
    MetricsSnapshot d;
    d.cpu_ops = cpu_ops - o.cpu_ops;
    d.disk_read_bytes = disk_read_bytes - o.disk_read_bytes;
    d.disk_write_bytes = disk_write_bytes - o.disk_write_bytes;
    d.disk_seeks = disk_seeks - o.disk_seeks;
    d.net_bytes = net_bytes - o.net_bytes;
    return d;
  }
  MetricsSnapshot& operator+=(const MetricsSnapshot& o) {
    cpu_ops += o.cpu_ops;
    disk_read_bytes += o.disk_read_bytes;
    disk_write_bytes += o.disk_write_bytes;
    disk_seeks += o.disk_seeks;
    net_bytes += o.net_bytes;
    return *this;
  }
};

/// Thread-safe per-worker resource meter.
///
/// Every layer that moves bytes or burns CPU reports here: the buffer cache
/// reports page I/O, run files report sequential I/O, connectors report
/// network bytes, operators report tuple ops. The cost model (below) turns a
/// snapshot delta into simulated seconds on the paper's cluster hardware.
class WorkerMetrics {
 public:
  WorkerMetrics() = default;
  WorkerMetrics(const WorkerMetrics&) = delete;
  WorkerMetrics& operator=(const WorkerMetrics&) = delete;

  void AddCpuOps(uint64_t n) { cpu_ops_.fetch_add(n, std::memory_order_relaxed); }
  void AddDiskRead(uint64_t n) {
    disk_read_bytes_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddDiskWrite(uint64_t n) {
    disk_write_bytes_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddSeeks(uint64_t n) { disk_seeks_.fetch_add(n, std::memory_order_relaxed); }
  void AddNet(uint64_t n) { net_bytes_.fetch_add(n, std::memory_order_relaxed); }

  MetricsSnapshot Snapshot() const {
    MetricsSnapshot s;
    s.cpu_ops = cpu_ops_.load(std::memory_order_relaxed);
    s.disk_read_bytes = disk_read_bytes_.load(std::memory_order_relaxed);
    s.disk_write_bytes = disk_write_bytes_.load(std::memory_order_relaxed);
    s.disk_seeks = disk_seeks_.load(std::memory_order_relaxed);
    s.net_bytes = net_bytes_.load(std::memory_order_relaxed);
    return s;
  }

  void Reset() {
    cpu_ops_.store(0, std::memory_order_relaxed);
    disk_read_bytes_.store(0, std::memory_order_relaxed);
    disk_write_bytes_.store(0, std::memory_order_relaxed);
    disk_seeks_.store(0, std::memory_order_relaxed);
    net_bytes_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> cpu_ops_{0};
  std::atomic<uint64_t> disk_read_bytes_{0};
  std::atomic<uint64_t> disk_write_bytes_{0};
  std::atomic<uint64_t> disk_seeks_{0};
  std::atomic<uint64_t> net_bytes_{0};
};

/// Hardware rates of the simulated cluster node (DESIGN.md Section 7). The
/// defaults model one worker of the paper's testbed: a 2.26 GHz Xeon core
/// running managed-runtime data-plane code (1M tuple-operations/s — a
/// tuple-op is a full operator step over one tuple, not an instruction), a
/// 7.2K RPM disk with readahead, and a share of a Gigabit Ethernet link.
struct CostModelParams {
  double cpu_ops_per_sec = 1e6;
  double disk_bytes_per_sec = 100e6;
  double seek_sec = 0.005;
  double net_bytes_per_sec = 117e6;
  double barrier_sec = 0.001;            ///< per-superstep master coordination
  double per_worker_coord_sec = 0.00025;
};

/// Simulated seconds one worker spends on the given counter delta: the
/// phase-serial sum of CPU, disk (transfer + seeks) and network time.
double SimulatedWorkerSeconds(const MetricsSnapshot& delta,
                              const CostModelParams& params);

/// Simulated seconds with full overlap of CPU, disk, and network (the
/// bottleneck resource dominates). Used for multi-job throughput estimates:
/// concurrent jobs overlap one job's CPU with another's I/O, which is where
/// the paper's jobs-per-hour gains come from (Figure 13).
double OverlappedWorkerSeconds(const MetricsSnapshot& delta,
                               const CostModelParams& params);

/// BSP step time: the max across workers plus the barrier overhead.
double SimulatedStepSeconds(const std::vector<MetricsSnapshot>& deltas,
                            const CostModelParams& params);

}  // namespace pregelix

#endif  // PREGELIX_COMMON_METRICS_H_
