#ifndef PREGELIX_PREGEL_PLANS_H_
#define PREGELIX_PREGEL_PLANS_H_

#include <cstdint>
#include <functional>

#include "dataflow/job.h"
#include "pregel/state.h"

namespace pregelix {

class PlanProfile;

/// The Pregelix plan generator (paper Section 5.7): produces the physical
/// dataflow jobs for data loading, each Pregel superstep, result writing,
/// checkpointing, and recovery, honoring the job's physical hints (join
/// strategy, group-by strategy, group-by connector, vertex storage).

/// Load: scan DFS part files -> parse -> m-to-n partition by vid ->
/// external sort -> bulk load the Vertex index (and Vid for the left-outer
/// plan); sets per-partition vertex/edge counts.
JobSpec BuildLoadJob(JobRuntimeContext* ctx);

/// One superstep i (Figures 3-5, 8): the compute source joins Msg_i with
/// Vertex (full-outer scan or Vid-merge + left-outer probe), runs the
/// compute UDF with its mini-operators (filter, Vertex update, projections),
/// and feeds three flows: messages to the combine group-by (D3->D7), global
/// state contributions to the aggregation clone (D4/D5), and mutations to
/// resolve (D6). Builds the plan in ctx->plan; it resolves nothing itself.
JobSpec BuildSuperstepJob(JobRuntimeContext* ctx);

/// Dump: scan Vertex -> format -> DFS output part files.
JobSpec BuildDumpJob(JobRuntimeContext* ctx);

/// Checkpoint after superstep `superstep` completed: Vertex + Msg (+ Vid)
/// snapshots plus GS to the DFS (paper Section 5.5).
JobSpec BuildCheckpointJob(JobRuntimeContext* ctx, int64_t superstep);

/// Recovery: reload Vertex/Msg/Vid of every partition from the checkpoint
/// taken after `superstep`.
JobSpec BuildRecoveryJob(JobRuntimeContext* ctx, int64_t superstep);

/// DFS directory of one checkpoint.
std::string CheckpointDir(const JobRuntimeContext& ctx, int64_t superstep);

/// Test-only: when set, mutates every JobSpec BuildSuperstepJob returns —
/// simulates a buggy plan generator so the verifier's switch-rejection
/// fallback (plan_optimizer.cc) can be exercised end to end. Pass nullptr
/// to clear. Install before Run, clear after; not thread-safe against
/// in-flight jobs.
using SuperstepSpecTamper = std::function<void(JobRuntimeContext*, JobSpec*)>;
void SetSuperstepSpecTamperForTesting(SuperstepSpecTamper fn);

/// Annotates a collected PlanProfile with the paper's operator vocabulary
/// (Vid-merge, left-outer probe, combine group-by D3->D7, aggregation clone
/// D4/D5, mutation resolve D6 -- Figures 3-5 and 8) so EXPLAIN output reads
/// like the paper's plan diagrams.
void AttachPaperPlanLabels(PlanProfile* profile);

}  // namespace pregelix

#endif  // PREGELIX_PREGEL_PLANS_H_
