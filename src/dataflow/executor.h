#ifndef PREGELIX_DATAFLOW_EXECUTOR_H_
#define PREGELIX_DATAFLOW_EXECUTOR_H_

#include "common/status.h"
#include "dataflow/cluster.h"
#include "dataflow/job.h"
#include "dataflow/plan_profile.h"

namespace pregelix {

/// Executes a dataflow job on the simulated cluster and blocks until it
/// finishes. Admission first runs the static plan verifier
/// (dataflow/plan_verifier.h) against the cluster's budgets: an invalid
/// plan is rejected with InvalidArgument carrying the multi-line diagnostic
/// and never starts executing. Every (operator, partition) clone then runs
/// on its own thread, like Hyracks tasks; connectors move frames through
/// FrameChannels. On the first task failure the job aborts: the shared
/// abort flag unblocks all channel waits and the first error is returned.
///
/// `runtime_context` is passed through to every TaskContext (the per-job
/// state hook used by the Pregelix layer).
///
/// Every clone keeps one ActivationRecord (tuples, frames and bytes per
/// connector, wall time, memory high-water mark, spills), and its end folds
/// the record into the registry's dataflow counters and the `operator`
/// trace span. `profile`, when non-null, is finalized from all records
/// (skew + critical path) before returning.
Status RunJob(SimulatedCluster& cluster, const JobSpec& spec,
              void* runtime_context = nullptr, PlanProfile* profile = nullptr);

}  // namespace pregelix

#endif  // PREGELIX_DATAFLOW_EXECUTOR_H_
