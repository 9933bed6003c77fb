// The standard control-plane chaos schedule (DESIGN.md §13). The control
// fault kinds themselves are part of FaultPlan.
#ifndef SRC_FAULT_CONTROL_FAULT_PLAN_H_
#define SRC_FAULT_CONTROL_FAULT_PLAN_H_

#include "src/fault/fault_plan.h"

namespace mudi {

// The standard deterministic control-chaos schedule used by the
// `--ctrl-chaos` preset and bench_ctrl_fault: delayed/lossy watch delivery
// and stale reads for the whole run, a partition window, a watch-loss
// episode, and two scheduler crashes — the second one inside a partition so
// the recovery scan has to back off through retry, and close enough to the
// first that a slow recovery exercises the crash-during-recovery path.
FaultPlan StandardControlChaosPlan();

}  // namespace mudi

#endif  // SRC_FAULT_CONTROL_FAULT_PLAN_H_
