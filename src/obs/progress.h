// Live build-progress reporting types (paper sections 2/3: the phases of
// NSF and SF index builds, plus Current-RID and side-file backlog).
//
// The builders publish phase transitions and per-key counters into the
// ActiveBuild registration (relaxed atomics); Engine::GetBuildProgress()
// assembles this snapshot for monitors, tests, and benches without
// touching the builder's hot path.

#ifndef OIB_OBS_PROGRESS_H_
#define OIB_OBS_PROGRESS_H_

#include <cstdint>

namespace oib {
namespace obs {

// Ordered so that any legal phase sequence of one build is monotonically
// non-decreasing (offline/NSF: quiesce -> scan -> sort -> insert; SF:
// scan -> sort -> load -> apply -> drain -> done).
enum class BuildPhase : int {
  kIdle = 0,
  kQuiesce = 1,      // NSF/offline: updates blocked
  kDescriptor = 2,   // descriptor creation
  kScan = 3,         // data scan + pipelined sort runs
  kSortMerge = 4,    // run finish + merge preparation
  kLoad = 5,         // SF/offline bottom-up load
  kInsert = 6,       // NSF IB insert batches
  kApply = 7,        // SF side-file catch-up
  kDrain = 8,        // SF final drain under the gate
  kDone = 9,
};

const char* BuildPhaseName(BuildPhase phase);

struct BuildProgress {
  bool active = false;
  const char* algo = "none";  // "nsf" | "sf" | "offline" | "none"
  BuildPhase phase = BuildPhase::kIdle;

  // SF scan position vs the heap's current tail (Current-RID, 3.2.2).
  uint64_t current_rid = 0;      // packed RID
  uint64_t scan_page = 0;        // page component of current_rid
  uint64_t table_tail_page = 0;  // heap tail at snapshot time
  double scan_fraction = 0.0;    // ~scan_page/tail, 1.0 once scan finished

  uint64_t keys_done = 0;  // keys extracted + loaded/inserted so far

  // SF side-file depth: entries appended by transactions vs applied by IB.
  uint64_t side_file_appended = 0;
  uint64_t side_file_applied = 0;
  uint64_t side_file_backlog = 0;

  double elapsed_ms = 0.0;
  double keys_per_sec = 0.0;
};

inline const char* BuildPhaseName(BuildPhase phase) {
  switch (phase) {
    case BuildPhase::kIdle:
      return "idle";
    case BuildPhase::kQuiesce:
      return "quiesce";
    case BuildPhase::kDescriptor:
      return "descriptor";
    case BuildPhase::kScan:
      return "scan";
    case BuildPhase::kSortMerge:
      return "sort-merge";
    case BuildPhase::kLoad:
      return "load";
    case BuildPhase::kInsert:
      return "insert";
    case BuildPhase::kApply:
      return "apply";
    case BuildPhase::kDrain:
      return "drain";
    case BuildPhase::kDone:
      return "done";
  }
  return "?";
}

}  // namespace obs
}  // namespace oib

#endif  // OIB_OBS_PROGRESS_H_
