// BuildPipeline: the scan/sort/consume machinery shared by all three
// index builders (offline, NSF, SF).
//
// Stage 1 — partitioned scan.  The heap chain is split into contiguous
// page-id ranges (PlanPartitionedScan); each partition is scanned by a
// worker under the existing page S latches, feeding a private
// replacement-selection RunWriter per target index (ExternalSorter).
// Restartability generalizes the paper's §5.1 highest-key checkpoint to
// per-partition checkpoints: a worker checkpoints its own writer state and
// scan position into its slot of the shared ScanPlan, and the whole plan —
// deterministic partition boundaries plus per-partition run lists — is
// persisted in BuildMeta.phase_blob so Resume re-creates the same plan.
//
// Stage 2 — merge to consumer.  After FinishWriters() a single N-way merge
// over all partitions' runs feeds the consumer (BulkLoader for SF/offline,
// IbInsertBatch for NSF) in batches.  With build_threads > 1 the merge
// runs on its own thread behind a bounded queue so merge and load/insert
// overlap; each batch carries the merge counters (§5.2) at its end, which
// is the consumer's checkpoint position.
//
// With build_threads == 1 both stages run inline on the calling thread
// and are step-for-step equivalent to the original sequential builders
// (same failpoint cadence, same checkpoint positions).

#ifndef OIB_CORE_BUILD_PIPELINE_H_
#define OIB_CORE_BUILD_PIPELINE_H_

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "common/key.h"
#include "common/status.h"
#include "heap/heap_file.h"
#include "sort/external_sorter.h"

namespace oib {

// Wall-clock milliseconds since `t0`: every builder stage timer.
inline double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

namespace obs {
class Tracer;
}  // namespace obs

// One contiguous page-id range of the heap chain.  `next` is the first
// unscanned page (advanced by checkpoints); `bound` is the exclusive
// page-id upper bound (kInvalidPageId for the final, unbounded partition,
// which follows the chain to stop_page / its current end).
struct ScanPartition {
  PageId next = kInvalidPageId;
  PageId bound = kInvalidPageId;
  // Per-target RunWriter checkpoint blobs (empty until the partition's
  // first checkpoint).
  std::vector<std::string> sorter_blobs;
};

struct ScanPlan {
  // Inclusive last page to scan (NSF notes the tail at build start);
  // kInvalidPageId means "follow the chain to its current end" (SF).
  PageId stop_page = kInvalidPageId;
  std::vector<ScanPartition> parts;
};

std::string EncodeScanPlan(const ScanPlan& plan);
Status DecodeScanPlan(const std::string& blob, ScanPlan* plan);

// Splits the chain (walked once, up to stop_page) into at most `threads`
// contiguous partitions of roughly equal page counts.  Deterministic for
// a given chain prefix.  Never returns zero partitions.
StatusOr<ScanPlan> PlanPartitionedScan(const HeapFile* heap, PageId stop_page,
                                       size_t threads);

class BuildPipeline {
 public:
  struct ScanTarget {
    std::vector<uint32_t> key_cols;
    std::vector<KeyColumnType> key_types;  // empty = all kString
    ExternalSorter* sorter = nullptr;
  };

  struct ScanHooks {
    // Invoked while the page's S latch is still held (SF publishes the
    // global Current-RID frontier here).  `page` is the page just
    // extracted.
    std::function<void(PageId page)> page_scanned;
    // Persists the (re-encoded) plan; invoked with the pipeline's
    // internal plan mutex held, so calls are serialized across workers.
    std::function<Status(const std::string& plan_blob)> checkpoint;
    // Relaxed progress feed (ActiveBuild::keys_done).
    std::function<void(uint64_t keys)> keys_progress;
    // Failpoint name checked once per page per worker (crash tests).
    const char* failpoint = nullptr;
    // Per-partition span names (static literals); workers beyond
    // span_name_count reuse the last name.
    const char* const* span_names = nullptr;
    size_t span_name_count = 0;
  };

  struct ScanResult {
    uint64_t keys_extracted = 0;
    uint64_t pages_scanned = 0;
    uint64_t checkpoints = 0;
    // Summed per-worker busy time (not wall clock; see BuildStats).
    double busy_ms = 0.0;
    // Last page the unbounded partition scanned (SF tail re-probe).
    PageId tail_last_scanned = kInvalidPageId;
  };

  // Runs the partitioned scan.  Creates one RunWriter per (target,
  // partition) — resuming writers from the plan's checkpoint blobs — and
  // executes plan->parts.size() workers (inline when there is only one).
  // Checkpoints fire per partition every `checkpoint_every_keys` extracted
  // keys (0 disables them).  On success the targets' writers are still
  // open: the caller may append tail keys (SF extension race) and must
  // then call FinishWriters() on each sorter before merging.
  static Status RunScan(const HeapFile* heap, obs::Tracer* tracer,
                        const std::vector<ScanTarget>& targets, ScanPlan* plan,
                        const ScanHooks& hooks, size_t checkpoint_every_keys,
                        ScanResult* result);

  // One merge->consumer hand-off unit.  `counters` is the §5.2 merge
  // checkpoint vector *after* the batch's last item: a consumer that has
  // durably processed the batch may checkpoint it as its resume position.
  struct Batch {
    std::vector<SortItem> items;
    std::vector<uint64_t> counters;
  };

  struct MergeStats {
    double merge_busy_ms = 0.0;
    double consume_busy_ms = 0.0;
  };

  // What the builders pass to MergeToConsumer: sorted items per batch
  // (also the consumer's checkpoint grain) and, when the merge runs on its
  // own thread, batches in flight (2 = classic double buffering).
  static constexpr size_t kMergeBatchKeys = 1024;
  static constexpr size_t kMergeQueueDepth = 2;

  // Streams `cursor` into `consume` in batches of `batch_keys` items.
  // When `overlapped`, the merge runs on a producer thread behind a
  // bounded queue of `queue_depth` batches (gauge "build.merge_queued"
  // holds the current occupancy); `consume` always runs on the calling
  // thread.  The first non-OK status from either side stops the pipeline
  // and is returned.
  static Status MergeToConsumer(
      MergeCursor* cursor, size_t batch_keys, size_t queue_depth,
      bool overlapped, const std::function<Status(const Batch&)>& consume,
      MergeStats* stats = nullptr);
};

}  // namespace oib

#endif  // OIB_CORE_BUILD_PIPELINE_H_
