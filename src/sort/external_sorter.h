// ExternalSorter: replacement-selection run generation + N-way merge, both
// restartable per the paper's section 5.
//
// Sort phase (5.1): keys stream in through RunWriters, one per scan
// partition; each writer's tournament tree performs replacement selection
// over its own workspace, emitting sorted runs (~2x workspace per run on
// random input).  A writer checkpoint waits for the tree to output all
// extracted keys (Drain), forces the runs, and records the run list, the
// last (open) run, and the highest key output.  Resume truncates known
// runs to their checkpointed sizes and applies the paper's
// append-or-new-stream rule for the first post-restart output.
// FinishWriters closes every writer and adopts all runs; the sorter's own
// checkpoint is that run list, in the same encoding with no open run.
//
// Merge phase (5.2): a loser tree merges the runs; each input stream is
// permanently bound to one leaf, so a vector of per-stream output counters
// identifies the exact restart position.  A merge checkpoint is just that
// counter vector (the consumer checkpoints its own output position
// alongside).

#ifndef OIB_SORT_EXTERNAL_SORTER_H_
#define OIB_SORT_EXTERNAL_SORTER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/options.h"
#include "common/status.h"
#include "sort/run.h"
#include "sort/tournament_tree.h"

namespace oib {

class MergeCursor {
 public:
  // `counters` (if given) are per-input output counts from a checkpoint;
  // each input is repositioned so its counters[i]-th item is next.
  Status Init(RunStore* store, const std::vector<RunId>& runs,
              const std::vector<uint64_t>* counters);

  // False at end of merge.
  StatusOr<bool> Next(SortItem* item);

  // Output counts per input stream — the section 5.2 checkpoint vector.
  const std::vector<uint64_t>& counters() const { return out_counts_; }
  const std::vector<RunId>& runs() const { return runs_; }

 private:
  Status Refill(size_t slot);

  RunStore* store_ = nullptr;
  std::vector<RunId> runs_;
  std::vector<std::unique_ptr<RunReader>> readers_;
  std::vector<SortItem> items_;
  std::vector<bool> valid_;
  std::vector<uint64_t> out_counts_;
  std::unique_ptr<LoserTree> tree_;
};

class ExternalSorter {
 public:
  // Replacement selection over a fixed workspace, feeding one scan
  // partition's runs.  Writers share no mutable state (RunStore itself is
  // thread-safe), so partitions feed the sorter concurrently.
  class RunWriter {
   public:
    RunWriter(RunStore* store, size_t workspace_keys);

    // Copies the key into a workspace slot, reusing the slot's buffer
    // capacity — steady state adds are allocation-free.
    Status Add(KeySlice key, const Rid& rid);
    // Section 5.1 checkpoint: drain + force runs + serialize state.
    StatusOr<std::string> Checkpoint();
    // Adopts a checkpoint's run list, open run and highest key; call
    // before the first Add.
    Status Resume(const std::string& blob);

    const std::vector<RunId>& runs() const { return runs_; }

   private:
    friend class ExternalSorter;
    // Outputs every buffered key ("we wait for the tournament tree to
    // output all the keys that have so far been extracted").  The current
    // run stays open.
    Status Drain();
    Status Output(size_t slot);

    RunStore* store_;
    size_t k_;
    std::vector<SortItem> items_;
    std::vector<uint64_t> tags_;
    std::vector<bool> valid_;
    std::vector<size_t> free_;
    LoserTree tree_;
    bool tree_built_ = false;

    std::vector<RunId> runs_;
    RunId current_run_ = 0;  // 0 = none open
    uint64_t current_tag_ = 0;
    SortItem last_output_;
    bool has_last_output_ = false;
  };

  ExternalSorter(RunStore* store, const Options* options)
      : store_(store), options_(options) {}

  Status CreateWriters(size_t n);
  RunWriter* writer(size_t i) { return writers_[i].get(); }
  // Drains every writer, then adopts all their runs in partition order —
  // so run naming is deterministic for Resume — and drops the writers.
  Status FinishWriters();

  // Reduces the run count to the merge fan-in with extra (non-checkpointed)
  // merge passes.
  Status PrepareMerge();

  // Section 5.1 checkpoint of the adopted run list; ResumeSortPhase
  // adopts it again, each run truncated to its checkpointed size.
  StatusOr<std::string> CheckpointSortPhase();
  Status ResumeSortPhase(const std::string& blob);

  StatusOr<std::unique_ptr<MergeCursor>> OpenMerge(
      const std::vector<uint64_t>* counters = nullptr);

  const std::vector<RunId>& runs() const { return runs_; }

 private:
  RunStore* store_;
  const Options* options_;
  std::vector<RunId> runs_;
  std::vector<std::unique_ptr<RunWriter>> writers_;
};

}  // namespace oib

#endif  // OIB_SORT_EXTERNAL_SORTER_H_
