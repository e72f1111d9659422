// Sorted-run storage for the external sorter.
//
// Runs are scratch data, not WAL-protected; durability is modeled the same
// way as the log: each run has a *durable* prefix (what would be on disk at
// a crash) and a volatile tail, with Flush() moving the boundary.  The
// paper's restartable-sort checkpoints (section 5) force runs to disk and
// record their sizes; after a simulated crash, RunStore::DropUnflushed()
// discards the volatile tails and Resume truncates runs to the
// checkpointed lengths.
//
// AttachDir() adds a real spill directory: each run is mirrored to
// `<dir>/run-<id>`, and Flush appends the new tail to the file and
// fdatasyncs *before* advancing the durable boundary, so the file always
// holds at least the durable prefix.  At attach time existing run files
// are loaded back (a torn trailing item is dropped), which is what lets a
// restartable sort resume across a real process crash: the checkpoint's
// recorded run sizes then Truncate away anything past the last
// checkpoint.  Failpoint `runstore.flush` covers the spill write (error /
// short / torn — torn kills the process, see FailPointHardAbort).
//
// Run payload: prefix-compressed items
//   [shared u16][suffix_len u16][suffix bytes][rid u32+u16]
// where `shared` is the length of the common prefix with the *previous*
// item in the run.  Keys are normalized byte strings, so within a sorted
// run adjacent keys share long prefixes and the delta encoding is both
// order-preserving and dictionary-free: a reader reconstructs each key
// from the previous one with a resize+append, and the merge never needs
// to decompress more than the run's running key.  The store keeps
// cumulative raw vs stored key-byte counters so builds can report their
// compression ratio.

#ifndef OIB_SORT_RUN_H_
#define OIB_SORT_RUN_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/key.h"
#include "common/status.h"
#include "common/sync.h"
#include "common/types.h"

namespace oib {

namespace obs {
class MetricsRegistry;
}  // namespace obs

struct SortItem {
  NormalizedKey key;
  Rid rid;
};

// (key, rid) ordering — identical to the index entry order.
int CompareSortItem(const SortItem& a, const SortItem& b);
// Same ordering, comparing a not-yet-materialized (key, rid) pair against
// an item (replacement selection's run-assignment test).
int CompareKeyRid(KeySlice key, const Rid& rid, const SortItem& item);

using RunId = uint64_t;

class RunStore {
 public:
  RunStore() = default;

  RunStore(const RunStore&) = delete;
  RunStore& operator=(const RunStore&) = delete;

  // Attaches a spill directory (created if missing) and loads any run
  // files already in it as durable runs.  Must be called before the first
  // CreateRun.  See the file comment for the crash model.
  Status AttachDir(const std::string& dir);
  bool has_dir() const;

  RunId CreateRun();
  Status Append(RunId id, KeySlice key, const Rid& rid);
  // Marks everything appended so far durable.  With a directory attached
  // this writes the tail to the run file first and fails (boundary
  // unmoved) if the write does.
  Status Flush(RunId id);
  // Crash simulation: every run loses its volatile tail.
  void DropUnflushed();
  // Deletes a run entirely.
  void Remove(RunId id);
  // Truncates a run to `bytes` (restart repositioning, section 5.1).
  Status Truncate(RunId id, uint64_t bytes);

  StatusOr<uint64_t> DurableSize(RunId id) const;
  StatusOr<uint64_t> Size(RunId id) const;
  StatusOr<uint64_t> ItemCount(RunId id) const;

  size_t run_count() const;
  uint64_t total_bytes() const;

  // Cumulative (monotone, never reset) key-byte counters across all runs
  // ever appended: raw = normalized key bytes submitted, stored = suffix
  // bytes actually written after prefix compression.  Builders report the
  // delta over a build as its bytes-moved / compression-ratio stats.
  uint64_t raw_key_bytes() const;
  uint64_t stored_key_bytes() const;

  // Publishes the cumulative counters as sort.key_bytes_raw /
  // sort.key_bytes_stored value callbacks.
  void AttachMetrics(obs::MetricsRegistry* registry);
  ~RunStore();

 private:
  friend class RunReader;

  struct Run {
    std::string data;
    uint64_t durable = 0;
    uint64_t items = 0;
    // Full key of the last appended item — the prefix reference for the
    // next append.  Rebuilt by walking after DropUnflushed/Truncate.
    std::string last_key;
  };

  std::string RunFilePath(RunId id) const OIB_REQUIRES(mu_);
  // Appends run bytes [durable, data.size()) to the run file and
  // fdatasyncs.  Bounded retry on transient errors; `runstore.flush`
  // failpoint site.
  Status SpillLocked(RunId id, const Run& run) OIB_REQUIRES(mu_);

  mutable sync::Mutex mu_{sync::LockRank::kRunStore, "runstore.mu"};
  std::string dir_ OIB_GUARDED_BY(mu_);  // empty = in-memory only
  std::map<RunId, Run> runs_ OIB_GUARDED_BY(mu_);
  RunId next_id_ OIB_GUARDED_BY(mu_) = 1;
  uint64_t raw_key_bytes_ OIB_GUARDED_BY(mu_) = 0;
  uint64_t stored_key_bytes_ OIB_GUARDED_BY(mu_) = 0;
  obs::MetricsRegistry* metrics_ = nullptr;  // set by AttachMetrics
};

// Sequential reader over a run, positionable by item index.  Keeps the
// running reconstructed key between Reads (prefix decompression state).
class RunReader {
 public:
  RunReader(RunStore* store, RunId id) : store_(store), id_(id) {}

  // Positions so the next Read returns item `index` (0-based).  O(index)
  // skip — restart repositioning per the merge checkpoint counters
  // (section 5.2) — reconstructing the running key along the way.
  Status SeekToItem(uint64_t index);

  // False at end of run.
  StatusOr<bool> Read(SortItem* item);

 private:
  RunStore* store_;
  RunId id_;
  uint64_t offset_ = 0;
  std::string key_;  // running key (previous item's full key)
};

}  // namespace oib

#endif  // OIB_SORT_RUN_H_
