// Online index builders — the paper's core contribution.
//
//  * OfflineIndexBuilder — the "current DBMSs" baseline (section 1): an X
//    table lock blocks every update for the whole build; scan, sort, and
//    bottom-up load run without interference.
//  * NsfIndexBuilder — algorithm NSF (section 2): short quiesce to create
//    the descriptor, lock-free latched scan, restartable sort, multi-key
//    logged inserts into the shared tree with duplicate rejection and the
//    specialized IB split, periodic highest-key checkpoints with commits.
//  * SfIndexBuilder — algorithm SF (section 3): no quiesce while IB scans,
//    sorts and loads; the scan position (Current-RID) drives
//    per-transaction visibility; keys are sorted and loaded bottom-up with
//    no logging; transactions' concurrent changes accumulate in a
//    side-file that IB drains at the end (logged, checkpointed, committed
//    in batches).  Updaters wait only at the drain gate, while IB applies
//    the residual and flips the Index_Build flag.  BuildMany() builds
//    several indexes in one data scan (section 6.2).
//
// All builders are restartable: progress checkpoints live in disk
// metadata (keyed by table), and Resume() continues an interrupted build
// after Engine::Restart.  ReattachInterruptedBuilds() (called during
// restart) re-registers the ActiveBuild state so transactions maintain
// half-built indexes correctly even before Resume runs.

#ifndef OIB_CORE_INDEX_BUILDER_H_
#define OIB_CORE_INDEX_BUILDER_H_

#include <string>
#include <vector>

#include "btree/btree.h"
#include "core/engine.h"

namespace oib {

struct BuildParams {
  std::string name;
  TableId table = 0;
  bool unique = false;
  std::vector<uint32_t> key_cols;
  // Normalized-encoding column types, parallel to key_cols (empty =
  // all kString).
  std::vector<KeyColumnType> key_types;
};

struct BuildStats {
  uint64_t keys_extracted = 0;
  uint64_t data_pages_scanned = 0;
  uint64_t sort_runs = 0;
  BTree::IbStats ib;  // NSF insert-phase stats
  uint64_t keys_loaded = 0;          // SF/offline bottom-up load
  uint64_t side_file_applied = 0;    // SF
  uint64_t side_file_skipped_stale = 0;  // SF restart fences
  uint64_t checkpoints = 0;
  uint64_t commits = 0;
  double quiesce_ms = 0.0;  // time updates were blocked (NSF descriptor /
                            // offline whole build / SF drain gate)
  // Phase timings.  With the parallel BuildPipeline, stages overlap (N
  // scan workers; merge runs concurrently with load/insert), so these are
  // per-stage *busy* times: scan_ms sums every scan worker's active time,
  // merge_ms is the final merge's producer-side time, load_ms the
  // consumer's (bulk load / IbInsertBatch) time.  They no longer add up
  // to wall clock — elapsed_ms is the build's wall-clock duration.
  double scan_ms = 0.0;   // partitioned scan + run generation (summed busy)
  double merge_ms = 0.0;  // final N-way merge (busy)
  double load_ms = 0.0;   // bottom-up load (SF/offline) / key inserts (NSF)
  double apply_ms = 0.0;  // side-file application (SF, wall clock)
  double elapsed_ms = 0.0;  // whole build, wall clock
  // Log volume attributable to the build (delta of LogManager stats
  // between build start and end; includes transaction traffic if any ran
  // concurrently — benches isolate as needed).
  uint64_t log_records = 0;
  uint64_t log_bytes = 0;
  // Key-byte movement through the sort/merge path (delta of RunStore
  // counters over the build): raw normalized key bytes submitted vs the
  // prefix-compressed bytes actually written into runs.
  uint64_t key_bytes_moved = 0;
  uint64_t key_bytes_stored = 0;
};

class OfflineIndexBuilder {
 public:
  explicit OfflineIndexBuilder(Engine* engine) : engine_(engine) {}
  Status Build(const BuildParams& params, IndexId* out,
               BuildStats* stats = nullptr);

 private:
  Engine* engine_;
};

class NsfIndexBuilder {
 public:
  explicit NsfIndexBuilder(Engine* engine) : engine_(engine) {}

  Status Build(const BuildParams& params, IndexId* out,
               BuildStats* stats = nullptr);
  // Continues an interrupted NSF build on `table` after restart.
  Status Resume(TableId table, IndexId* out, BuildStats* stats = nullptr);
  // Section 2.3.2: cancel an in-progress build (quiesces updates briefly
  // to drop the descriptor).
  Status Cancel(TableId table);

 private:
  Status Run(const BuildParams& params, IndexId index_id, int start_phase,
             std::string phase_blob, BuildStats* stats);
  Engine* engine_;
};

class SfIndexBuilder {
 public:
  explicit SfIndexBuilder(Engine* engine) : engine_(engine) {}

  Status Build(const BuildParams& params, IndexId* out,
               BuildStats* stats = nullptr);
  // Section 6.2: multiple indexes in one scan of the data.
  Status BuildMany(const std::vector<BuildParams>& params,
                   std::vector<IndexId>* out, BuildStats* stats = nullptr);
  Status Resume(TableId table, BuildStats* stats = nullptr);
  Status Cancel(TableId table);

 private:
  Engine* engine_;
};

// Restart hook: re-registers ActiveBuild state for every interrupted
// NSF/SF build found in the catalog, adding SF restart fences so stale
// pre-crash side-file entries are skipped during apply (see DESIGN.md).
Status ReattachInterruptedBuilds(Engine* engine);

// Shared by NSF inserts and SF load/apply for unique indexes: the paper's
// verification protocol — S-lock both records, recheck that the duplicate
// key-value condition still exists (section 2.2.3).  Returns OK when the
// insert may proceed, UniqueViolation when the build must be terminated.
Status VerifyUniqueConflict(Engine* engine, TxnId locker, TableId table,
                            const std::vector<uint32_t>& key_cols,
                            const std::vector<KeyColumnType>& key_types,
                            std::string_view key, const Rid& existing_rid,
                            const Rid& new_rid);

// --- build-progress metadata (shared by builders and restart) ---

std::string BuildMetaKey(TableId table);

// Restart fence: a pre-crash side-file entry (ordinal < before_ordinal)
// whose RID falls in [rid_floor, rid_ceiling) describes a change the
// resumed scan will re-extract, so it must be skipped during apply.  With
// per-partition checkpoints there is one fence per re-scan region (each
// partition's saved position up to its bound); the single-frontier case is
// the special case {ordinal, current_rid, UINT64_MAX}.
struct SideFileFence {
  uint64_t before_ordinal = 0;  // applies to entries appended before this
  uint64_t rid_floor = 0;       // packed RID, inclusive
  uint64_t rid_ceiling = ~0ull;  // packed RID, exclusive
};

struct BuildMeta {
  BuildAlgo algo = BuildAlgo::kNone;
  std::vector<IndexId> indexes;
  int phase = 0;
  uint64_t current_rid = 0;  // packed (SF)
  std::vector<std::vector<SideFileFence>> fences;  // per index (SF)
  std::string phase_blob;
};

std::string EncodeBuildMeta(const BuildMeta& meta);
Status DecodeBuildMeta(const std::string& blob, BuildMeta* meta);
Status SaveBuildMeta(Engine* engine, TableId table, const BuildMeta& meta);
StatusOr<BuildMeta> LoadBuildMeta(Engine* engine, TableId table);
Status ClearBuildMeta(Engine* engine, TableId table);

void PutCounters(std::string* out, const std::vector<uint64_t>& counters);
bool GetCounters(BufferReader* r, std::vector<uint64_t>* counters);

}  // namespace oib

#endif  // OIB_CORE_INDEX_BUILDER_H_
