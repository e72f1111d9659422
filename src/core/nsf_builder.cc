// Algorithm NSF — Index Build Without Side-File (paper section 2).
//
// Pipeline: (1) create the descriptor under a short table-S quiesce, after
// which transactions maintain the new index directly; (2) scan the data
// pages with latches only (no locks), extracting and sorting keys in a
// pipelined, checkpointed fashion (restartable sort, section 5) — the
// scan is partitioned across build_threads workers by the shared
// BuildPipeline, with per-partition checkpoints; (3) feed the final merge
// pass into multi-key index inserts with duplicate rejection, IB-mode
// splits, and periodic highest-position checkpoints with commits
// (section 2.2.3), overlapping merge and inserts when parallel; (4) make
// the index available for reads.

#include <chrono>

#include "btree/btree.h"
#include "common/coding.h"
#include "common/failpoint.h"
#include "core/build_pipeline.h"
#include "core/index_builder.h"
#include "core/schema.h"
#include "obs/trace.h"
#include "sort/external_sorter.h"

namespace oib {

namespace {

// NSF phase-1 blob: the encoded ScanPlan (stop_page = the tail noted at
// build start; per-partition scan positions + writer checkpoints).

// NSF phase-2 blob: [final sort blob][has_counters][counters][inserted].
std::string EncodeNsfInsertState(const std::string& sort_blob,
                                 bool has_counters,
                                 const std::vector<uint64_t>& counters,
                                 uint64_t inserted) {
  std::string out;
  PutLengthPrefixed(&out, sort_blob);
  out.push_back(has_counters ? 1 : 0);
  PutCounters(&out, counters);
  PutFixed64(&out, inserted);
  return out;
}

Status DecodeNsfInsertState(const std::string& blob, std::string* sort_blob,
                            bool* has_counters,
                            std::vector<uint64_t>* counters,
                            uint64_t* inserted) {
  BufferReader r(blob);
  uint8_t has;
  if (!r.GetLengthPrefixed(sort_blob) || !r.GetByte(&has) ||
      !GetCounters(&r, counters) || !r.GetFixed64(inserted)) {
    return Status::Corruption("nsf insert state");
  }
  *has_counters = has != 0;
  return Status::OK();
}

constexpr const char* kNsfScanSpans[] = {
    "nsf.scan.p0", "nsf.scan.p1", "nsf.scan.p2", "nsf.scan.p3",
    "nsf.scan.p4", "nsf.scan.p5", "nsf.scan.p6", "nsf.scan.p7"};

}  // namespace

Status NsfIndexBuilder::Build(const BuildParams& params, IndexId* out,
                              BuildStats* stats) {
  Catalog* catalog = engine_->catalog();

  // Section 2.2.1: quiesce updates (table S lock) only for the duration
  // of descriptor creation, so no transaction holds uncommitted updates
  // that predate the descriptor.
  auto t_quiesce = std::chrono::steady_clock::now();
  obs::ScopedSpan quiesce_span(engine_->tracer(), "nsf.quiesce");
  Transaction* quiesce_txn = engine_->Begin();
  LockOptions opt;
  opt.timeout_ms = 60'000;  // builds wait out active transactions
  OIB_RETURN_IF_ERROR(engine_->locks()->Lock(
      quiesce_txn->id(), TableLockId(params.table), LockMode::kS, opt));

  auto desc = catalog->CreateIndex(params.name, params.table, params.unique,
                                   params.key_cols, BuildAlgo::kNsf,
                                   params.key_types);
  if (!desc.ok()) {
    (void)engine_->Rollback(quiesce_txn);
    return desc.status();
  }
  auto build = catalog->BeginBuild(params.table, BuildAlgo::kNsf, {desc->id});
  if (!build.ok()) {
    (void)catalog->DropIndex(desc->id);
    (void)engine_->Rollback(quiesce_txn);
    return build.status();
  }
  (*build)->SetPhase(obs::BuildPhase::kQuiesce);

  BuildMeta meta;
  meta.algo = BuildAlgo::kNsf;
  meta.indexes = {desc->id};
  meta.phase = 1;
  OIB_RETURN_IF_ERROR(SaveBuildMeta(engine_, params.table, meta));

  OIB_RETURN_IF_ERROR(engine_->Commit(quiesce_txn));  // end of quiesce
  quiesce_span.End();
  if (stats != nullptr) stats->quiesce_ms = MsSince(t_quiesce);

  if (out != nullptr) *out = desc->id;
  return Run(params, desc->id, /*start_phase=*/1, "", stats);
}

Status NsfIndexBuilder::Resume(TableId table, IndexId* out,
                               BuildStats* stats) {
  // Restart published the interrupted build (ReattachInterruptedBuilds).
  const TableView* view = engine_->catalog()->view(table);
  if (view == nullptr || view->build == nullptr ||
      view->build->algo != BuildAlgo::kNsf ||
      view->build->indexes.size() != 1) {
    return Status::InvalidArgument("not an interrupted NSF build");
  }
  const IndexRef& ix = view->build->indexes[0];
  int phase = 1;
  std::string phase_blob;
  auto meta = LoadBuildMeta(engine_, table);
  if (meta.ok()) {
    if (meta->algo != BuildAlgo::kNsf || meta->indexes.size() != 1 ||
        meta->indexes[0] != ix.id) {
      return Status::InvalidArgument("not an interrupted NSF build");
    }
    phase = meta->phase;
    phase_blob = meta->phase_blob;
  } else if (!meta.status().IsNotFound()) {
    return meta.status();
  }
  // No meta: a crash between descriptor creation and the first checkpoint.
  // Nothing was inserted yet, so the build restarts from the beginning.
  BuildParams params;
  params.table = table;
  params.unique = ix.unique;
  params.key_cols = ix.key_cols;
  params.key_types = ix.key_types;
  if (out != nullptr) *out = ix.id;
  return Run(params, ix.id, phase, phase_blob, stats);
}

Status NsfIndexBuilder::Run(const BuildParams& params, IndexId index_id,
                            int start_phase, std::string phase_blob,
                            BuildStats* stats) {
  Catalog* catalog = engine_->catalog();
  const TableView* view = catalog->view(params.table);
  if (view == nullptr || view->build == nullptr ||
      view->build->algo != BuildAlgo::kNsf ||
      view->build->indexes[0].id != index_id) {
    return Status::Corruption("NSF build not published");
  }
  HeapFile* heap = view->heap;
  ActiveBuild* build = view->build.get();
  BTree* tree = build->indexes[0].tree;
  const Options& options = engine_->options();
  LogStats log_before = engine_->log()->stats();
  uint64_t key_raw_before = engine_->runs()->raw_key_bytes();
  uint64_t key_stored_before = engine_->runs()->stored_key_bytes();
  BuildStats local;
  obs::Tracer* tracer = engine_->tracer();
  auto t_run = std::chrono::steady_clock::now();

  ExternalSorter sorter(engine_->runs(), &options);
  BuildMeta meta;
  meta.algo = BuildAlgo::kNsf;
  meta.indexes = {index_id};

  std::string final_sort_blob;
  bool has_counters = false;
  std::vector<uint64_t> counters;
  uint64_t inserted = 0;

  if (start_phase <= 1) {
    // ---- Phase 1: partitioned scan + pipelined sort (sections 2.2.2,
    // 5.1).  The plan's stop_page is the tail noted before scanning:
    // records appended to later extensions get their keys inserted
    // directly by transactions (section 2.3.1).
    build->SetPhase(obs::BuildPhase::kScan);
    obs::ScopedSpan scan_span(tracer, "nsf.scan");
    ScanPlan plan;
    if (!phase_blob.empty()) {
      OIB_RETURN_IF_ERROR(DecodeScanPlan(phase_blob, &plan));
      if (plan.parts.empty()) return Status::Corruption("nsf scan plan");
    } else {
      auto planned = PlanPartitionedScan(heap, heap->tail_page(),
                                         options.build_threads);
      if (!planned.ok()) return planned.status();
      plan = std::move(*planned);
    }

    BuildPipeline::ScanHooks hooks;
    hooks.failpoint = "nsf.scan";
    hooks.span_names = kNsfScanSpans;
    hooks.span_name_count = 8;
    hooks.checkpoint = [&](const std::string& blob) -> Status {
      obs::ScopedSpan ckpt_span(tracer, "nsf.ckpt");
      meta.phase = 1;
      meta.phase_blob = blob;
      return SaveBuildMeta(engine_, params.table, meta);
    };
    hooks.keys_progress = [&](uint64_t n) {
      build->keys_done.fetch_add(n, std::memory_order_relaxed);
    };
    BuildPipeline::ScanResult scan_res;
    Status s = BuildPipeline::RunScan(
        heap, tracer, {{params.key_cols, params.key_types, &sorter}}, &plan,
        hooks, options.sort_checkpoint_every_keys, &scan_res);
    local.keys_extracted = scan_res.keys_extracted;
    local.data_pages_scanned = scan_res.pages_scanned;
    local.checkpoints += scan_res.checkpoints;
    local.scan_ms = scan_res.busy_ms;
    if (!s.ok()) return s;

    scan_span.set_arg(local.keys_extracted);
    scan_span.End();
    build->SetPhase(obs::BuildPhase::kSortMerge);
    obs::ScopedSpan sort_span(tracer, "nsf.sort.merge_prep");
    OIB_RETURN_IF_ERROR(sorter.FinishWriters());
    OIB_RETURN_IF_ERROR(sorter.PrepareMerge());
    local.sort_runs = sorter.runs().size();

    auto blob = sorter.CheckpointSortPhase("");
    if (!blob.ok()) return blob.status();
    final_sort_blob = *blob;
    meta.phase = 2;
    meta.phase_blob =
        EncodeNsfInsertState(final_sort_blob, false, {}, 0);
    OIB_RETURN_IF_ERROR(SaveBuildMeta(engine_, params.table, meta));
  } else {
    OIB_RETURN_IF_ERROR(DecodeNsfInsertState(
        phase_blob, &final_sort_blob, &has_counters, &counters, &inserted));
    auto caller = sorter.ResumeSortPhase(final_sort_blob);
    if (!caller.ok()) return caller.status();
    local.sort_runs = sorter.runs().size();
  }

  // ---- Phase 2: multi-key inserts with periodic commits (2.2.3), fed by
  // the final merge — on its own thread when the build is parallel.
  build->SetPhase(obs::BuildPhase::kInsert);
  obs::ScopedSpan insert_span(tracer, "nsf.insert");
  auto cursor = sorter.OpenMerge(has_counters ? &counters : nullptr);
  if (!cursor.ok()) return cursor.status();

  Transaction* txn = engine_->Begin();
  auto abort_build = [&](const Status& cause) -> Status {
    (void)engine_->Rollback(txn);
    Status s = CancelBuild(engine_, params.table);
    if (!s.ok()) return s;
    return cause;
  };

  BTree::UniqueConflictFn on_conflict =
      [&](std::string_view key, const Rid& existing, bool existing_pseudo,
          const Rid& new_rid) -> Status {
    (void)existing_pseudo;
    return VerifyUniqueConflict(engine_, txn->id(), params.table,
                                params.key_cols, params.key_types, key,
                                existing, new_rid);
  };

  std::vector<std::pair<std::string, Rid>> batch;
  uint64_t last_ckpt_inserted = inserted;
  batch.reserve(options.ib_keys_per_call);
  // Stream-level unique detection: adjacent equal key values in the
  // sorted stream are two records with the same value — verify with the
  // lock protocol before the tree ever sees them (the in-tree neighbour
  // check below catches IB-vs-transaction conflicts).
  std::string prev_key;
  Rid prev_rid;
  bool has_prev = false;

  auto flush_batch = [&]() -> Status {
    if (batch.empty()) return Status::OK();
    OIB_FAIL_POINT("nsf.insert_batch");
    obs::ScopedSpan batch_span(tracer, "nsf.insert.batch", batch.size());
    std::vector<IndexKeyRef> refs;
    refs.reserve(batch.size());
    for (const auto& [k, r] : batch) refs.push_back(IndexKeyRef{k, r});
    OIB_RETURN_IF_ERROR(tree->IbInsertBatch(txn, refs, params.unique,
                                            on_conflict, &local.ib));
    inserted += batch.size();
    build->keys_done.fetch_add(batch.size(), std::memory_order_relaxed);
    batch.clear();
    return Status::OK();
  };

  // Consumes one merge batch.  Checkpoints happen at merge-batch
  // boundaries only, where the batch's counters vector identifies the
  // exact merge position (§5.2) matching `inserted` once the pending
  // insert batch is flushed.
  auto consume = [&](const BuildPipeline::Batch& mb) -> Status {
    for (const SortItem& item : mb.items) {
      if (params.unique && has_prev && item.key.view() == prev_key &&
          !(item.rid == prev_rid)) {
        OIB_RETURN_IF_ERROR(VerifyUniqueConflict(
            engine_, txn->id(), params.table, params.key_cols,
            params.key_types, item.key.view(), prev_rid, item.rid));
      }
      prev_key.assign(item.key.data(), item.key.size());
      prev_rid = item.rid;
      has_prev = true;
      batch.emplace_back(const_cast<SortItem&>(item).key.TakeBytes(),
                         item.rid);
      if (batch.size() >= options.ib_keys_per_call) {
        OIB_RETURN_IF_ERROR(flush_batch());
      }
    }
    if (options.ib_checkpoint_every_keys > 0 &&
        inserted + batch.size() - last_ckpt_inserted >=
            options.ib_checkpoint_every_keys) {
      OIB_RETURN_IF_ERROR(flush_batch());
      obs::ScopedSpan ckpt_span(tracer, "nsf.ckpt");
      // Checkpoint the position reached, then commit, then persist: a
      // crash between the commit and the meta write only causes harmless
      // duplicate re-insertions (rejected, no log records) per 2.2.3.
      OIB_RETURN_IF_ERROR(engine_->Commit(txn));
      ++local.commits;
      meta.phase = 2;
      meta.phase_blob =
          EncodeNsfInsertState(final_sort_blob, true, mb.counters, inserted);
      OIB_RETURN_IF_ERROR(SaveBuildMeta(engine_, params.table, meta));
      ++local.checkpoints;
      last_ckpt_inserted = inserted;
      txn = engine_->Begin();
    }
    return Status::OK();
  };

  BuildPipeline::MergeStats merge_stats;
  {
    Status s = BuildPipeline::MergeToConsumer(
        cursor->get(), BuildPipeline::kMergeBatchKeys,
        BuildPipeline::kMergeQueueDepth, options.build_threads > 1, consume,
        &merge_stats);
    if (s.ok()) s = flush_batch();
    if (!s.ok()) {
      if (s.IsInjected()) return s;  // crash-test hook: leave state as-is
      return abort_build(s);
    }
  }
  // Commit edge: the whole insert phase is about to become durable.
  OIB_FAIL_POINT("nsf.commit");
  OIB_RETURN_IF_ERROR(engine_->Commit(txn));
  ++local.commits;
  local.merge_ms = merge_stats.merge_busy_ms;
  local.load_ms = merge_stats.consume_busy_ms;
  insert_span.End();
  build->SetPhase(obs::BuildPhase::kDone);

  // ---- Phase 3: make the index available for reads.  With data-only
  // locking no update quiesce is needed (section 6.2): one publication
  // moves the index from the build to the ready indexes, so every update
  // maintains it exactly once, NSF-style before and directly after.
  OIB_RETURN_IF_ERROR(catalog->FinishBuild(params.table));
  OIB_RETURN_IF_ERROR(ClearBuildMeta(engine_, params.table));

  LogStats log_after = engine_->log()->stats();
  local.log_records = log_after.records - log_before.records;
  local.log_bytes = log_after.bytes - log_before.bytes;
  local.key_bytes_moved = engine_->runs()->raw_key_bytes() - key_raw_before;
  local.key_bytes_stored =
      engine_->runs()->stored_key_bytes() - key_stored_before;
  local.elapsed_ms = MsSince(t_run);
  if (stats != nullptr) {
    local.quiesce_ms = stats->quiesce_ms;  // preserved from Build()
    local.elapsed_ms += stats->quiesce_ms;
    *stats = local;
  }
  return Status::OK();
}

}  // namespace oib
