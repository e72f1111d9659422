// Algorithm SF — Bottom-Up Index Build with Side-File (paper section 3).
//
// Updates are never quiesced while IB scans, sorts and loads.  The builder
// maintains Current-RID as it scans; a transaction whose Target-RID is
// behind the scan sees the index as visible and appends <op, key> entries
// to the side-file (Figure 1), otherwise it ignores the index and IB
// extracts the final state.  Keys are sorted (restartable) and loaded
// bottom-up with *no logging*; durability comes from loader checkpoints
// that flush the index pages and record the highest key + rightmost branch
// (3.2.4).  Finally IB applies the side-file — logged, committed and
// checkpointed in batches — and flips the Index_Build flag under the drain
// gate (3.2.5).  Updaters wait at the gate only while IB applies the
// residual its catch-up left; BuildStats::quiesce_ms reports that blackout.
//
// The scan is partitioned across build_threads workers by the shared
// BuildPipeline.  Current-RID stays a single global frontier: each worker
// advances it under the page's S latch to the *maximum* page it has
// extracted (CAS-max).  Pages in not-yet-scanned gaps below the frontier
// then take both routes — side-file entry *and* later extraction — which
// the tolerant apply (duplicate inserts rejected, absent deletes ignored)
// absorbs; the unsafe direction, a change on an extracted page with no
// side-file entry, can never happen (see DESIGN.md).
//
// BuildMany() builds several indexes in one scan (section 6.2): one
// sorter per index fed by a single pass over the data pages, then
// per-index load and apply phases.

#include <chrono>
#include <functional>

#include "btree/bulk_loader.h"
#include "common/coding.h"
#include "common/failpoint.h"
#include "core/build_pipeline.h"
#include "core/index_builder.h"
#include "core/schema.h"
#include "obs/trace.h"
#include "sort/external_sorter.h"

namespace oib {

namespace {

// Phase-1 blob: the encoded ScanPlan (per-partition scan positions + one
// run-writer checkpoint per index per partition).

// Phase-2 blob: [loading_idx][n sort blobs][loader blob (may be empty)].
std::string EncodeSfLoadState(uint32_t loading_idx,
                              const std::vector<std::string>& sort_blobs,
                              const std::string& loader_blob) {
  std::string out;
  PutFixed32(&out, loading_idx);
  PutFixed32(&out, static_cast<uint32_t>(sort_blobs.size()));
  for (const std::string& b : sort_blobs) PutLengthPrefixed(&out, b);
  PutLengthPrefixed(&out, loader_blob);
  return out;
}

Status DecodeSfLoadState(const std::string& blob, uint32_t* loading_idx,
                         std::vector<std::string>* sort_blobs,
                         std::string* loader_blob) {
  BufferReader r(blob);
  uint32_t n;
  if (!r.GetFixed32(loading_idx) || !r.GetFixed32(&n)) {
    return Status::Corruption("sf load state");
  }
  sort_blobs->clear();
  for (uint32_t i = 0; i < n; ++i) {
    std::string b;
    if (!r.GetLengthPrefixed(&b)) return Status::Corruption("sf sort blob");
    sort_blobs->push_back(std::move(b));
  }
  if (!r.GetLengthPrefixed(loader_blob)) {
    return Status::Corruption("sf loader blob");
  }
  return Status::OK();
}

// How far IB has read one index's side-file.
struct ApplyPos {
  SideFile::Cursor cursor;
  uint64_t ordinal = 0;  // entries read so far (applied or fenced out)
};

// Phase-3 blob: [n] then per index [cursor page][cursor slot][ordinal].
std::string EncodeSfApplyState(const std::vector<ApplyPos>& pos) {
  std::string out;
  PutFixed32(&out, static_cast<uint32_t>(pos.size()));
  for (const ApplyPos& p : pos) {
    PutFixed32(&out, p.cursor.page);
    PutFixed16(&out, p.cursor.slot);
    PutFixed64(&out, p.ordinal);
  }
  return out;
}

Status DecodeSfApplyState(const std::string& blob,
                          std::vector<ApplyPos>* pos) {
  BufferReader r(blob);
  uint32_t n;
  if (!r.GetFixed32(&n) || n != pos->size()) {
    return Status::Corruption("sf apply state");
  }
  for (ApplyPos& p : *pos) {
    uint16_t slot;
    if (!r.GetFixed32(&p.cursor.page) || !r.GetFixed16(&slot) ||
        !r.GetFixed64(&p.ordinal)) {
      return Status::Corruption("sf apply state");
    }
    p.cursor.slot = slot;
  }
  return Status::OK();
}

bool FencedOut(const std::vector<SideFileFence>& fences, uint64_t ordinal,
               const Rid& rid) {
  uint64_t packed = PackRid(rid);
  for (const SideFileFence& f : fences) {
    if (ordinal < f.before_ordinal && packed >= f.rid_floor &&
        packed < f.rid_ceiling) {
      return true;
    }
  }
  return false;
}

constexpr const char* kSfScanSpans[] = {
    "sf.scan.p0", "sf.scan.p1", "sf.scan.p2", "sf.scan.p3",
    "sf.scan.p4", "sf.scan.p5", "sf.scan.p6", "sf.scan.p7"};

// One run of an SF build, from whichever phase it starts at to the end.
// The phase functions share this state.  A phase returns an injected
// fault as-is, leaving the durable checkpoints for Resume; any other
// failure after the load starts aborts the build (Abort).
class SfRun {
 public:
  SfRun(Engine* engine, TableId table, std::vector<IndexId> ids)
      : engine_(engine),
        catalog_(engine->catalog()),
        options_(engine->options()),
        tracer_(engine->tracer()),
        table_(table),
        ids_(std::move(ids)),
        n_(ids_.size()),
        consumed_counter_(
            obs::MetricsRegistry::Default().GetCounter("sidefile.applied")) {}

  Status Run(int start_phase, const std::string& phase_blob,
             BuildStats* stats);

 private:
  Status Init();
  const IndexRef& ix(size_t i) const { return build_->indexes[i]; }
  // Phase 1: partitioned scan + pipelined sort, then merge preparation.
  Status Scan(const std::string& phase_blob);
  Status ExtractLateTail(PageId last_scanned, size_t tail_writer);
  // Phase 2: bottom-up load of indexes [loading_idx, n).
  Status Load(uint32_t loading_idx, const std::string& loader_blob);
  Status LoadIndex(uint32_t idx, const std::string& loader_blob);
  // Phase 3: the catch-up, then the gated residual and the flag flip.
  Status Apply();
  Status Finalize();
  Status DrainAndPublish();  // under the gate
  Status ApplySideFile(size_t idx,
                       const std::function<bool(uint64_t)>& stop);
  Status ApplyEntry(size_t idx, const SideFile::Entry& e);
  Status CommitApplied(size_t consumed);
  // Publishes the entries read so far (every index, across restarts) as
  // the build's side_file_applied progress.
  void PublishApplied();
  Status Abort(const Status& cause);
  // Persists the build's progress: its phase and that phase's blob.
  Status SaveProgress(int phase, std::string blob) {
    meta_.phase = phase;
    meta_.phase_blob = std::move(blob);
    return SaveBuildMeta(engine_, table_, meta_);
  }

  Engine* engine_;
  Catalog* catalog_;
  const Options& options_;
  obs::Tracer* tracer_;
  TableId table_;
  std::vector<IndexId> ids_;
  size_t n_;
  HeapFile* heap_ = nullptr;
  // The published build; its indexes are ids_, in order.
  std::shared_ptr<ActiveBuild> build_;
  std::vector<std::unique_ptr<ExternalSorter>> sorters_;
  BuildMeta meta_;
  std::vector<std::string> sort_blobs_;
  std::vector<ApplyPos> pos_;
  // Builder transaction: the unique-verification locks and the side-file
  // application; committed (and replaced) after every apply batch.
  Transaction* txn_ = nullptr;
  BuildStats stats_;
  // Side-file entries consumed, paired with records.side_file_appends so
  // the time-series sampler can plot the backlog without this build.
  obs::Counter* consumed_counter_;
};

Status SfRun::Init() {
  const TableView* view = catalog_->view(table_);
  if (view == nullptr || view->build == nullptr ||
      view->build->algo != BuildAlgo::kSf) {
    return Status::Corruption("SF build not published");
  }
  heap_ = view->heap;
  build_ = view->build;
  if (build_->indexes.size() != n_) {
    return Status::Corruption("SF build does not match its checkpoint");
  }
  for (size_t i = 0; i < n_; ++i) {
    if (ix(i).id != ids_[i] || ix(i).side_file == nullptr) {
      return Status::Corruption("SF build does not match its checkpoint");
    }
    sorters_.push_back(
        std::make_unique<ExternalSorter>(engine_->runs(), &options_));
  }
  auto loaded = LoadBuildMeta(engine_, table_);
  if (!loaded.ok()) return loaded.status();
  meta_ = std::move(*loaded);
  // Restart may have added fences (ReattachInterruptedBuilds).
  if (meta_.fences.size() != n_) meta_.fences.assign(n_, {});
  pos_.resize(n_);
  return Status::OK();
}

Status SfRun::Run(int start_phase, const std::string& phase_blob,
                  BuildStats* stats) {
  LogStats log_before = engine_->log()->stats();
  uint64_t key_raw_before = engine_->runs()->raw_key_bytes();
  uint64_t key_stored_before = engine_->runs()->stored_key_bytes();
  auto t_run = std::chrono::steady_clock::now();
  OIB_RETURN_IF_ERROR(Init());

  uint32_t loading_idx = 0;
  std::string loader_blob;
  if (start_phase <= 1) {
    OIB_RETURN_IF_ERROR(Scan(phase_blob));
  } else if (start_phase == 2) {
    OIB_RETURN_IF_ERROR(DecodeSfLoadState(phase_blob, &loading_idx,
                                          &sort_blobs_, &loader_blob));
    for (size_t i = loading_idx; i < n_; ++i) {
      auto caller = sorters_[i]->ResumeSortPhase(sort_blobs_[i]);
      if (!caller.ok()) return caller.status();
    }
  }

  txn_ = engine_->Begin();
  if (start_phase <= 2) {
    OIB_RETURN_IF_ERROR(Load(loading_idx, loader_blob));
    for (size_t i = 0; i < n_; ++i) pos_[i].cursor = ix(i).side_file->Begin();
    OIB_RETURN_IF_ERROR(SaveProgress(3, EncodeSfApplyState(pos_)));
  } else {
    OIB_RETURN_IF_ERROR(DecodeSfApplyState(phase_blob, &pos_));
    PublishApplied();
  }

  // A resumed build skipped Catalog::Load's hash population (the tree's
  // tail may have been torn at that point) and phase-2 consume only saw
  // keys loaded in this run, so the mirrors may be missing a prefix — or
  // whole trees loaded before the crash.  Updaters never touch an
  // SF-building tree directly (they route through the side-file), so the
  // trees are stable here and a full rescan rebuilds every mirror.
  if (start_phase >= 2) {
    for (size_t i = 0; i < n_; ++i) {
      if (ix(i).hash != nullptr) {
        Status s = PopulateHashFromTree(ix(i).tree, ix(i).hash);
        if (!s.ok()) return s.IsInjected() ? s : Abort(s);
      }
    }
  }

  auto t_apply = std::chrono::steady_clock::now();
  OIB_RETURN_IF_ERROR(Apply());
  OIB_RETURN_IF_ERROR(Finalize());
  OIB_RETURN_IF_ERROR(ClearBuildMeta(engine_, table_));
  stats_.apply_ms = MsSince(t_apply);

  LogStats log_after = engine_->log()->stats();
  stats_.log_records = log_after.records - log_before.records;
  stats_.log_bytes = log_after.bytes - log_before.bytes;
  stats_.key_bytes_moved = engine_->runs()->raw_key_bytes() - key_raw_before;
  stats_.key_bytes_stored =
      engine_->runs()->stored_key_bytes() - key_stored_before;
  stats_.elapsed_ms = MsSince(t_run);
  if (stats != nullptr) *stats = stats_;
  return Status::OK();
}

Status SfRun::Scan(const std::string& phase_blob) {
  // Current-RID advances under each page's S latch (section 3.2.2) to the
  // maximum extracted page across all workers.
  build_->SetPhase(obs::BuildPhase::kScan);
  obs::ScopedSpan scan_span(tracer_, "sf.scan");
  ScanPlan plan;
  if (!phase_blob.empty()) {
    OIB_RETURN_IF_ERROR(DecodeScanPlan(phase_blob, &plan));
    if (plan.parts.empty()) return Status::Corruption("sf scan plan");
  } else {
    auto planned =
        PlanPartitionedScan(heap_, kInvalidPageId, options_.build_threads);
    if (!planned.ok()) return planned.status();
    plan = std::move(*planned);
  }

  std::vector<BuildPipeline::ScanTarget> targets;
  targets.reserve(n_);
  for (size_t i = 0; i < n_; ++i) {
    targets.push_back(
        {ix(i).key_cols, ix(i).key_types, sorters_[i].get()});
  }
  ActiveBuild* build = build_.get();
  BuildPipeline::ScanHooks hooks;
  hooks.failpoint = "sf.scan";
  hooks.span_names = kSfScanSpans;
  hooks.span_name_count = 8;
  hooks.page_scanned = [build](PageId page) {
    // Still holding the page's S latch: every record in this page is
    // now "behind" the scan.  CAS-max keeps the global frontier
    // monotone when workers publish out of order.
    uint64_t candidate = PackRid(Rid(page, kInvalidSlotId));
    uint64_t cur = build->current_rid.load(std::memory_order_relaxed);
    while (cur < candidate &&
           !build->current_rid.compare_exchange_weak(cur, candidate)) {
    }
  };
  hooks.keys_progress = [build](uint64_t k) {
    build->keys_done.fetch_add(k, std::memory_order_relaxed);
  };
  hooks.checkpoint = [&](const std::string& blob) -> Status {
    obs::ScopedSpan ckpt_span(tracer_, "sf.ckpt");
    meta_.current_rid = build_->current_rid.load();
    return SaveProgress(1, blob);
  };
  BuildPipeline::ScanResult scan_res;
  OIB_RETURN_IF_ERROR(BuildPipeline::RunScan(
      heap_, tracer_, targets, &plan, hooks,
      options_.sort_checkpoint_every_keys, &scan_res));
  stats_.keys_extracted = scan_res.keys_extracted;
  stats_.data_pages_scanned = scan_res.pages_scanned;
  stats_.checkpoints += scan_res.checkpoints;
  stats_.scan_ms = scan_res.busy_ms;

  build_->SetCurrentRid(Rid::Infinity());
  OIB_RETURN_IF_ERROR(
      ExtractLateTail(scan_res.tail_last_scanned, plan.parts.size() - 1));
  scan_span.set_arg(stats_.keys_extracted);
  scan_span.End();

  build_->SetPhase(obs::BuildPhase::kSortMerge);
  obs::ScopedSpan sort_span(tracer_, "sf.sort.merge_prep");
  sort_blobs_.clear();
  for (size_t i = 0; i < n_; ++i) {
    OIB_RETURN_IF_ERROR(sorters_[i]->FinishWriters());
    OIB_RETURN_IF_ERROR(sorters_[i]->PrepareMerge());
    stats_.sort_runs += sorters_[i]->runs().size();
    auto b = sorters_[i]->CheckpointSortPhase("");
    if (!b.ok()) return b.status();
    sort_blobs_.push_back(std::move(*b));
  }
  meta_.current_rid = PackRid(Rid::Infinity());
  return SaveProgress(2, EncodeSfLoadState(0, sort_blobs_, ""));
}

Status SfRun::ExtractLateTail(PageId last_scanned, size_t tail_writer) {
  // Extension race: a transaction may have chained a new page after the
  // tail worker read next == invalid but before Current-RID became
  // infinity; its inserts decided "invisible" and made no side-file
  // entries.  Now that infinity is published, re-read the tail's next
  // under the latch: any page linked before that re-read must still be
  // extracted (pages linked after it see infinity and go through the
  // side-file — the extraction below is then merely redundant, which
  // the tolerant apply handles).  Tail keys land in the last
  // partition's still-open run writer.
  if (last_scanned == kInvalidPageId) return Status::OK();
  // Records on last_scanned were already extracted; only the link
  // matters (ExtractPage reads it under the latch).
  std::vector<std::pair<Rid, std::string>> recs;
  auto next = heap_->ExtractPage(last_scanned, &recs);
  if (!next.ok()) return next.status();
  std::string key_buf;
  for (PageId page = *next; page != kInvalidPageId; page = *next) {
    recs.clear();
    next = heap_->ExtractPage(page, &recs);
    if (!next.ok()) return next.status();
    for (const auto& [rid, rec] : recs) {
      for (size_t i = 0; i < n_; ++i) {
        OIB_RETURN_IF_ERROR(Schema::ExtractKeyTo(
            rec, ix(i).key_cols, ix(i).key_types, &key_buf));
        OIB_RETURN_IF_ERROR(
            sorters_[i]->writer(tail_writer)->Add(key_buf, rid));
      }
      ++stats_.keys_extracted;
      build_->keys_done.fetch_add(1, std::memory_order_relaxed);
    }
    ++stats_.data_pages_scanned;
  }
  return Status::OK();
}

Status SfRun::Load(uint32_t loading_idx, const std::string& loader_blob) {
  // Bottom-up, unlogged, checkpointed load (3.2.4), fed by the final
  // merge — on its own thread when the build is parallel.
  build_->SetPhase(obs::BuildPhase::kLoad);
  obs::ScopedSpan load_span(tracer_, "sf.load");
  for (uint32_t idx = loading_idx; idx < n_; ++idx) {
    OIB_RETURN_IF_ERROR(
        LoadIndex(idx, idx == loading_idx ? loader_blob : std::string()));
  }
  return Status::OK();
}

Status SfRun::LoadIndex(uint32_t idx, const std::string& loader_blob) {
  BulkLoader loader(ix(idx).tree, engine_->pool(), &options_);
  std::vector<uint64_t> counters;
  const std::vector<uint64_t>* resume_at = nullptr;
  if (!loader_blob.empty()) {
    auto caller = loader.Resume(loader_blob);
    if (!caller.ok()) return caller.status();
    BufferReader r(*caller);
    if (!GetCounters(&r, &counters)) {
      return Status::Corruption("sf loader counters");
    }
    resume_at = &counters;
  } else {
    // After a crash without a loader checkpoint the tree may contain
    // flushed-but-abandoned pages; start from an empty root.
    OIB_RETURN_IF_ERROR(loader.ResetToEmpty());
  }
  auto cursor = sorters_[idx]->OpenMerge(resume_at);
  if (!cursor.ok()) return cursor.status();

  const IndexRef& desc = ix(idx);
  std::string prev_key;
  Rid prev_rid;
  bool has_prev = loader.has_high_key();
  if (has_prev) {
    prev_key = loader.high_key();
    prev_rid = loader.high_rid();
  }
  uint64_t since_ckpt = 0;
  // Feed the hash mirror alongside the loader: bulk-loaded leaves bypass
  // the tree's mutation choke points, so the observer never fires for
  // them.  A resumed build re-scans the whole tree after this phase (see
  // Run), so missing the pre-crash prefix is fine.
  HashIndex* hash = desc.hash;
  // Checkpoints happen at merge-batch boundaries, where the batch's
  // counters snapshot identifies the merge position the consumer has
  // actually reached (the shared cursor runs ahead under overlap).
  auto consume = [&](const BuildPipeline::Batch& mb) -> Status {
    for (const SortItem& item : mb.items) {
      OIB_FAIL_POINT("sf.load");
      if (desc.unique && has_prev && item.key.view() == prev_key &&
          !(item.rid == prev_rid)) {
        OIB_RETURN_IF_ERROR(VerifyUniqueConflict(
            engine_, txn_->id(), table_, desc.key_cols, desc.key_types,
            item.key.view(), prev_rid, item.rid));
      }
      OIB_RETURN_IF_ERROR(loader.Add(item.key, item.rid));
      if (hash != nullptr) {
        OIB_FAIL_POINT("hash.populate");
        hash->BulkAdd(item.key.view(), item.rid, 0);
      }
      prev_key.assign(item.key.data(), item.key.size());
      prev_rid = item.rid;
      has_prev = true;
      ++stats_.keys_loaded;
      ++since_ckpt;
      build_->keys_done.fetch_add(1, std::memory_order_relaxed);
    }
    if (options_.ib_checkpoint_every_keys > 0 &&
        since_ckpt >= options_.ib_checkpoint_every_keys) {
      obs::ScopedSpan ckpt_span(tracer_, "sf.ckpt");
      std::string counters_blob;
      PutCounters(&counters_blob, mb.counters);
      auto ckpt = loader.Checkpoint(counters_blob);
      if (!ckpt.ok()) return ckpt.status();
      OIB_RETURN_IF_ERROR(
          SaveProgress(2, EncodeSfLoadState(idx, sort_blobs_, *ckpt)));
      ++stats_.checkpoints;
      since_ckpt = 0;
    }
    return Status::OK();
  };
  BuildPipeline::MergeStats merge_stats;
  Status s = BuildPipeline::MergeToConsumer(
      cursor->get(), BuildPipeline::kMergeBatchKeys,
      BuildPipeline::kMergeQueueDepth, options_.build_threads > 1, consume,
      &merge_stats);
  if (!s.ok()) {
    if (s.IsInjected()) return s;  // crash-test hook: leave state as-is
    // Rollback latches pages and takes txn-level mutexes; the loader's
    // open leaf/level latches must go first.
    loader.Abandon();
    return Abort(s);
  }
  stats_.merge_ms += merge_stats.merge_busy_ms;
  stats_.load_ms += merge_stats.consume_busy_ms;
  OIB_RETURN_IF_ERROR(loader.Finish());
  OIB_RETURN_IF_ERROR(engine_->pool()->FlushAll());
  return SaveProgress(2, EncodeSfLoadState(idx + 1, sort_blobs_, ""));
}

Status SfRun::Apply() {
  build_->SetPhase(obs::BuildPhase::kApply);
  obs::ScopedSpan apply_span(tracer_, "sf.apply");
  for (size_t idx = 0; idx < n_; ++idx) {
    // Section 3.2.5 quiesces updaters when IB gets *close* to the end of
    // the side-file, not at the literal end — and the catch-up must
    // terminate even when the appenders outpace IB (a read-until-empty
    // loop has no bound).  Chase a snapshot of the tail; on reaching it,
    // stop if the backlog is within one batch, else re-snapshot and go
    // again, at most three times.  Finalize applies what remains.
    SideFile* sf = ix(idx).side_file;
    uint64_t target = sf->entries_appended();
    int passes = 0;
    Status s = ApplySideFile(idx, [&](uint64_t ordinal) {
      if (ordinal < target) return false;
      uint64_t appended = sf->entries_appended();
      if (appended - ordinal <= options_.sf_apply_batch || ++passes >= 3) {
        return true;
      }
      target = appended;
      return false;
    });
    if (!s.ok()) return s.IsInjected() ? s : Abort(s);
  }
  return Status::OK();
}

Status SfRun::Finalize() {
  // Finalize edge: drain gate + index publication are next.  Injected
  // here the build aborts cleanly, gate never taken.
  OIB_FAIL_POINT("sf.finalize");
  build_->SetPhase(obs::BuildPhase::kDrain);
  obs::ScopedSpan drain_span(tracer_, "sf.drain");
  // The blackout runs from the moment new updaters start backing off.
  auto t_gate = std::chrono::steady_clock::now();
  // CloseGate backs new readers off first — a bare lock() could be
  // starved forever by updaters re-acquiring the reader-preferring
  // rwlock (see ActiveBuild).
  sync::UniqueLock gate = build_->CloseGate();
  Status s = DrainAndPublish();
  // Open the gate before any abort: Cancel takes a table S lock, which
  // waits for the IX of updaters blocked on the gate.
  gate.Release();
  stats_.quiesce_ms = MsSince(t_gate);
  if (s.ok() || s.IsInjected()) return s;
  return Abort(s);
}

Status SfRun::DrainAndPublish() {
  // No transaction is now between its visibility decision and its
  // append, so each side-file ends where it ends now.  Apply every
  // index's residual from its retained position, exactly once; after the
  // flag flips, every future update goes directly to the index.
  for (size_t idx = 0; idx < n_; ++idx) {
    OIB_RETURN_IF_ERROR(ApplySideFile(idx, nullptr));
  }
  // Commit edge: every batch is committed; ending the builder's
  // transaction is the last step before publication.  FinishBuild
  // persists the catalog directly, and a crash before it leaves kBuilding
  // indexes that Resume finishes from the retained positions.
  OIB_FAIL_POINT("sf.commit");
  OIB_RETURN_IF_ERROR(engine_->Commit(txn_));
  txn_ = nullptr;
  ++stats_.commits;
  build_->SetPhase(obs::BuildPhase::kDone);
  return catalog_->FinishBuild(table_);
}

// The one side-file apply loop (3.2.5).  Reads index idx's side-file from
// its retained position a batch at a time, skips restart-fenced entries,
// applies the rest, then commits and checkpoints.  Returns at the tail, or
// when `stop` (given the new ordinal) says the rest can wait.
Status SfRun::ApplySideFile(size_t idx,
                            const std::function<bool(uint64_t)>& stop) {
  ApplyPos& pos = pos_[idx];
  std::vector<SideFile::Entry> entries;
  for (;;) {
    OIB_FAIL_POINT("sf.apply");
    obs::ScopedSpan batch_span(tracer_, "sf.apply.batch");
    auto got = ix(idx).side_file->ReadBatch(
        &pos.cursor, options_.sf_apply_batch, &entries);
    if (!got.ok()) return got.status();
    if (*got == 0) return Status::OK();  // caught up with the appenders
    batch_span.set_arg(*got);
    for (const SideFile::Entry& e : entries) {
      if (FencedOut(meta_.fences[idx], pos.ordinal++, e.rid)) {
        ++stats_.side_file_skipped_stale;
        continue;
      }
      OIB_RETURN_IF_ERROR(ApplyEntry(idx, e));
      ++stats_.side_file_applied;
    }
    OIB_RETURN_IF_ERROR(CommitApplied(*got));
    if (stop && stop(pos.ordinal)) return Status::OK();
  }
}

Status SfRun::ApplyEntry(size_t idx, const SideFile::Entry& e) {
  BTree* tree = ix(idx).tree;
  if (e.op == SideFileOp::kInsertKey) {
    if (ix(idx).unique) {
      // Verify value uniqueness against whatever entry exists.
      auto vm = tree->FindKeyValue(e.key);
      if (!vm.ok()) return vm.status();
      if (vm->found && !(vm->rid == e.rid) && !vm->pseudo_deleted) {
        OIB_RETURN_IF_ERROR(VerifyUniqueConflict(
            engine_, txn_->id(), table_, ix(idx).key_cols,
            ix(idx).key_types, e.key, vm->rid, e.rid));
      }
    }
    // kAlreadyPresent / kReactivated are expected: IB may have loaded
    // the key, or a stale duplicate was filtered by commit/crash races.
    return tree->Insert(txn_, e.key, e.rid).status();
  }
  // Delete: remove if present; absent is fine (the corresponding insert
  // entry was lost to a pre-commit crash, or this is a crash-repeated
  // compensation) — see DESIGN.md.
  Status s = tree->PhysicalDelete(txn_, e.key, e.rid);
  return s.IsNotFound() ? Status::OK() : s;
}

// Periodic commit + progress checkpoint (3.2.5).  The checkpoint holds
// every index's position, so a resumed build restarts each side-file
// exactly where its committed applies end.
Status SfRun::CommitApplied(size_t consumed) {
  obs::ScopedSpan ckpt_span(tracer_, "sf.ckpt");
  OIB_RETURN_IF_ERROR(engine_->Commit(txn_));
  ++stats_.commits;
  txn_ = engine_->Begin();
  OIB_RETURN_IF_ERROR(SaveProgress(3, EncodeSfApplyState(pos_)));
  ++stats_.checkpoints;
  PublishApplied();
  consumed_counter_->Inc(consumed);
  return Status::OK();
}

void SfRun::PublishApplied() {
  uint64_t read = 0;
  for (const ApplyPos& p : pos_) read += p.ordinal;
  build_->side_file_applied.store(read, std::memory_order_relaxed);
}

Status SfRun::Abort(const Status& cause) {
  if (txn_ != nullptr) (void)engine_->Rollback(txn_);
  OIB_RETURN_IF_ERROR(CancelBuild(engine_, table_));
  return cause;
}

}  // namespace

Status SfIndexBuilder::Build(const BuildParams& params, IndexId* out,
                             BuildStats* stats) {
  std::vector<IndexId> ids;
  OIB_RETURN_IF_ERROR(BuildMany({params}, &ids, stats));
  if (out != nullptr) *out = ids[0];
  return Status::OK();
}

Status SfIndexBuilder::BuildMany(const std::vector<BuildParams>& params,
                                 std::vector<IndexId>* out,
                                 BuildStats* stats) {
  if (params.empty()) return Status::InvalidArgument("no indexes requested");
  TableId table = params[0].table;
  for (const BuildParams& p : params) {
    if (p.table != table) {
      return Status::InvalidArgument("one scan covers one table");
    }
  }
  Catalog* catalog = engine_->catalog();

  // Descriptor creation without quiescing (section 3.2.1); publishing
  // the build raises the Index_Build flag.
  std::vector<IndexId> ids;
  Status s;
  for (const BuildParams& p : params) {
    auto desc = catalog->CreateIndex(p.name, table, p.unique, p.key_cols,
                                     BuildAlgo::kSf, p.key_types);
    s = desc.status();
    if (!s.ok()) break;
    ids.push_back(desc->id);
  }
  if (s.ok()) s = catalog->BeginBuild(table, BuildAlgo::kSf, ids).status();
  if (!s.ok()) {
    for (IndexId id : ids) (void)catalog->DropIndex(id);
    return s;
  }

  BuildMeta meta;
  meta.algo = BuildAlgo::kSf;
  meta.indexes = ids;
  meta.phase = 1;
  meta.current_rid = PackRid(Rid::MinusInfinity());
  meta.fences.assign(ids.size(), {});
  OIB_RETURN_IF_ERROR(SaveBuildMeta(engine_, table, meta));

  if (out != nullptr) *out = ids;
  return SfRun(engine_, table, ids).Run(/*start_phase=*/1, "", stats);
}

Status SfIndexBuilder::Resume(TableId table, BuildStats* stats) {
  auto meta = LoadBuildMeta(engine_, table);
  if (!meta.ok()) return meta.status();
  if (meta->algo != BuildAlgo::kSf) {
    return Status::InvalidArgument("not an interrupted SF build");
  }
  return SfRun(engine_, table, meta->indexes)
      .Run(meta->phase, meta->phase_blob, stats);
}

}  // namespace oib
