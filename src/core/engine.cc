#include "core/engine.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "common/coding.h"
#include "common/failpoint.h"
#include "core/index_builder.h"

namespace oib {

namespace {

constexpr char kMasterLsnKey[] = "master_lsn";

// Options-then-environment: OIB_FAILPOINTS can extend or override what
// the embedding application configured, which is what a crash harness
// driving a stock binary needs.
void ConfigureFailpoints(const Options& options) {
  FailPointRegistry& reg = FailPointRegistry::Instance();
  if (!options.failpoints.empty()) {
    Status s = reg.ConfigureFromSpec(options.failpoints);
    if (!s.ok()) {
      std::fprintf(stderr, "oib: bad Options::failpoints spec: %s\n",
                   s.ToString().c_str());
    }
  }
  Status s = reg.ConfigureFromEnv();
  if (!s.ok()) {
    std::fprintf(stderr, "oib: bad OIB_FAILPOINTS spec: %s\n",
                 s.ToString().c_str());
  }
}

}  // namespace

StatusOr<std::unique_ptr<Env>> Env::OnFiles(const std::string& dir,
                                            const Options& options) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("create env dir " + dir + ": " + ec.message());
  }
  auto env = std::make_unique<Env>();
  auto disk = FileDisk::Open(dir + "/pages", options.page_size);
  if (!disk.ok()) return disk.status();
  env->disk = std::move(*disk);
  OIB_RETURN_IF_ERROR(env->log.AttachFile(dir + "/wal"));
  OIB_RETURN_IF_ERROR(env->runs.AttachDir(dir + "/runs"));
  return env;
}

Engine::Engine(const Options& options, Env* env)
    : options_(options),
      env_(env),
      pool_(env->disk.get(), options.buffer_pool_pages),
      locks_(options.lock_timeout_ms),
      txns_(&env->log, &locks_, &rms_),
      heap_rm_(&pool_, &txns_),
      btree_rm_(&pool_, &txns_),
      sidefile_rm_(&pool_),
      catalog_(&pool_, &txns_, env->disk.get(), &options_),
      records_(&catalog_, &locks_, &txns_, &options_) {}

void Engine::WireUp() {
  rms_.Register(&heap_rm_);
  rms_.Register(&btree_rm_);
  rms_.Register(&sidefile_rm_);
  pool_.SetWalFlushHook([this](Lsn lsn) { return env_->log.Flush(lsn); });
  btree_rm_.SetResolver(
      [this](IndexId id) { return catalog_.index(id); });
  records_.AttachHeapRm(&heap_rm_);

  obs::MetricsRegistry* registry = &obs::MetricsRegistry::Default();
  pool_.AttachMetrics(registry);
  locks_.AttachMetrics(registry);
  env_->log.AttachMetrics(registry);
  env_->runs.AttachMetrics(registry);
  records_.AttachMetrics(registry);
  FailPointRegistry::Instance().AttachMetrics(registry);

  // Sticky-on: the profiler is process-wide, so an engine opened with the
  // flag clear must not silently disable another engine's profiling.
  if (options_.obs_lock_profile) sync::prof::SetEnabled(true);
}

StatusOr<std::unique_ptr<Engine>> Engine::Open(const Options& options,
                                               Env* env) {
  OIB_RETURN_IF_ERROR(ValidateOptions(options));
  ConfigureFailpoints(options);
  auto engine = std::unique_ptr<Engine>(new Engine(options, env));
  engine->WireUp();
  return engine;
}

StatusOr<std::unique_ptr<Engine>> Engine::Restart(const Options& options,
                                                  Env* env,
                                                  RecoveryStats* stats) {
  const uint64_t t_open = obs::MonotonicNanos();
  OIB_RETURN_IF_ERROR(ValidateOptions(options));
  ConfigureFailpoints(options);
  auto engine = std::unique_ptr<Engine>(new Engine(options, env));
  engine->WireUp();

  Lsn checkpoint_lsn = kInvalidLsn;
  {
    std::string blob;
    Status s = env->disk->GetMeta(kMasterLsnKey, &blob);
    if (s.ok() && blob.size() == 8) {
      checkpoint_lsn = DecodeFixed64(blob.data());
    } else if (!s.IsNotFound() && !s.ok()) {
      return s;
    }
  }

  RecoveryStats local;
  if (stats == nullptr) stats = &local;
  const uint64_t open_ns = obs::MonotonicNanos() - t_open;
  RecoveryManager recovery(&env->log, &engine->txns_, &engine->rms_);
  std::vector<std::pair<TxnId, Lsn>> losers;
  {
    obs::ScopedSpan span(&obs::Tracer::Default(), "recovery.analysis_redo");
    OIB_RETURN_IF_ERROR(
        recovery.AnalyzeAndRedo(checkpoint_lsn, &losers, stats));
    stats->open_ns = open_ns;
    // Pages are now current: catalog objects can be re-opened.
    uint64_t t0 = obs::MonotonicNanos();
    OIB_RETURN_IF_ERROR(engine->catalog_.Load());
    stats->catalog_load_ns = obs::MonotonicNanos() - t0;
    // Interrupted index builds are re-published before undo, so that
    // rollback of loser transactions sees the build and its scan position.
    t0 = obs::MonotonicNanos();
    OIB_RETURN_IF_ERROR(ReattachInterruptedBuilds(engine.get()));
    stats->reattach_ns = obs::MonotonicNanos() - t0;
  }
  {
    obs::ScopedSpan span(&obs::Tracer::Default(), "recovery.undo",
                         losers.size());
    OIB_RETURN_IF_ERROR(recovery.UndoLosers(losers, stats));
  }
  return engine;
}

obs::BuildProgress Engine::GetBuildProgress(TableId table) {
  obs::BuildProgress p;
  const TableView* view = catalog_.view(table);
  if (view == nullptr || view->build == nullptr) return p;
  const ActiveBuild* build = view->build.get();
  p.active = true;
  p.algo = build->algo == BuildAlgo::kSf    ? "sf"
           : build->algo == BuildAlgo::kNsf ? "nsf"
                                            : "offline";
  p.phase =
      static_cast<obs::BuildPhase>(build->phase.load(std::memory_order_relaxed));
  Rid cur = build->CurrentRid();
  p.current_rid = PackRid(cur);
  p.table_tail_page = view->heap->tail_page();
  if (cur == Rid::Infinity() || p.phase > obs::BuildPhase::kScan) {
    // Scan finished (or this is an NSF build past its scan).
    p.scan_page = p.table_tail_page;
    p.scan_fraction = 1.0;
  } else {
    p.scan_page = cur.page;
    p.scan_fraction =
        p.table_tail_page > 0
            ? std::min(1.0, static_cast<double>(p.scan_page) /
                                static_cast<double>(p.table_tail_page))
            : 0.0;
  }
  p.keys_done = build->keys_done.load(std::memory_order_relaxed);
  // Through the catalog: a cancelled build's side-files are dropped.
  for (const IndexRef& ix : build->indexes) {
    if (SideFile* sf = catalog_.side_file(ix.id)) {
      p.side_file_appended += sf->entries_appended();
    }
  }
  p.side_file_applied =
      build->side_file_applied.load(std::memory_order_relaxed);
  p.side_file_backlog = p.side_file_appended > p.side_file_applied
                            ? p.side_file_appended - p.side_file_applied
                            : 0;
  uint64_t elapsed_ns = obs::MonotonicNanos() - build->start_ns;
  p.elapsed_ms = static_cast<double>(elapsed_ns) / 1e6;
  p.keys_per_sec = elapsed_ns > 0
                       ? static_cast<double>(p.keys_done) * 1e9 /
                             static_cast<double>(elapsed_ns)
                       : 0.0;
  return p;
}

Status Engine::Checkpoint() {
  obs::ScopedSpan span(&obs::Tracer::Default(), "engine.checkpoint");
  // Updates may run concurrently: whatever is logged from here on may
  // reach pages after FlushAll wrote them, so redo must start here.
  const Lsn redo_start = env_->log.next_lsn();
  OIB_RETURN_IF_ERROR(pool_.FlushAll());
  // Between the pool flush and the active-table read: transactions may
  // commit and leave the table here.
  OIB_FAIL_POINT("engine.checkpoint.flushed");
  // Order: chain snapshot, checkpoint record, log flush, snapshot meta,
  // master LSN.  The snapshot precedes the record, so the flush below
  // makes every format/link record of the pages it names durable; a crash
  // between the two meta writes pairs the new snapshot with the previous
  // master LSN, which is safe because an older redo start replays more
  // and chains never shrink.
  std::string chains = catalog_.SnapshotHeapChains();
  LogRecord rec;
  rec.type = LogRecordType::kCheckpoint;
  rec.redo = EncodeCheckpointPayload(txns_.ActiveTransactions(), redo_start);
  OIB_RETURN_IF_ERROR(env_->log.Append(&rec));
  OIB_RETURN_IF_ERROR(env_->log.Flush(rec.lsn));
  OIB_RETURN_IF_ERROR(catalog_.PersistHeapChains(chains));
  std::string blob;
  PutFixed64(&blob, rec.lsn);
  return env_->disk->PutMeta(kMasterLsnKey, blob);
}

Status Engine::FlushAll() {
  OIB_RETURN_IF_ERROR(env_->log.FlushAll());
  return pool_.FlushAll();
}

Status Engine::SimulateCrash() {
  pool_.DiscardAll();
  env_->log.DropUnflushed();
  env_->runs.DropUnflushed();
  return Status::OK();
}

}  // namespace oib
