// OfflineIndexBuilder: the "current DBMSs" baseline the paper argues
// against (section 1) — updates to the table are disallowed for the whole
// duration of the build via an X table lock.  With exclusive access the
// build is a clean scan -> sort -> bottom-up load with no logging, no
// duplicate handling, and no side-file.  The scan/sort/load machinery is
// the shared BuildPipeline: the heap is scanned in build_threads page
// partitions and the final merge overlaps the bottom-up load.  Benches
// use offline as the availability baseline and as the clustering /
// throughput gold standard.

#include "btree/bulk_loader.h"
#include "core/build_pipeline.h"
#include "core/index_builder.h"
#include "core/schema.h"
#include "obs/trace.h"
#include "sort/external_sorter.h"

namespace oib {

Status OfflineIndexBuilder::Build(const BuildParams& params, IndexId* out,
                                  BuildStats* stats) {
  Catalog* catalog = engine_->catalog();
  HeapFile* heap = catalog->table(params.table);
  if (heap == nullptr) return Status::NotFound("no such table");
  const Options& options = engine_->options();
  BuildMeter meter(engine_);
  BuildStats local;

  // The whole offline build runs under the X lock, so the quiesce span
  // covers everything up to the commit that releases it.
  obs::ScopedSpan quiesce_span(engine_->tracer(), "offline.quiesce");
  Transaction* txn = engine_->Begin();
  LockOptions opt;
  opt.timeout_ms = 60'000;
  OIB_RETURN_IF_ERROR(engine_->locks()->Lock(
      txn->id(), TableLockId(params.table), LockMode::kX, opt));

  auto desc = catalog->CreateIndex(params.name, params.table, params.unique,
                                   params.key_cols, BuildAlgo::kOffline,
                                   params.key_types);
  if (!desc.ok()) {
    (void)engine_->Rollback(txn);
    return desc.status();
  }
  IndexId id = desc->id;
  auto abort_build = [&](const Status& cause) -> Status {
    (void)catalog->DropIndex(id);
    (void)engine_->Rollback(txn);
    return cause;
  };
  // Published like an online build, though no update can see it under
  // the X lock; FinishBuild makes it ready.
  auto build = catalog->BeginBuild(params.table, BuildAlgo::kOffline, {id});
  if (!build.ok()) return abort_build(build.status());
  BTree* tree = (*build)->indexes[0].tree;

  // Partitioned scan + per-partition run generation.  The X lock freezes
  // the chain, so the plan covers every record.
  obs::ScopedSpan scan_span(engine_->tracer(), "offline.scan");
  ExternalSorter sorter(engine_->runs(), &options);
  std::vector<BuildPipeline::ScanTarget> targets = {
      {params.key_cols, params.key_types, &sorter}};
  BuildPipeline::ScanHooks hooks;
  hooks.span_name = "offline.scan.part";
  BuildPipeline::ScanResult scan_res;
  {
    auto plan =
        PlanPartitionedScan(heap, kInvalidPageId, options.build_threads);
    Status s = plan.status();
    if (s.ok()) {
      s = BuildPipeline::RunScan(heap, engine_->tracer(), targets, &*plan,
                                 hooks, /*checkpoint_every_keys=*/0,
                                 &scan_res);
    }
    if (s.ok()) {
      s = BuildPipeline::FinishSort(targets, scan_res, &local, nullptr);
    }
    if (!s.ok()) return abort_build(s);
  }
  scan_span.set_arg(local.keys_extracted);
  scan_span.End();
  obs::ScopedSpan load_span(engine_->tracer(), "offline.load");

  // Merge -> bottom-up load, overlapped when the build is parallel.  The
  // loader feeds the hash mirror, if any, per key.  Exclusive access
  // means every record is committed, so the stream's unique check is
  // decided by the records themselves, locked under the X lock's
  // transaction.
  auto cursor = sorter.OpenMerge();
  if (!cursor.ok()) return abort_build(cursor.status());
  BulkLoader loader(tree, engine_->pool(), &options);
  {
    Status s = loader.Begin();
    if (!s.ok()) {
      loader.Abandon();
      return abort_build(s);
    }
  }
  SortedUniqueCheck unique_check(engine_, params.table, params.unique,
                                 params.key_cols, params.key_types);
  auto consume = [&](const BuildPipeline::Batch& batch) -> Status {
    for (const SortItem& item : batch.items) {
      OIB_RETURN_IF_ERROR(unique_check.Check(txn->id(), item));
      OIB_RETURN_IF_ERROR(loader.Add(item.key, item.rid));
      ++local.keys_loaded;
    }
    return Status::OK();
  };
  BuildPipeline::MergeStats merge_stats;
  {
    Status s = BuildPipeline::MergeToConsumer(
        cursor->get(), options.build_threads > 1, consume, &merge_stats);
    if (!s.ok()) {
      // Rollback latches pages and takes txn-level mutexes; the loader's
      // open leaf/level latches must go first.
      loader.Abandon();
      return abort_build(s);
    }
  }
  {
    Status s = loader.Finish();
    if (s.ok()) s = engine_->pool()->FlushAll();  // unlogged pages
    if (!s.ok()) {
      loader.Abandon();
      return abort_build(s);
    }
  }

  local.merge_ms = merge_stats.merge_busy_ms;
  local.load_ms = merge_stats.consume_busy_ms;
  load_span.set_arg(local.keys_loaded);
  load_span.End();
  OIB_RETURN_IF_ERROR(catalog->FinishBuild(params.table));
  OIB_RETURN_IF_ERROR(engine_->Commit(txn));  // releases the X lock

  meter.Finish(&local);
  local.quiesce_ms = local.elapsed_ms;
  if (out != nullptr) *out = id;
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

}  // namespace oib
