// Engine: wires the whole system together — buffer pool, WAL, locks,
// transactions, recovery, catalog, and the record manager — over a
// durable Env that survives simulated crashes.
//
// Crash testing model:
//   Env env; auto engine = Engine::Open(opts, &env);
//   ... work ...
//   engine->SimulateCrash();            // volatile state gone
//   engine.reset();
//   auto engine2 = Engine::Restart(opts, &env);   // recovery runs
//
// Restart order matters: physical redo first (pages become current), then
// the catalog re-opens tables/trees/side-files from metadata, interrupted
// index builds are re-published (so rollback sees the build and its scan
// position), and only then are loser transactions rolled back — B+-tree
// undo is logical and needs live tree objects.

#ifndef OIB_CORE_ENGINE_H_
#define OIB_CORE_ENGINE_H_

#include <memory>

#include "common/options.h"
#include "common/status.h"
#include "core/catalog.h"
#include "core/record_manager.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "sort/run.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "txn/lock_manager.h"
#include "txn/transaction_manager.h"
#include "wal/log_manager.h"
#include "wal/recovery.h"

namespace oib {

// The durable world: disk image, log, and sort runs.  Outlives Engine
// incarnations.
struct Env {
  std::unique_ptr<DiskManager> disk;
  LogManager log;
  RunStore runs;

  static std::unique_ptr<Env> InMemory(const Options& options) {
    auto env = std::make_unique<Env>();
    env->disk = std::make_unique<InMemoryDisk>(options.page_size);
    return env;
  }

  // File-backed world rooted at `dir` (created if missing): pages in
  // `dir`/pages(+.meta,.dw), the WAL in `dir`/wal, spilled sort runs in
  // `dir`/runs/.  Re-opening an existing directory repairs torn tails and
  // yields exactly the durable prefix of each component, so a process
  // kill at any instant leaves a recoverable Env.
  static StatusOr<std::unique_ptr<Env>> OnFiles(const std::string& dir,
                                                const Options& options);
};

class Engine {
 public:
  // Opens a fresh database (Env must be empty).
  static StatusOr<std::unique_ptr<Engine>> Open(const Options& options,
                                                Env* env);
  // Re-opens after a crash (or clean shutdown): runs restart recovery.
  static StatusOr<std::unique_ptr<Engine>> Restart(
      const Options& options, Env* env, RecoveryStats* stats = nullptr);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const Options& options() const { return options_; }
  Env* env() { return env_; }
  BufferPool* pool() { return &pool_; }
  LogManager* log() { return &env_->log; }
  LockManager* locks() { return &locks_; }
  TransactionManager* txns() { return &txns_; }
  Catalog* catalog() { return &catalog_; }
  RecordManager* records() { return &records_; }
  RunStore* runs() { return &env_->runs; }
  DiskManager* disk() { return env_->disk.get(); }

  // Observability: the process-wide registry/tracer all components attach
  // to (WireUp registers bufferpool.*, lock.*, wal.* and records.*).
  obs::MetricsRegistry* metrics() { return &obs::MetricsRegistry::Default(); }
  obs::Tracer* tracer() { return &obs::Tracer::Default(); }

  // Live snapshot of an in-flight index build on `table` (phase,
  // Current-RID vs heap tail, side-file backlog, keys/sec).  Returns a
  // default (inactive) snapshot when no build is published.
  obs::BuildProgress GetBuildProgress(TableId table);

  Transaction* Begin() { return txns_.Begin(); }
  Status Commit(Transaction* txn) { return txns_.Commit(txn); }
  Status Rollback(Transaction* txn) { return txns_.Rollback(txn); }

  // Checkpoint: flush all pages, log the active-transaction table and the
  // redo start, persist every heap's chain snapshot, and record the
  // checkpoint LSN in metadata (bounds restart redo and the heap walk).
  // Safe to call while transactions and builds run.
  Status Checkpoint();

  // Clean shutdown convenience: flush everything so Restart has no work.
  Status FlushAll();

  // Crash simulation: discards the buffer pool and unflushed log/run
  // tails.  The engine object must be discarded afterwards.
  Status SimulateCrash();

 private:
  Engine(const Options& options, Env* env);

  void WireUp();

  Options options_;
  Env* env_;
  BufferPool pool_;
  LockManager locks_;
  RmRegistry rms_;
  TransactionManager txns_;
  HeapRm heap_rm_;
  BtreeRm btree_rm_;
  SideFileRm sidefile_rm_;
  Catalog catalog_;
  RecordManager records_;
};

}  // namespace oib

#endif  // OIB_CORE_ENGINE_H_
