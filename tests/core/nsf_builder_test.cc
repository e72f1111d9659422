// NSF (No Side-File) algorithm tests — paper section 2.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "btree/tree_verifier.h"
#include "core/index_builder.h"
#include "core/pseudo_delete_gc.h"
#include "tests/test_util.h"

namespace oib {
namespace {

class NsfBuilderTest : public EngineTest {
 protected:
  BuildParams Params(TableId table, bool unique = false) {
    BuildParams p;
    p.name = "nsf_idx";
    p.table = table;
    p.unique = unique;
    p.key_cols = {0};
    return p;
  }

  // Normalized single-string-column key, as the index stores it.
  static std::string Key(const std::string& v) {
    std::string k;
    keyenc::AppendStringColumn(&k, v);
    return k;
  }

  // Creates the descriptor and publishes its NSF build by hand, as
  // NsfIndexBuilder::Build does under its quiesce, so a test can place
  // record operations before IB's scan; Resume then runs IB on it.
  IndexRef StageBuild(TableId table) {
    auto desc = engine_->catalog()->CreateIndex("nsf_idx", table, false,
                                                {0}, BuildAlgo::kNsf);
    EXPECT_TRUE(desc.ok()) << desc.status().ToString();
    auto build = engine_->catalog()->BeginBuild(table, BuildAlgo::kNsf,
                                                {desc->id});
    EXPECT_TRUE(build.ok()) << build.status().ToString();
    return (*build)->indexes[0];
  }

  static std::string DirtyRecord() {
    return Schema::EncodeRecord({"zzzzDIRTYKEY", "p"});
  }
};

TEST_F(NsfBuilderTest, QuietBuildMatchesTable) {
  TableId table = MakeTable();
  Populate(table, 3000);
  NsfIndexBuilder builder(engine_.get());
  IndexId index;
  BuildStats stats;
  ASSERT_OK(builder.Build(Params(table), &index, &stats));
  EXPECT_EQ(stats.keys_extracted, 3000u);
  EXPECT_EQ(stats.ib.inserted, 3000u);
  EXPECT_GT(stats.log_records, 0u);  // NSF logs its inserts
  ExpectIndexConsistent(table, index);
  // Index is ready for reads.
  ASSERT_OK_AND_ASSIGN(auto desc, engine_->catalog()->descriptor(index));
  EXPECT_EQ(desc.state, IndexState::kReady);
}

TEST_F(NsfBuilderTest, MultiKeyLoggingBatchesLogRecords) {
  TableId table = MakeTable();
  Populate(table, 3000);
  NsfIndexBuilder builder(engine_.get());
  IndexId index;
  BuildStats stats;
  ASSERT_OK(builder.Build(Params(table), &index, &stats));
  // "One log record for multiple keys" (2.3.1): far fewer btree log
  // records than keys.
  EXPECT_LT(stats.ib.log_records, 3000u / 8);
  EXPECT_GT(stats.ib.log_records, 0u);
}

TEST_F(NsfBuilderTest, ConcurrentWorkloadBuildStaysCorrect) {
  TableId table = MakeTable();
  auto rids = Populate(table, 2000);

  WorkloadOptions wo;
  wo.threads = 2;
  wo.rollback_pct = 0.15;
  Workload workload(engine_.get(), table, wo);
  workload.Seed(rids, 2000);
  workload.Start();
  WaitForOps(&workload, 20);

  NsfIndexBuilder builder(engine_.get());
  IndexId index;
  BuildStats stats;
  Status s = builder.Build(Params(table), &index, &stats);
  WorkloadStats wstats = workload.Stop();
  ASSERT_OK(s);
  EXPECT_GT(wstats.ops(), 0u);  // updates really ran during the build
  ExpectIndexConsistent(table, index);
}

TEST_F(NsfBuilderTest, ConcurrentWorkloadManyThreads) {
  TableId table = MakeTable();
  auto rids = Populate(table, 1500);
  WorkloadOptions wo;
  wo.threads = 4;
  wo.update_changes_key = 0.8;
  wo.rollback_pct = 0.25;
  Workload workload(engine_.get(), table, wo);
  workload.Seed(rids, 1500);
  workload.Start();
  WaitForOps(&workload, 20);
  NsfIndexBuilder builder(engine_.get());
  IndexId index;
  Status s = builder.Build(Params(table), &index, nullptr);
  WorkloadStats wstats = workload.Stop();
  ASSERT_OK(s);
  EXPECT_GT(wstats.commits, 0u);
  ExpectIndexConsistent(table, index);
}

TEST_F(NsfBuilderTest, PaperSection223Example) {
  // The nine-step race example from section 2.2.3, reproduced verbatim
  // for a non-unique index.
  TableId table = MakeTable();
  auto rids = Populate(table, 100);

  // Drive the paper's exact interleaving by hand: create the descriptor
  // under the short quiesce and publish the build, then play IB's moves
  // through the tree interface.
  Transaction* quiesce = engine_->Begin();
  ASSERT_OK(engine_->locks()->Lock(quiesce->id(), TableLockId(table),
                                   LockMode::kS));
  auto desc = engine_->catalog()->CreateIndex("nsf_idx", table, false, {0},
                                              BuildAlgo::kNsf);
  ASSERT_TRUE(desc.ok());
  ASSERT_OK_AND_ASSIGN(
      auto build,
      engine_->catalog()->BeginBuild(table, BuildAlgo::kNsf, {desc->id}));
  const IndexRef& ib = build->indexes[0];
  ASSERT_OK(engine_->Commit(quiesce));
  BTree* tree = ib.tree;

  // 1-2. T1 inserts a record with key value K; T1 inserts <K,R> into the
  // index (direct maintenance, index visible).
  Transaction* t1 = engine_->Begin();
  ASSERT_OK_AND_ASSIGN(
      Rid r, engine_->records()->InsertRecord(
                 t1, table, Schema::EncodeRecord({"KKKKKKKK", "t1"})));
  ASSERT_OK_AND_ASSIGN(auto look, tree->Lookup(Key("KKKKKKKK"), r));
  EXPECT_TRUE(look.found);

  // 3-4. IB reads the new record and tries to insert its key; finding the
  // duplicate, it does not insert (and writes no log record).
  Transaction* ib_txn = engine_->Begin();
  std::string key_storage = Key("KKKKKKKK");
  std::vector<IndexKeyRef> refs{{key_storage, r}};
  BTree::IbStats ib_stats;
  ASSERT_OK(tree->IbInsertBatch(ib_txn, refs, false, nullptr, &ib_stats));
  EXPECT_EQ(ib_stats.skipped_duplicates, 1u);
  EXPECT_EQ(ib_stats.inserted, 0u);
  ASSERT_OK(engine_->Commit(ib_txn));

  // 5-6. T1 rolls back: the key is marked pseudo-deleted and the record
  // vanishes from the data page.
  ASSERT_OK(engine_->Rollback(t1));
  ASSERT_OK_AND_ASSIGN(look, tree->Lookup(Key("KKKKKKKK"), r));
  EXPECT_TRUE(look.found);
  EXPECT_TRUE(look.pseudo_deleted);
  EXPECT_FALSE(engine_->catalog()->table(table)->Exists(r));

  // 7-9. T2 inserts a record at the same RID R with the same key value K;
  // its key insert resets the pseudo-deleted flag; T2 commits, leaving
  // <K,R> live and a valid record at R.
  Transaction* t2 = engine_->Begin();
  ASSERT_OK(engine_->records()->InsertRecordAt(
      t2, table, r, Schema::EncodeRecord({"KKKKKKKK", "t2"})));
  ASSERT_OK(engine_->Commit(t2));
  ASSERT_OK_AND_ASSIGN(look, tree->Lookup(Key("KKKKKKKK"), r));
  EXPECT_TRUE(look.found);
  EXPECT_FALSE(look.pseudo_deleted);
  EXPECT_TRUE(engine_->catalog()->table(table)->Exists(r));

  (void)rids;
}

TEST_F(NsfBuilderTest, DeleteDuringBuildLeavesTombstoneThatRejectsIb) {
  // Delete-key problem (1.2): the deleter leaves a pseudo-deleted key so
  // a late IB insert is rejected.
  TableId table = MakeTable();
  auto rids = Populate(table, 50);

  Transaction* quiesce = engine_->Begin();
  ASSERT_OK(engine_->locks()->Lock(quiesce->id(), TableLockId(table),
                                   LockMode::kS));
  auto desc = engine_->catalog()->CreateIndex("nsf_idx", table, false, {0},
                                              BuildAlgo::kNsf);
  ASSERT_TRUE(desc.ok());
  ASSERT_OK_AND_ASSIGN(
      auto build,
      engine_->catalog()->BeginBuild(table, BuildAlgo::kNsf, {desc->id}));
  const IndexRef& ib = build->indexes[0];
  ASSERT_OK(engine_->Commit(quiesce));

  // IB extracted rids[3]'s key earlier (pretend); then a transaction
  // deletes the record and commits, leaving a tombstone.
  std::string key = Key(Workload::MakeKey(3, 12));
  Transaction* deleter = engine_->Begin();
  ASSERT_OK(engine_->records()->DeleteRecord(deleter, table, rids[3]));
  ASSERT_OK(engine_->Commit(deleter));
  ASSERT_OK_AND_ASSIGN(auto look, ib.tree->Lookup(key, rids[3]));
  EXPECT_TRUE(look.found);
  EXPECT_TRUE(look.pseudo_deleted);

  // IB now tries to insert its stale key: rejected, stays pseudo-deleted.
  Transaction* ib_txn = engine_->Begin();
  std::vector<IndexKeyRef> refs{{key, rids[3]}};
  BTree::IbStats stats;
  ASSERT_OK(ib.tree->IbInsertBatch(ib_txn, refs, false, nullptr, &stats));
  ASSERT_OK(engine_->Commit(ib_txn));
  EXPECT_EQ(stats.skipped_tombstones, 1u);
  ASSERT_OK_AND_ASSIGN(look, ib.tree->Lookup(key, rids[3]));
  EXPECT_TRUE(look.pseudo_deleted);
}

TEST_F(NsfBuilderTest, RollbackAfterIbInsertedKeyFirstLeavesTombstone) {
  // Section 2.1.1: IB inserts <K,R> first, so the transaction's own
  // insert finds it and logs nothing.  Its rollback compensates from the
  // heap record: the key is pseudo-deleted, and a later IB insert of the
  // key it extracted from the dirty record cannot resurrect it.
  TableId table = MakeTable();
  auto rids = Populate(table, 50);
  const Rid r = rids[7];
  Transaction* deleter = engine_->Begin();
  ASSERT_OK(engine_->records()->DeleteRecord(deleter, table, r));
  ASSERT_OK(engine_->Commit(deleter));  // R is a dead slot, no index entry
  const IndexRef ib = StageBuild(table);

  const std::string key = Key("KKKKKKKK");
  std::vector<IndexKeyRef> refs{{key, r}};
  BTree::IbStats stats;
  Transaction* ib_txn = engine_->Begin();
  ASSERT_OK(ib.tree->IbInsertBatch(ib_txn, refs, false, nullptr, &stats));
  ASSERT_OK(engine_->Commit(ib_txn));
  ASSERT_EQ(stats.inserted, 1u);

  const RecordManagerStats& rs = engine_->records()->stats();
  const uint64_t dups = rs.nsf_duplicate_inserts.load();
  Transaction* t = engine_->Begin();
  ASSERT_OK(engine_->records()->InsertRecordAt(
      t, table, r, Schema::EncodeRecord({"KKKKKKKK", "t"})));
  EXPECT_EQ(rs.nsf_duplicate_inserts.load(), dups + 1);
  ASSERT_OK(engine_->Rollback(t));
  ASSERT_OK_AND_ASSIGN(auto look, ib.tree->Lookup(key, r));
  EXPECT_TRUE(look.found);
  EXPECT_TRUE(look.pseudo_deleted);

  stats = BTree::IbStats();
  ib_txn = engine_->Begin();
  ASSERT_OK(ib.tree->IbInsertBatch(ib_txn, refs, false, nullptr, &stats));
  ASSERT_OK(engine_->Commit(ib_txn));
  EXPECT_EQ(stats.skipped_tombstones, 1u);
  ASSERT_OK_AND_ASSIGN(look, ib.tree->Lookup(key, r));
  EXPECT_TRUE(look.pseudo_deleted);
}

TEST_F(NsfBuilderTest, HeapChangeWithoutIndexRecordsCompensatedAtRestart) {
  // A loser's heap update reaches the log but its index records do not
  // (the update stops between the two).  Restart undo must compensate
  // the in-build index from the heap record alone; otherwise the resumed
  // IB inserts the dirty key its scan read, and the restored key is
  // missing.
  TableId table = MakeTable();
  auto rids = Populate(table, 200);
  const IndexRef ib = StageBuild(table);

  FailPointRegistry::Instance().Arm("rm.maintain");
  Transaction* t = engine_->Begin();
  Status s = engine_->records()->UpdateRecord(t, table, rids[10],
                                              DirtyRecord());
  ASSERT_TRUE(s.IsInjected()) << s.ToString();

  // IB reads the dirty record and stops before its first insert, its
  // sorted keys durable in the end-of-scan checkpoint.
  FailPointRegistry::Instance().Arm("nsf.insert_batch");
  NsfIndexBuilder builder(engine_.get());
  IndexId index;
  s = builder.Resume(table, &index);
  ASSERT_TRUE(s.IsInjected()) << s.ToString();
  ASSERT_EQ(index, ib.id);
  ASSERT_OK(engine_->log()->FlushAll());

  CrashAndRestart();
  NsfIndexBuilder resumed(engine_.get());
  ASSERT_OK(resumed.Resume(table, &index));
  ExpectIndexConsistent(table, index);
}

TEST_F(NsfBuilderTest, ScanCheckpointForcesTheLogOfExtractedChanges) {
  // IB's scan reads an uncommitted update whose log records are not yet
  // durable, and checkpoints its sorted keys.  The checkpoint must force
  // the log first: a crash that lost the update would leave the resumed
  // build inserting a key no record ever durably had.
  options_.sort_checkpoint_every_keys = 1;  // a checkpoint after each page
  ReopenWithOptions();
  TableId table = MakeTable();
  auto rids = Populate(table, 200);
  ASSERT_NE(rids[1].page, rids.back().page);
  const IndexRef ib = StageBuild(table);

  Transaction* t = engine_->Begin();
  ASSERT_OK(engine_->records()->UpdateRecord(t, table, rids[1],
                                             DirtyRecord()));
  // The scan checkpoints after the update's page, then stops.
  FailPointRegistry::Instance().Arm("nsf.scan", 1);
  NsfIndexBuilder builder(engine_.get());
  IndexId index;
  Status s = builder.Resume(table, &index);
  ASSERT_TRUE(s.IsInjected()) << s.ToString();

  CrashAndRestart();
  NsfIndexBuilder resumed(engine_.get());
  ASSERT_OK(resumed.Resume(table, &index));
  ASSERT_EQ(index, ib.id);
  ExpectIndexConsistent(table, index);
}

TEST_F(NsfBuilderTest, UpdatesAcrossReadyFlipMaintainEachIndexOnce) {
  // An update planned while the index turns ready maintains it once: as
  // the NSF build's index or as a ready index, never as both.  Once the
  // build reports kDone, IB's inserts are committed, so every current key
  // is in the tree and no updater needs a tombstone or finds its key
  // already inserted; a second, NSF-style maintenance of the ready index
  // would count both.
  options_.enable_hash_index = true;  // hash.commit fires at the flip
  ReopenWithOptions();
  TableId table = MakeTable();
  auto rids = Populate(table, 3000);
  FailPointPolicy delay;
  delay.action = FailPointAction::kDelay;
  delay.arg = 50'000;  // usec: holds the ready flip open
  FailPointRegistry::Instance().ArmPolicy("hash.commit", delay);

  // Four updaters change the key of rows in their own 700-row range, one
  // update per transaction, with a fresh same-width key each time.
  constexpr uint64_t kRange = 700;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> failed{0};
  std::vector<std::thread> updaters;
  for (uint64_t t = 0; t < 4; ++t) {
    updaters.emplace_back([&, t] {
      for (uint64_t i = 0; !stop.load(); ++i) {
        const Rid rid = rids[t * kRange + i % kRange];
        std::string key = Workload::MakeKey(
            3000 + t * 10'000'000 + i, WorkloadOptions().key_width);
        Transaction* txn = engine_->Begin();
        Status s = engine_->records()->UpdateRecord(
            txn, table, rid,
            Schema::EncodeRecord({key, std::string(32, 'u')}));
        if (!s.ok()) {
          (void)engine_->Rollback(txn);
          failed.fetch_add(1);
        } else if (!engine_->Commit(txn).ok()) {
          failed.fetch_add(1);
        }
      }
    });
  }

  const RecordManagerStats& rs = engine_->records()->stats();
  std::atomic<bool> built{false};
  bool saw_done = false;
  uint64_t tombstones_at_done = 0, duplicates_at_done = 0;
  std::thread monitor([&] {
    while (!built.load()) {
      if (engine_->GetBuildProgress(table).phase == obs::BuildPhase::kDone) {
        tombstones_at_done = rs.tombstone_inserts.load();
        duplicates_at_done = rs.nsf_duplicate_inserts.load();
        saw_done = true;
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  NsfIndexBuilder builder(engine_.get());
  IndexId index;
  Status s = builder.Build(Params(table), &index);
  built.store(true);
  monitor.join();
  // Keep updating the ready index for a while before the final count.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true);
  for (std::thread& u : updaters) u.join();
  ASSERT_OK(s);
  EXPECT_EQ(failed.load(), 0u);
  ASSERT_TRUE(saw_done) << "the build never reported kDone";
  EXPECT_EQ(rs.tombstone_inserts.load(), tombstones_at_done);
  EXPECT_EQ(rs.nsf_duplicate_inserts.load(), duplicates_at_done);
  ExpectIndexConsistent(table, index);
}

TEST_F(NsfBuilderTest, UniqueBuildSucceedsOnUniqueData) {
  TableId table = MakeTable();
  Populate(table, 1000);
  NsfIndexBuilder builder(engine_.get());
  IndexId index;
  ASSERT_OK(builder.Build(Params(table, /*unique=*/true), &index));
  ExpectIndexConsistent(table, index);
}

TEST_F(NsfBuilderTest, UniqueBuildDetectsCommittedDuplicates) {
  TableId table = MakeTable();
  Transaction* txn = engine_->Begin();
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(engine_->records()
                  ->InsertRecord(txn, table,
                                 Schema::EncodeRecord(
                                     {Workload::MakeKey(i % 9, 12), "p"}))
                  .status());
  }
  ASSERT_OK(engine_->Commit(txn));
  NsfIndexBuilder builder(engine_.get());
  IndexId index;
  Status s = builder.Build(Params(table, /*unique=*/true), &index);
  EXPECT_TRUE(s.IsUniqueViolation()) << s.ToString();
  EXPECT_TRUE(engine_->catalog()->IndexesOf(table).empty());
}

TEST_F(NsfBuilderTest, ResumeAfterCrashDuringScan) {
  TableId table = MakeTable();
  Populate(table, 3000);
  options_.sort_checkpoint_every_keys = 500;
  ReopenWithOptions();

  FailPointRegistry::Instance().Arm("nsf.scan", 8);
  NsfIndexBuilder builder(engine_.get());
  IndexId index;
  Status s = builder.Build(Params(table), &index);
  ASSERT_TRUE(s.IsInjected()) << s.ToString();

  CrashAndRestart();
  NsfIndexBuilder resumed(engine_.get());
  BuildStats stats;
  ASSERT_OK(resumed.Resume(table, &index, &stats));
  // Resume re-scans only the post-checkpoint pages.
  EXPECT_LT(stats.keys_extracted, 3000u);
  ExpectIndexConsistent(table, index);
}

TEST_F(NsfBuilderTest, ResumeAfterCrashDuringInserts) {
  TableId table = MakeTable();
  Populate(table, 3000);
  options_.ib_checkpoint_every_keys = 500;
  ReopenWithOptions();

  FailPointRegistry::Instance().Arm("nsf.insert_batch", 40);
  NsfIndexBuilder builder(engine_.get());
  IndexId index;
  Status s = builder.Build(Params(table), &index);
  ASSERT_TRUE(s.IsInjected()) << s.ToString();

  CrashAndRestart();
  NsfIndexBuilder resumed(engine_.get());
  BuildStats stats;
  ASSERT_OK(resumed.Resume(table, &index, &stats));
  // Inserts resumed from the checkpoint, not from scratch.
  EXPECT_LT(stats.ib.inserted, 3000u);
  ExpectIndexConsistent(table, index);
}

TEST_F(NsfBuilderTest, ResumeWithConcurrentUpdatesAfterRestart) {
  TableId table = MakeTable();
  auto rids = Populate(table, 2000);
  options_.ib_checkpoint_every_keys = 400;
  ReopenWithOptions();

  FailPointRegistry::Instance().Arm("nsf.insert_batch", 20);
  NsfIndexBuilder builder(engine_.get());
  IndexId index;
  Status s = builder.Build(Params(table), &index);
  ASSERT_TRUE(s.IsInjected());

  CrashAndRestart();
  // Transactions run against the half-built index before Resume: the
  // reattached build keeps them maintaining it.
  WorkloadOptions wo;
  wo.threads = 2;
  Workload workload(engine_.get(), table, wo);
  workload.Seed(rids, 2000);
  WorkloadStats wstats;
  ASSERT_OK(workload.Run(500, &wstats));
  EXPECT_GT(wstats.commits, 0u);

  NsfIndexBuilder resumed(engine_.get());
  ASSERT_OK(resumed.Resume(table, &index, nullptr));
  ExpectIndexConsistent(table, index);
}

TEST_F(NsfBuilderTest, CommitFailpointAbortsAndResumeCompletes) {
  TableId table = MakeTable();
  Populate(table, 1500);
  options_.ib_checkpoint_every_keys = 400;
  ReopenWithOptions();

  // Injected at the final commit edge: the build aborts with its last
  // checkpoint on disk and the insert txn still open (a loser at
  // restart), exactly as if the process had died there.
  FailPointRegistry::Instance().Arm("nsf.commit");
  NsfIndexBuilder builder(engine_.get());
  IndexId index;
  Status s = builder.Build(Params(table), &index);
  ASSERT_TRUE(s.IsInjected()) << s.ToString();

  CrashAndRestart();
  NsfIndexBuilder resumed(engine_.get());
  ASSERT_OK(resumed.Resume(table, &index, nullptr));
  ExpectIndexConsistent(table, index);
}

TEST_F(NsfBuilderTest, SaveMetaFailpointAbortsAndResumeCompletes) {
  TableId table = MakeTable();
  Populate(table, 3000);
  options_.ib_checkpoint_every_keys = 500;
  ReopenWithOptions();

  // Let the first checkpoint persist, fail the second: Resume starts
  // from the surviving checkpoint, not from scratch.
  FailPointRegistry::Instance().Arm("build.save_meta", 1);
  NsfIndexBuilder builder(engine_.get());
  IndexId index;
  Status s = builder.Build(Params(table), &index);
  ASSERT_TRUE(s.IsInjected()) << s.ToString();

  CrashAndRestart();
  NsfIndexBuilder resumed(engine_.get());
  BuildStats stats;
  ASSERT_OK(resumed.Resume(table, &index, &stats));
  ExpectIndexConsistent(table, index);
}

TEST_F(NsfBuilderTest, CancelDropsDescriptorUnderQuiesce) {
  TableId table = MakeTable();
  Populate(table, 500);
  FailPointRegistry::Instance().Arm("nsf.insert_batch", 2);
  NsfIndexBuilder builder(engine_.get());
  IndexId index;
  Status s = builder.Build(Params(table), &index);
  ASSERT_TRUE(s.IsInjected());
  ASSERT_OK(CancelBuild(engine_.get(), table));
  EXPECT_TRUE(engine_->catalog()->IndexesOf(table).empty());
  // Updates continue normally afterwards.
  Transaction* txn = engine_->Begin();
  ASSERT_OK(engine_->records()
                ->InsertRecord(txn, table,
                               Schema::EncodeRecord({"after-cancel", "p"}))
                .status());
  ASSERT_OK(engine_->Commit(txn));
}

TEST_F(NsfBuilderTest, PseudoDeleteGcCleansCommittedTombstones) {
  TableId table = MakeTable();
  auto rids = Populate(table, 1000);
  // Build with concurrent deletes to generate pseudo-deleted keys.
  WorkloadOptions wo;
  wo.threads = 2;
  wo.insert_pct = 0.1;
  wo.delete_pct = 0.6;
  wo.update_pct = 0.2;
  Workload workload(engine_.get(), table, wo);
  workload.Seed(rids, 1000);
  workload.Start();
  NsfIndexBuilder builder(engine_.get());
  BuildParams params = Params(table);
  IndexId index;
  Status s = builder.Build(params, &index);
  workload.Stop();
  ASSERT_OK(s);
  ExpectIndexConsistent(table, index);

  BTree* tree = engine_->catalog()->index(index);
  TreeVerifier tv(tree, engine_->pool());
  ASSERT_OK_AND_ASSIGN(auto before, tv.Clustering());
  PseudoDeleteGC gc(engine_.get());
  GcStats gc_stats;
  ASSERT_OK(gc.Run(index, &gc_stats));
  EXPECT_EQ(gc_stats.removed, before.pseudo_deleted);
  ASSERT_OK_AND_ASSIGN(auto after, tv.Clustering());
  EXPECT_EQ(after.pseudo_deleted, 0u);
  ExpectIndexConsistent(table, index);
}

TEST_F(NsfBuilderTest, GcSkipsUncommittedDeletions) {
  // A deletion made during the build, still uncommitted when the build
  // completes: its tombstone stays in the ready index, X-locked.
  TableId table = MakeTable();
  auto rids = Populate(table, 20);
  StageBuild(table);
  Transaction* deleter = engine_->Begin();
  ASSERT_OK(engine_->records()->DeleteRecord(deleter, table, rids[0]));
  NsfIndexBuilder builder(engine_.get());
  IndexId index;
  ASSERT_OK(builder.Resume(table, &index));
  ASSERT_OK_AND_ASSIGN(auto look, engine_->catalog()->index(index)->Lookup(
                                      Key(Workload::MakeKey(0, 12)), rids[0]));
  ASSERT_TRUE(look.pseudo_deleted);

  PseudoDeleteGC gc(engine_.get());
  GcStats stats;
  ASSERT_OK(gc.Run(index, &stats));
  EXPECT_EQ(stats.removed, 0u);
  EXPECT_EQ(stats.skipped_locked, 1u);
  ASSERT_OK(engine_->Rollback(deleter));
  ExpectIndexConsistent(table, index);
}

}  // namespace
}  // namespace oib
