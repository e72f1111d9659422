// Engine / recovery flows parameterized over the durable world: every
// case runs once on InMemoryDisk and once on FileDisk (real files, with
// crash cycles that re-attach from disk — see EngineTest::CrashAndRestart).

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/index_builder.h"
#include "tests/test_util.h"

namespace oib {
namespace {

class EngineOnDiskTest : public EngineDiskTest {
 protected:
  BuildParams Params(TableId table, BuildAlgo algo) {
    BuildParams p;
    p.name = "idx";
    p.table = table;
    p.unique = false;
    p.key_cols = {0};
    (void)algo;
    return p;
  }

  // Reference chain: follows every page's next link from the first page.
  std::vector<PageId> WalkChain(TableId table) {
    HeapFile* heap = engine_->catalog()->table(table);
    std::vector<PageId> chain;
    for (PageId cur = heap->first_page(); cur != kInvalidPageId;) {
      chain.push_back(cur);
      std::vector<std::pair<Rid, std::string>> recs;
      auto next = heap->ExtractPage(cur, &recs);
      EXPECT_TRUE(next.ok());
      if (!next.ok()) break;
      cur = *next;
    }
    return chain;
  }

  // The chain cache Restart rebuilt (from a snapshot or a walk) must be
  // exactly the on-page chain.
  void ExpectChainMatchesWalk(TableId table) {
    HeapFile* heap = engine_->catalog()->table(table);
    std::vector<PageId> walked = WalkChain(table);
    ASSERT_OK_AND_ASSIGN(std::vector<PageId> cached, heap->ChainPages());
    EXPECT_EQ(cached, walked);
    EXPECT_EQ(heap->page_count(), walked.size());
    EXPECT_EQ(heap->tail_page(), walked.back());
  }

  uint64_t CountRows(TableId table) {
    uint64_t n = 0;
    EXPECT_OK(engine_->catalog()->table(table)->ForEach(
        [&](const Rid&, std::string_view) { ++n; }));
    return n;
  }
};

TEST_P(EngineOnDiskTest, CommittedRowsSurviveCrash) {
  TableId table = MakeTable();
  Populate(table, 500);
  CrashAndRestart();
  EXPECT_EQ(CountRows(table), 500u);
  EXPECT_GT(recovery_stats_.records_scanned, 0u);
}

TEST_P(EngineOnDiskTest, UncommittedTxnRolledBackAtRestart) {
  TableId table = MakeTable();
  Populate(table, 100);
  Transaction* txn = engine_->Begin();
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(engine_->records()
                  ->InsertRecord(txn, table,
                                 Schema::EncodeRecord(
                                     {"loser" + std::to_string(i), "p"}))
                  .status());
  }
  // Make the loser's records durable in the log without committing.
  ASSERT_OK(engine_->log()->FlushAll());
  CrashAndRestart();
  EXPECT_EQ(recovery_stats_.loser_txns, 1u);
  EXPECT_EQ(CountRows(table), 100u);
}

TEST_P(EngineOnDiskTest, DropUnflushedBoundaryKeepsExactlyCommittedState) {
  // Commit N batches; the WAL is fsynced at each commit, so the crash
  // (which drops everything after the durable boundary) must preserve
  // every committed batch and nothing of the in-flight one.
  TableId table = MakeTable();
  Populate(table, 50);
  for (int batch = 0; batch < 5; ++batch) {
    Transaction* txn = engine_->Begin();
    for (int i = 0; i < 20; ++i) {
      ASSERT_OK(
          engine_->records()
              ->InsertRecord(txn, table,
                             Schema::EncodeRecord(
                                 {"b" + std::to_string(batch) + "_" +
                                      std::to_string(i),
                                  "p"}))
              .status());
    }
    ASSERT_OK(engine_->Commit(txn));
  }
  // In-flight txn: never flushed, must vanish entirely.
  Transaction* inflight = engine_->Begin();
  ASSERT_OK(engine_->records()
                ->InsertRecord(inflight, table,
                               Schema::EncodeRecord({"inflight", "p"}))
                .status());
  CrashAndRestart();
  EXPECT_EQ(CountRows(table), 50u + 5 * 20u);
}

TEST_P(EngineOnDiskTest, CheckpointBoundsRedoAndStateSurvives) {
  TableId table = MakeTable();
  Populate(table, 300);
  ASSERT_OK(engine_->Checkpoint());
  uint64_t before = 0;
  {
    CrashAndRestart();
    before = recovery_stats_.records_scanned;
    EXPECT_EQ(CountRows(table), 300u);
  }
  Populate(table, 300);  // appends 300 more rows after the checkpoint
  CrashAndRestart();
  EXPECT_EQ(CountRows(table), 600u);
  EXPECT_GT(recovery_stats_.records_scanned, before);
}

TEST_P(EngineOnDiskTest, NsfBuildResumesAcrossCrash) {
  TableId table = MakeTable();
  Populate(table, 3000);
  options_.ib_checkpoint_every_keys = 500;
  ReopenWithOptions();

  FailPointRegistry::Instance().Arm("nsf.insert_batch", 40);
  NsfIndexBuilder builder(engine_.get());
  IndexId index;
  Status s = builder.Build(Params(table, BuildAlgo::kNsf), &index);
  ASSERT_TRUE(s.IsInjected()) << s.ToString();

  CrashAndRestart();
  NsfIndexBuilder resumed(engine_.get());
  BuildStats stats;
  ASSERT_OK(resumed.Resume(table, &index, &stats));
  EXPECT_LT(stats.ib.inserted, 3000u);  // resumed from the checkpoint
  ExpectIndexConsistent(table, index);
}

TEST_P(EngineOnDiskTest, SfBuildResumesAcrossCrash) {
  TableId table = MakeTable();
  Populate(table, 2000);
  options_.sort_checkpoint_every_keys = 400;
  ReopenWithOptions();

  FailPointRegistry::Instance().Arm("sf.scan", 10);
  SfIndexBuilder builder(engine_.get());
  IndexId index;
  Status s = builder.Build(Params(table, BuildAlgo::kSf), &index);
  ASSERT_TRUE(s.IsInjected()) << s.ToString();

  CrashAndRestart();
  SfIndexBuilder resumed(engine_.get());
  ASSERT_OK(resumed.Resume(table, nullptr));
  auto descs = engine_->catalog()->IndexesOf(table);
  ASSERT_EQ(descs.size(), 1u);
  ExpectIndexConsistent(table, descs[0].id);
}

TEST_P(EngineOnDiskTest, ParallelRedoRecoversSameState) {
  TableId table = MakeTable();
  Populate(table, 400);
  options_.recovery_threads = 4;
  // No flush: restart replays the whole insert history partitioned
  // across four workers.
  ASSERT_OK(engine_->log()->FlushAll());
  CrashAndRestart();
  EXPECT_EQ(recovery_stats_.redo_threads, 4u);
  EXPECT_EQ(CountRows(table), 400u);
  // And a second cycle over the recovered state.
  CrashAndRestart();
  EXPECT_EQ(CountRows(table), 400u);
}

TEST_P(EngineOnDiskTest, DoubleCrashIsIdempotent) {
  TableId table = MakeTable();
  Populate(table, 250);
  CrashAndRestart();
  CrashAndRestart();
  EXPECT_EQ(CountRows(table), 250u);
  // The engine stays writable after repeated recoveries.
  Transaction* txn = engine_->Begin();
  ASSERT_OK(engine_->records()
                ->InsertRecord(txn, table,
                               Schema::EncodeRecord({"after", "p"}))
                .status());
  ASSERT_OK(engine_->Commit(txn));
  EXPECT_EQ(CountRows(table), 251u);
}

TEST_P(EngineOnDiskTest, ChainSnapshotPlusWalkedSuffixMatchesFullWalk) {
  TableId table = MakeTable();
  // A second table interleaves its page allocations with the first, so
  // the snapshot holds several (first page, run length) ranges.
  TableId other = MakeTable("u");
  for (int i = 0; i < 4; ++i) {
    Populate(table, 500);
    Populate(other, 500);
  }
  ASSERT_OK(engine_->Checkpoint());
  size_t at_checkpoint = engine_->catalog()->table(table)->page_count();
  size_t covered = at_checkpoint +
                   engine_->catalog()->table(other)->page_count();
  Populate(table, 400);  // extends the chain past the snapshot's tail
  size_t linked_since = engine_->catalog()->table(table)->page_count() -
                        at_checkpoint;
  ASSERT_GT(linked_since, 0u);
  uint64_t reads_before =
      disk_kind() == DiskKind::kFile ? 0 : engine_->disk()->reads();
  CrashAndRestart();
  // Restart reads what redo replays (about the pages linked since the
  // checkpoint), not every page of both chains, which a full walk would.
  ASSERT_GT(covered, 2 * linked_since + 4);
  EXPECT_LE(engine_->disk()->reads() - reads_before, linked_since + 4);
  ExpectChainMatchesWalk(table);
  ExpectChainMatchesWalk(other);
  EXPECT_EQ(CountRows(table), 2400u);
  EXPECT_EQ(CountRows(other), 2000u);
  // Inserts after restart go through the restored hints and tail.
  Populate(table, 200);
  EXPECT_EQ(CountRows(table), 2600u);
  ExpectChainMatchesWalk(table);
}

TEST_P(EngineOnDiskTest, ChainRebuiltByWalkWithoutCheckpoint) {
  TableId table = MakeTable();
  Populate(table, 900);
  CrashAndRestart();
  ExpectChainMatchesWalk(table);
  EXPECT_EQ(CountRows(table), 900u);
}

TEST_P(EngineOnDiskTest, TwoRestartsReuseOneChainSnapshot) {
  TableId table = MakeTable();
  Populate(table, 500);
  ASSERT_OK(engine_->Checkpoint());
  Populate(table, 500);
  CrashAndRestart();
  ExpectChainMatchesWalk(table);
  // No new checkpoint: the second restart opens from the same (older)
  // snapshot and walks everything linked since, across both lives.
  Populate(table, 500);
  CrashAndRestart();
  ExpectChainMatchesWalk(table);
  EXPECT_EQ(CountRows(table), 1500u);
}

TEST_P(EngineOnDiskTest, CheckpointUnderConcurrentUpdatesRecovers) {
  TableId table = MakeTable();
  auto rids = Populate(table, 2000);
  WorkloadOptions wo;
  wo.threads = 2;
  Workload workload(engine_.get(), table, wo);
  workload.Seed(rids, 100000);
  workload.Start();
  // Checkpoints race the updaters: records logged while the pool is being
  // flushed must still be redone, and transactions that commit around
  // the active-table snapshot must not come back as losers.
  for (int i = 0; i < 3; ++i) ASSERT_OK(engine_->Checkpoint());
  workload.Stop();
  ASSERT_OK(engine_->log()->FlushAll());
  uint64_t committed_rows = CountRows(table);
  CrashAndRestart();
  EXPECT_EQ(CountRows(table), committed_rows);
  ExpectChainMatchesWalk(table);
}

TEST_P(EngineOnDiskTest, CheckpointFlushSeesFirstChangeOfCleanPage) {
  TableId table = MakeTable();
  auto rids = Populate(table, 20);
  ASSERT_OK(engine_->Checkpoint());  // every page is clean now
  HeapFile* heap = engine_->catalog()->table(table);
  ASSERT_OK_AND_ASSIGN(std::string updated, heap->Get(rids[5]));
  updated.back() = updated.back() == 'x' ? 'y' : 'x';

  // The updater stalls right after it unlatches the page it changed; the
  // checkpoint flushes the pool in that window, then stalls until the
  // updater has committed and left the active table.  Neither the redo
  // start nor an active-table entry covers the update, so only the pool
  // flush can: the page must already show dirty once it is unlatched.
  FailPointPolicy stall;
  stall.action = FailPointAction::kDelay;
  stall.arg = 300 * 1000;  // us
  FailPointRegistry::Instance().ArmPolicy("bufferpool.release_write", stall);
  stall.arg = 900 * 1000;
  FailPointRegistry::Instance().ArmPolicy("engine.checkpoint.flushed",
                                          stall);
  std::thread updater([&] {
    Transaction* txn = engine_->Begin();
    EXPECT_OK(engine_->records()->UpdateRecord(txn, table, rids[5], updated));
    EXPECT_OK(engine_->Commit(txn));
  });
  auto stalled = [] {
    return FailPointRegistry::Instance().fired_count(
               "bufferpool.release_write") > 0;
  };
  for (int ms = 0; ms < 10000 && !stalled(); ++ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(stalled());
  EXPECT_OK(engine_->Checkpoint());
  updater.join();
  CrashAndRestart();
  heap = engine_->catalog()->table(table);
  ASSERT_OK_AND_ASSIGN(std::string after, heap->Get(rids[5]));
  EXPECT_EQ(after, updated);
}

INSTANTIATE_TEST_SUITE_P(Disks, EngineOnDiskTest,
                         ::testing::Values(DiskKind::kInMemory,
                                           DiskKind::kFile),
                         DiskParamName);

}  // namespace
}  // namespace oib
