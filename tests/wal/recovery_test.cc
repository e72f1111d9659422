#include "wal/recovery.h"

#include <gtest/gtest.h>

#include "btree/btree.h"
#include "tests/test_util.h"

namespace oib {
namespace {

TEST(CheckpointPayloadTest, RoundTrip) {
  std::vector<std::pair<TxnId, Lsn>> active = {{3, 100}, {9, 250}};
  std::string blob = EncodeCheckpointPayload(active, 80);
  std::vector<std::pair<TxnId, Lsn>> out;
  Lsn redo_start = kInvalidLsn;
  ASSERT_TRUE(DecodeCheckpointPayload(blob, &out, &redo_start).ok());
  EXPECT_EQ(out, active);
  EXPECT_EQ(redo_start, 80u);
  EXPECT_TRUE(
      DecodeCheckpointPayload("junk", &out, &redo_start).IsCorruption());
}

class RecoveryTest : public EngineTest {};

TEST_F(RecoveryTest, RedoIsIdempotentAcrossDoubleRestart) {
  TableId table = MakeTable();
  Populate(table, 300);
  CrashAndRestart();
  CrashAndRestart();  // second recovery replays over already-redone pages
  HeapFile* heap = engine_->catalog()->table(table);
  uint64_t count = 0;
  ASSERT_OK(heap->ForEach([&](const Rid&, std::string_view) { ++count; }));
  EXPECT_EQ(count, 300u);
}

TEST_F(RecoveryTest, TxnIdsAdvancePastRecoveredOnes) {
  TableId table = MakeTable();
  Transaction* t1 = engine_->Begin();
  TxnId before = t1->id();
  ASSERT_OK(engine_->records()
                ->InsertRecord(t1, table,
                               Schema::EncodeRecord({"aaaa", "b"}))
                .status());
  ASSERT_OK(engine_->Commit(t1));
  CrashAndRestart();
  Transaction* t2 = engine_->Begin();
  EXPECT_GT(t2->id(), before);
  ASSERT_OK(engine_->Rollback(t2));
}

TEST_F(RecoveryTest, CrashDuringRollbackFinishesUndoAtRestart) {
  // CLRs guarantee rollback completes exactly once even when interrupted.
  TableId table = MakeTable();
  auto rids = Populate(table, 10);

  Transaction* txn = engine_->Begin();
  ASSERT_OK(engine_->records()->DeleteRecord(txn, table, rids[3]));
  ASSERT_OK(engine_->records()->DeleteRecord(txn, table, rids[7]));
  // Flush everything logged so far, then "crash" without finishing: the
  // restart must roll the loser back.
  ASSERT_OK(engine_->log()->FlushAll());
  CrashAndRestart();
  EXPECT_GE(recovery_stats_.loser_txns, 1u);
  HeapFile* heap = engine_->catalog()->table(table);
  EXPECT_TRUE(heap->Exists(rids[3]));
  EXPECT_TRUE(heap->Exists(rids[7]));

  // Crash again right after: the CLRs from the first undo replay as
  // redo-only and the txn stays ended (no double-undo).
  ASSERT_OK(engine_->log()->FlushAll());
  CrashAndRestart();
  EXPECT_EQ(recovery_stats_.loser_txns, 0u);
  heap = engine_->catalog()->table(table);
  EXPECT_TRUE(heap->Exists(rids[3]));
}

// Runs one deterministic world — heap rows plus enough B+-tree inserts to
// split repeatedly — crashes it, recovers with `redo_threads` workers, and
// returns the flushed disk image plus recovery stats.
struct WorldResult {
  std::string image;
  RecoveryStats stats;
};

WorldResult RunRedoWorld(size_t redo_threads) {
  Options options;
  options.buffer_pool_pages = 2048;
  options.recovery_threads = redo_threads;
  auto env = Env::InMemory(options);
  {
    auto engine = Engine::Open(options, env.get());
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    auto table = (*engine)->catalog()->CreateTable("t");
    EXPECT_TRUE(table.ok());
    WorkloadOptions wo;
    EXPECT_TRUE(Workload::Populate(engine->get(), *table, 200, wo).ok());
    auto desc = (*engine)->catalog()->CreateIndex("idx", *table, false, {0},
                                                  BuildAlgo::kOffline);
    EXPECT_TRUE(desc.ok());
    BTree* tree = (*engine)->catalog()->index(desc->id);
    Transaction* txn = (*engine)->Begin();
    for (int i = 0; i < 3000; ++i) {
      char key[16];
      snprintf(key, sizeof(key), "%08d", (i * 7919) % 100000);
      auto r = tree->Insert(txn, key, Rid(uint32_t(i), 0));
      EXPECT_TRUE(r.ok()) << r.status().ToString();
    }
    EXPECT_TRUE((*engine)->Commit(txn).ok());
    EXPECT_TRUE((*engine)->SimulateCrash().ok());
  }
  WorldResult out;
  auto engine = Engine::Restart(options, env.get(), &out.stats);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_TRUE((*engine)->FlushAll().ok());
  DiskManager* disk = env->disk.get();
  std::string page(disk->page_size(), '\0');
  for (PageId p = 0; p < disk->PageCount(); ++p) {
    if (disk->ReadPage(p, page.data()).ok()) {
      out.image += page;
    } else {
      out.image += "<unreadable:" + std::to_string(p) + ">";
    }
  }
  return out;
}

// The tentpole equivalence check: partitioned redo must reconstruct the
// exact same pages as single-threaded redo, barriers and all.
TEST(ParallelRedoTest, PartitionedRedoProducesIdenticalPages) {
  WorldResult serial = RunRedoWorld(1);
  WorldResult parallel = RunRedoWorld(4);
  EXPECT_EQ(serial.stats.redo_threads, 1u);
  EXPECT_EQ(parallel.stats.redo_threads, 4u);
  // Same log → same redo work, and the splits/new-roots show up as
  // barriers only on the partitioned path.
  EXPECT_EQ(serial.stats.records_scanned, parallel.stats.records_scanned);
  EXPECT_EQ(serial.stats.records_redone, parallel.stats.records_redone);
  EXPECT_GT(parallel.stats.records_redone, 3000u);
  EXPECT_GT(parallel.stats.redo_barriers, 0u);
  EXPECT_EQ(serial.stats.redo_barriers, 0u);
  ASSERT_EQ(serial.image.size(), parallel.image.size());
  EXPECT_TRUE(serial.image == parallel.image) << "disk images diverge";
}

TEST_F(RecoveryTest, ParallelRedoRecoversEngineConsistently) {
  options_.recovery_threads = 4;
  TableId table = MakeTable();
  Populate(table, 300);
  CrashAndRestart();
  EXPECT_EQ(recovery_stats_.redo_threads, 4u);
  EXPECT_GT(recovery_stats_.records_redone, 0u);
  HeapFile* heap = engine_->catalog()->table(table);
  uint64_t count = 0;
  ASSERT_OK(heap->ForEach([&](const Rid&, std::string_view) { ++count; }));
  EXPECT_EQ(count, 300u);
  // A second crash replays over the already-redone pages.
  CrashAndRestart();
  count = 0;
  heap = engine_->catalog()->table(table);
  ASSERT_OK(heap->ForEach([&](const Rid&, std::string_view) { ++count; }));
  EXPECT_EQ(count, 300u);
}

TEST_F(RecoveryTest, LatePagesRedoneFromLog) {
  // A committed change whose page never reached disk must be redone.
  TableId table = MakeTable();
  Transaction* txn = engine_->Begin();
  ASSERT_OK_AND_ASSIGN(
      Rid rid, engine_->records()->InsertRecord(
                   txn, table, Schema::EncodeRecord({"zzzz", "vvv"})));
  ASSERT_OK(engine_->Commit(txn));  // forces the log, not the pages
  CrashAndRestart();
  EXPECT_GT(recovery_stats_.records_redone, 0u);
  ASSERT_OK_AND_ASSIGN(std::string rec,
                       engine_->catalog()->table(table)->Get(rid));
  std::vector<std::string> fields;
  ASSERT_OK(Schema::DecodeRecord(rec, &fields));
  EXPECT_EQ(fields[0], "zzzz");
}

}  // namespace
}  // namespace oib
