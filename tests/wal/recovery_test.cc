#include "wal/recovery.h"

#include <gtest/gtest.h>

#include "btree/btree.h"
#include "btree/tree_verifier.h"
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

// Restart redo must rebuild a tree whose every page existed only in the
// buffer pool: 3,000 inserts split leaves repeatedly and grow the root,
// and the crash discards all of it but the log.  Multi-page records
// (kSplit touches the new page, the split page and the parent; kNewRoot
// the new root and the anchor) replay in log order with the single-page
// inserts around them.
TEST_F(RecoveryTest, TreeSplitsAndRootGrowthRedoneAfterCrash) {
  TableId table = MakeTable();
  Populate(table, 200);
  ASSERT_OK_AND_ASSIGN(IndexDescriptor desc,
                       engine_->catalog()->CreateIndex(
                           "idx", table, false, {0}, BuildAlgo::kOffline));
  auto key = [](int i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "%08d", (i * 7919) % 100000);
    return std::string(buf);
  };
  BTree* tree = engine_->catalog()->index(desc.id);
  Transaction* txn = engine_->Begin();
  for (int i = 0; i < 3000; ++i) {
    ASSERT_OK(tree->Insert(txn, key(i), Rid(uint32_t(i), 0)).status());
  }
  ASSERT_OK(engine_->Commit(txn));
  CrashAndRestart();

  EXPECT_GT(recovery_stats_.records_redone, 3000u);
  tree = engine_->catalog()->index(desc.id);
  ASSERT_NE(tree, nullptr);
  TreeVerifier tv(tree, engine_->pool());
  ASSERT_OK_AND_ASSIGN(TreeCheckReport report, tv.Check());
  EXPECT_TRUE(report.ok) << report.error;
  EXPECT_GT(report.height, 1u);
  for (int i = 0; i < 3000; ++i) {
    ASSERT_OK_AND_ASSIGN(BTree::LookupResult r,
                         tree->Lookup(key(i), Rid(uint32_t(i), 0)));
    EXPECT_TRUE(r.found && !r.pseudo_deleted) << key(i);
  }
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
