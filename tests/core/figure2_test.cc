// Figure 2 (index updates during rollback) transition scenarios, including
// the two-index example spelled out in paper section 3.2.3:
//
//   "T1 updates data page P10; index build for I3 begins and completes;
//    index build for I4 begins and causes IB to process P10 and move
//    Target-RID past P10; T1 rolls back its change to P10.  In this
//    scenario, while undoing its change to P10, T1 has to make an entry in
//    the side-file for the index undo to be performed in I4 and it should
//    perform a logical undo (by traversing the tree) in I3."

#include <gtest/gtest.h>

#include "core/index_builder.h"
#include "tests/test_util.h"

namespace oib {
namespace {

class Figure2Test : public EngineTest {
 protected:
  std::string Rec(const std::string& key, const std::string& payload = "p") {
    return Schema::EncodeRecord({key, payload});
  }

  // Normalized single-string-column key, as the index and side-file
  // store it.
  static std::string Key(const std::string& v) {
    std::string k;
    keyenc::AppendStringColumn(&k, v);
    return k;
  }
};

TEST_F(Figure2Test, InvisibleForwardVisibleRollbackAppendsInverse) {
  // Forward op while the SF scan had NOT passed the record; the scan
  // passes it before rollback: the undo must append the inverse entry
  // (the record's pre-change state was extracted by IB).
  TableId table = MakeTable();
  auto rids = Populate(table, 50);

  auto desc = engine_->catalog()->CreateIndex("i4", table, false, {0},
                                              BuildAlgo::kSf);
  ASSERT_TRUE(desc.ok());
  ASSERT_OK_AND_ASSIGN(
      auto build,
      engine_->catalog()->BeginBuild(table, BuildAlgo::kSf, {desc->id}));
  const IndexRef& ib = build->indexes[0];
  build->SetCurrentRid(Rid::MinusInfinity());  // scan not started

  Transaction* t1 = engine_->Begin();
  ASSERT_OK(engine_->records()->UpdateRecord(
      t1, table, rids[10], Rec("zzzzNEWKEY01")));
  EXPECT_EQ(ib.side_file->entries_appended(), 0u);  // invisible: no entry

  // IB's scan passes the record (it extracts the NEW key state).
  build->SetCurrentRid(Rid::Infinity());

  uint64_t counted_before = engine_->records()->stats().side_file_appends;
  ASSERT_OK(engine_->Rollback(t1));
  // Figure 2: count-mismatch compensation — inverse entries for the
  // update: delete the new key, insert the old key.
  EXPECT_EQ(ib.side_file->entries_appended(), 2u);
  // Undo appends are counted like forward ones, once per entry.
  EXPECT_EQ(engine_->records()->stats().side_file_appends - counted_before,
            2u);
  EXPECT_EQ(engine_->GetBuildProgress(table).side_file_appended, 2u);
  SideFile::Cursor cursor = ib.side_file->Begin();
  std::vector<SideFile::Entry> entries;
  ASSERT_OK(ib.side_file->ReadBatch(&cursor, 10, &entries).status());
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].op, SideFileOp::kDeleteKey);
  EXPECT_EQ(entries[0].key, Key("zzzzNEWKEY01"));
  EXPECT_EQ(entries[1].op, SideFileOp::kInsertKey);
  EXPECT_EQ(entries[1].key, Key(Workload::MakeKey(10, 12)));
}

TEST_F(Figure2Test, CompletedSinceForwardGetsDirectLogicalUndo) {
  // Forward op before any build; a build completes before rollback: the
  // undo must traverse the (now complete) tree and fix it directly.
  TableId table = MakeTable();
  auto rids = Populate(table, 50);

  Transaction* t1 = engine_->Begin();
  ASSERT_OK(engine_->records()->UpdateRecord(
      t1, table, rids[10], Rec("zzzzNEWKEY02")));

  // I3 is built and completed while T1 is still active (SF never
  // quiesces, so this is legal).
  SfIndexBuilder builder(engine_.get());
  BuildParams params;
  params.name = "i3";
  params.table = table;
  params.key_cols = {0};
  IndexId i3;
  ASSERT_OK(builder.Build(params, &i3));
  BTree* tree = engine_->catalog()->index(i3);
  // The completed index reflects T1's uncommitted new key (extracted by
  // the scan).
  ASSERT_OK_AND_ASSIGN(auto look, tree->Lookup(Key("zzzzNEWKEY02"), rids[10]));
  EXPECT_TRUE(look.found);

  ASSERT_OK(engine_->Rollback(t1));
  ASSERT_OK_AND_ASSIGN(look, tree->Lookup(Key("zzzzNEWKEY02"), rids[10]));
  EXPECT_FALSE(look.found);
  ASSERT_OK_AND_ASSIGN(
      look, tree->Lookup(Key(Workload::MakeKey(10, 12)), rids[10]));
  EXPECT_TRUE(look.found);
  ExpectIndexConsistent(table, i3);
}

TEST_F(Figure2Test, PaperSection323TwoIndexScenario) {
  TableId table = MakeTable();
  auto rids = Populate(table, 50);

  // T1 updates "data page P10" (record rids[10]) before any index exists.
  Transaction* t1 = engine_->Begin();
  ASSERT_OK(engine_->records()->UpdateRecord(
      t1, table, rids[10], Rec("zzzzNEWKEY03")));

  // Index build for I3 begins and completes.
  SfIndexBuilder b3(engine_.get());
  BuildParams p3;
  p3.name = "i3";
  p3.table = table;
  p3.key_cols = {0};
  IndexId i3;
  ASSERT_OK(b3.Build(p3, &i3));

  // Index build for I4 begins, and IB's scan moves past P10 (we stage I4
  // by hand to hold it in the in-progress state).
  auto d4 = engine_->catalog()->CreateIndex("i4", table, false, {0},
                                            BuildAlgo::kSf);
  ASSERT_TRUE(d4.ok());
  ASSERT_OK_AND_ASSIGN(
      auto build4,
      engine_->catalog()->BeginBuild(table, BuildAlgo::kSf, {d4->id}));
  const IndexRef& ib4 = build4->indexes[0];
  build4->SetCurrentRid(Rid::Infinity());

  // T1 rolls back: entry in the side-file for I4, logical undo in I3.
  uint64_t sf_before = ib4.side_file->entries_appended();
  ASSERT_OK(engine_->Rollback(t1));
  EXPECT_EQ(ib4.side_file->entries_appended(), sf_before + 2);

  BTree* t3 = engine_->catalog()->index(i3);
  ASSERT_OK_AND_ASSIGN(auto look, t3->Lookup(Key("zzzzNEWKEY03"), rids[10]));
  EXPECT_FALSE(look.found);
  ASSERT_OK_AND_ASSIGN(look,
                       t3->Lookup(Key(Workload::MakeKey(10, 12)), rids[10]));
  EXPECT_TRUE(look.found);
  ExpectIndexConsistent(table, i3);
}

TEST_F(Figure2Test, VisibleForwardVisibleRollbackBothEntriesAppended) {
  // Equal counts (visible at both times): the rollback still appends the
  // inverse — the forward entry alone would re-apply the change.
  TableId table = MakeTable();
  auto rids = Populate(table, 50);
  auto desc = engine_->catalog()->CreateIndex("i", table, false, {0},
                                              BuildAlgo::kSf);
  ASSERT_TRUE(desc.ok());
  ASSERT_OK_AND_ASSIGN(
      auto build,
      engine_->catalog()->BeginBuild(table, BuildAlgo::kSf, {desc->id}));
  const IndexRef& ib = build->indexes[0];
  build->SetCurrentRid(Rid::Infinity());

  Transaction* t1 = engine_->Begin();
  ASSERT_OK(engine_->records()->DeleteRecord(t1, table, rids[5]));
  EXPECT_EQ(ib.side_file->entries_appended(), 1u);  // forward delete entry
  ASSERT_OK(engine_->Rollback(t1));
  EXPECT_EQ(ib.side_file->entries_appended(), 2u);  // inverse insert entry
  SideFile::Cursor cursor = ib.side_file->Begin();
  std::vector<SideFile::Entry> entries;
  ASSERT_OK(ib.side_file->ReadBatch(&cursor, 10, &entries).status());
  EXPECT_EQ(entries[0].op, SideFileOp::kDeleteKey);
  EXPECT_EQ(entries[1].op, SideFileOp::kInsertKey);
  EXPECT_EQ(entries[1].key, Key(Workload::MakeKey(5, 12)));
}

}  // namespace
}  // namespace oib
