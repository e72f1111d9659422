#include "core/catalog.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace oib {
namespace {

class CatalogTest : public EngineTest {};

TEST_F(CatalogTest, DuplicateNamesRejected) {
  TableId t = MakeTable("dup");
  EXPECT_TRUE(
      engine_->catalog()->CreateTable("dup").status().IsInvalidArgument());
  auto i1 = engine_->catalog()->CreateIndex("i", t, false, {0},
                                            BuildAlgo::kOffline);
  ASSERT_TRUE(i1.ok());
  EXPECT_TRUE(engine_->catalog()
                  ->CreateIndex("i", t, false, {0}, BuildAlgo::kOffline)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(CatalogTest, IndexOnMissingTableRejected) {
  EXPECT_TRUE(engine_->catalog()
                  ->CreateIndex("i", 999, false, {0}, BuildAlgo::kOffline)
                  .status()
                  .IsNotFound());
}

TEST_F(CatalogTest, CreationOrderPreservedAcrossRestart) {
  TableId t = MakeTable();
  std::vector<IndexId> ids;
  for (int i = 0; i < 4; ++i) {
    auto d = engine_->catalog()->CreateIndex("i" + std::to_string(i), t,
                                             false, {0}, BuildAlgo::kOffline);
    ASSERT_TRUE(d.ok());
    ids.push_back(d->id);
  }
  CrashAndRestart();
  auto descs = engine_->catalog()->IndexesOf(t);
  ASSERT_EQ(descs.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(descs[i].id, ids[i]);  // the count-prefix order
    EXPECT_EQ(descs[i].name, "i" + std::to_string(i));
  }
}

TEST_F(CatalogTest, SfIndexGetsSideFile) {
  TableId t = MakeTable();
  auto d = engine_->catalog()->CreateIndex("sf", t, false, {0},
                                           BuildAlgo::kSf);
  ASSERT_TRUE(d.ok());
  EXPECT_NE(d->side_file_first, kInvalidPageId);
  EXPECT_NE(engine_->catalog()->side_file(d->id), nullptr);

  auto d2 = engine_->catalog()->CreateIndex("nsf", t, false, {0},
                                            BuildAlgo::kNsf);
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(d2->side_file_first, kInvalidPageId);
  EXPECT_EQ(engine_->catalog()->side_file(d2->id), nullptr);
}

TEST_F(CatalogTest, DropIndexRemovesFromOrder) {
  TableId t = MakeTable();
  auto a = engine_->catalog()->CreateIndex("a", t, false, {0},
                                           BuildAlgo::kOffline);
  auto b = engine_->catalog()->CreateIndex("b", t, false, {0},
                                           BuildAlgo::kOffline);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_OK(engine_->catalog()->DropIndex(a->id));
  auto descs = engine_->catalog()->IndexesOf(t);
  ASSERT_EQ(descs.size(), 1u);
  EXPECT_EQ(descs[0].id, b->id);
  EXPECT_EQ(engine_->catalog()->index(a->id), nullptr);
}

TEST_F(CatalogTest, StateTransitionsPersist) {
  TableId t = MakeTable();
  auto d = engine_->catalog()->CreateIndex("i", t, false, {0},
                                           BuildAlgo::kSf);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->state, IndexState::kBuilding);
  ASSERT_OK(engine_->catalog()->BeginBuild(t, BuildAlgo::kSf, {d->id}).status());
  ASSERT_OK(engine_->catalog()->FinishBuild(t));
  CrashAndRestart();
  ASSERT_OK_AND_ASSIGN(auto desc, engine_->catalog()->descriptor(d->id));
  EXPECT_EQ(desc.state, IndexState::kReady);
}

}  // namespace
}  // namespace oib
