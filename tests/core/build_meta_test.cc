#include <gtest/gtest.h>

#include "core/index_builder.h"
#include "tests/test_util.h"

namespace oib {
namespace {

TEST(BuildMetaCodecTest, RoundTrip) {
  BuildMeta meta;
  meta.algo = BuildAlgo::kSf;
  meta.indexes = {3, 7};
  meta.phase = 2;
  meta.current_rid = PackRid(Rid(55, 8));
  meta.fences = {{{100, PackRid(Rid(10, 0))}, {250, PackRid(Rid(40, 2))}},
                 {}};
  meta.phase_blob = "opaque-phase-state";

  BuildMeta out;
  ASSERT_TRUE(DecodeBuildMeta(EncodeBuildMeta(meta), &out).ok());
  EXPECT_EQ(out.algo, BuildAlgo::kSf);
  EXPECT_EQ(out.indexes, meta.indexes);
  EXPECT_EQ(out.phase, 2);
  EXPECT_EQ(out.current_rid, meta.current_rid);
  ASSERT_EQ(out.fences.size(), 2u);
  ASSERT_EQ(out.fences[0].size(), 2u);
  EXPECT_EQ(out.fences[0][1].before_ordinal, 250u);
  EXPECT_EQ(out.fences[0][1].rid_floor, PackRid(Rid(40, 2)));
  EXPECT_TRUE(out.fences[1].empty());
  EXPECT_EQ(out.phase_blob, "opaque-phase-state");
}

TEST(BuildMetaCodecTest, GarbageRejected) {
  BuildMeta out;
  EXPECT_TRUE(DecodeBuildMeta("xx", &out).IsCorruption());
}

TEST(PackRidTest, PreservesOrder) {
  std::vector<Rid> rids = {Rid::MinusInfinity(), Rid(0, 1), Rid(1, 0),
                           Rid(1, 5), Rid(2, 0), Rid(100, 65534),
                           Rid::Infinity()};
  for (size_t i = 1; i < rids.size(); ++i) {
    EXPECT_LT(PackRid(rids[i - 1]), PackRid(rids[i]))
        << rids[i - 1].ToString() << " vs " << rids[i].ToString();
    EXPECT_EQ(UnpackRid(PackRid(rids[i])), rids[i]);
  }
}

class BuildMetaPersistTest : public EngineTest {};

TEST_F(BuildMetaPersistTest, SaveLoadClear) {
  TableId t = MakeTable();
  BuildMeta meta;
  meta.algo = BuildAlgo::kNsf;
  meta.indexes = {1};
  meta.phase = 1;
  ASSERT_OK(SaveBuildMeta(engine_.get(), t, meta));
  ASSERT_OK_AND_ASSIGN(BuildMeta loaded, LoadBuildMeta(engine_.get(), t));
  EXPECT_EQ(loaded.algo, BuildAlgo::kNsf);
  ASSERT_OK(ClearBuildMeta(engine_.get(), t));
  EXPECT_TRUE(LoadBuildMeta(engine_.get(), t).status().IsNotFound());
}

TEST_F(BuildMetaPersistTest, ReattachAddsFenceForInterruptedSfBuild) {
  TableId t = MakeTable();
  Populate(t, 500);
  options_.sort_checkpoint_every_keys = 100;
  ReopenWithOptions();
  FailPointRegistry::Instance().Arm("sf.scan", 3);
  SfIndexBuilder builder(engine_.get());
  BuildParams p;
  p.name = "i";
  p.table = t;
  p.key_cols = {0};
  IndexId index;
  ASSERT_TRUE(builder.Build(p, &index).IsInjected());

  CrashAndRestart();
  // Reattach (run by Restart) must have added one fence per index.
  ASSERT_OK_AND_ASSIGN(BuildMeta meta, LoadBuildMeta(engine_.get(), t));
  ASSERT_EQ(meta.fences.size(), 1u);
  EXPECT_EQ(meta.fences[0].size(), 1u);
  // And the build is published so transactions keep maintaining it.
  EXPECT_NE(engine_->catalog()->view(t)->build, nullptr);
  SfIndexBuilder resumed(engine_.get());
  ASSERT_OK(resumed.Resume(t, nullptr));
}

}  // namespace
}  // namespace oib
