#include "core/workload.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "core/index_builder.h"
#include "tests/test_util.h"

namespace oib {
namespace {

class WorkloadTest : public EngineTest {};

TEST_F(WorkloadTest, MakeKeyFixedWidthOrdered) {
  EXPECT_EQ(Workload::MakeKey(0, 8), "00000000");
  EXPECT_EQ(Workload::MakeKey(42, 8), "00000042");
  EXPECT_LT(Workload::MakeKey(99, 8), Workload::MakeKey(100, 8));
}

TEST_F(WorkloadTest, PopulateCreatesDistinctOrderedRids) {
  TableId t = MakeTable();
  auto rids = Populate(t, 500);
  ASSERT_EQ(rids.size(), 500u);
  for (size_t i = 1; i < rids.size(); ++i) {
    EXPECT_LT(rids[i - 1], rids[i]);
  }
  uint64_t count = 0;
  ASSERT_OK(engine_->catalog()->table(t)->ForEach(
      [&](const Rid&, std::string_view) { ++count; }));
  EXPECT_EQ(count, 500u);
}

TEST_F(WorkloadTest, MixedRunKeepsTableAndShardConsistent) {
  TableId t = MakeTable();
  auto rids = Populate(t, 400);
  WorkloadOptions wo;
  wo.threads = 2;
  wo.rollback_pct = 0.1;
  Workload w(engine_.get(), t, wo);
  w.Seed(rids, 400);
  WorkloadStats stats;
  ASSERT_OK(w.Run(1500, &stats));
  EXPECT_GT(stats.commits, 0u);
  EXPECT_EQ(stats.rollback_errors, 0u);
  // Applied-op accounting: net live rows = 400 + inserts - deletes.
  uint64_t count = 0;
  ASSERT_OK(engine_->catalog()->table(t)->ForEach(
      [&](const Rid&, std::string_view) { ++count; }));
  EXPECT_EQ(count, 400u + stats.inserts - stats.deletes);
}

TEST_F(WorkloadTest, DeliberateRollbacksLeaveNoTrace) {
  TableId t = MakeTable();
  auto rids = Populate(t, 100);
  WorkloadOptions wo;
  wo.threads = 1;
  wo.rollback_pct = 1.0;  // every transaction rolls back
  Workload w(engine_.get(), t, wo);
  w.Seed(rids, 100);
  WorkloadStats stats;
  ASSERT_OK(w.Run(400, &stats));
  EXPECT_EQ(stats.commits, 0u);
  EXPECT_GT(stats.rollbacks, 0u);
  EXPECT_EQ(stats.rollback_errors, 0u);
  uint64_t count = 0;
  ASSERT_OK(engine_->catalog()->table(t)->ForEach(
      [&](const Rid&, std::string_view) { ++count; }));
  EXPECT_EQ(count, 100u);  // table unchanged
}

TEST(EngineOnFileDiskTest, FullBuildPipelineOnRealFiles) {
  // The whole engine + an online build, over the pread/pwrite-backed
  // page store.
  auto path = std::filesystem::temp_directory_path() /
              ("oib_engine_file_" + std::to_string(::getpid()));
  // FileDisk keeps its data, its meta and its double-write file there.
  auto remove_files = [&] {
    for (const char* suffix : {"", ".meta", ".dw"}) {
      std::filesystem::remove(path.string() + suffix);
    }
  };
  remove_files();

  Options options;
  Env env;
  {
    auto disk = FileDisk::Open(path.string(), options.page_size);
    ASSERT_TRUE(disk.ok()) << disk.status().ToString();
    env.disk = std::move(*disk);
  }
  auto engine = std::move(*Engine::Open(options, &env));
  TableId t = *engine->catalog()->CreateTable("t");
  WorkloadOptions wo;
  auto rids = Workload::Populate(engine.get(), t, 2000, wo);
  ASSERT_TRUE(rids.ok());

  SfIndexBuilder builder(engine.get());
  BuildParams p;
  p.name = "i";
  p.table = t;
  p.key_cols = {0};
  IndexId index;
  ASSERT_TRUE(builder.Build(p, &index).ok());
  IndexVerifier verifier(engine.get());
  auto report = verifier.Verify(t, index);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok) << report->error;
  remove_files();
}

}  // namespace
}  // namespace oib
