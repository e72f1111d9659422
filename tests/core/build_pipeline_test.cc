// Tests for the shared parallel BuildPipeline: partition planning,
// plan codec round-trips, the overlapped merge->consumer queue, and —
// most importantly — that parallel builds (build_threads > 1) produce an
// index with content identical to the single-threaded build, for every
// builder, unique and non-unique, quiet and under concurrent updates,
// and across crash/Resume at per-partition checkpoints.

#include "core/build_pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <thread>

#include "btree/tree_verifier.h"
#include "core/index_builder.h"
#include "sort/external_sorter.h"
#include "tests/test_util.h"

namespace oib {
namespace {

TEST(ScanPlanCodecTest, RoundTrip) {
  ScanPlan plan;
  plan.stop_page = 17;
  ScanPartition a;
  a.next = 3;
  a.bound = 9;
  a.sorter_blobs = {"blob-a0", "blob-a1"};
  ScanPartition b;
  b.next = 9;
  b.bound = kInvalidPageId;
  plan.parts = {a, b};

  ScanPlan decoded;
  ASSERT_OK(DecodeScanPlan(EncodeScanPlan(plan), &decoded));
  EXPECT_EQ(decoded.stop_page, 17u);
  ASSERT_EQ(decoded.parts.size(), 2u);
  EXPECT_EQ(decoded.parts[0].next, 3u);
  EXPECT_EQ(decoded.parts[0].bound, 9u);
  EXPECT_EQ(decoded.parts[0].sorter_blobs,
            (std::vector<std::string>{"blob-a0", "blob-a1"}));
  EXPECT_EQ(decoded.parts[1].next, 9u);
  EXPECT_EQ(decoded.parts[1].bound, kInvalidPageId);
  EXPECT_TRUE(decoded.parts[1].sorter_blobs.empty());
}

TEST(ScanPlanCodecTest, RejectsGarbage) {
  ScanPlan plan;
  EXPECT_FALSE(DecodeScanPlan("not a plan", &plan).ok());
}

class BuildPipelineTest : public EngineTest {
 protected:
  BuildParams Params(TableId table, bool unique = false,
                     const std::string& name = "idx") {
    BuildParams p;
    p.name = name;
    p.table = table;
    p.unique = unique;
    p.key_cols = {0};
    return p;
  }

  // Collects the full leaf-order content stream of an index.
  std::vector<std::tuple<std::string, uint64_t, uint8_t>> IndexContent(
      IndexId id) {
    std::vector<std::tuple<std::string, uint64_t, uint8_t>> out;
    BTree* tree = engine_->catalog()->index(id);
    EXPECT_NE(tree, nullptr);
    if (tree != nullptr) {
      EXPECT_OK(tree->ScanAll(
          [&](std::string_view key, const Rid& rid, uint8_t flags) {
            out.emplace_back(std::string(key), PackRid(rid), flags);
          }));
    }
    return out;
  }

  void ExpectTreeSound(IndexId id) {
    BTree* tree = engine_->catalog()->index(id);
    ASSERT_NE(tree, nullptr);
    TreeVerifier verifier(tree, engine_->pool());
    auto report = verifier.Check();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->ok) << report->error;
  }
};

TEST_F(BuildPipelineTest, PlanPartitioningIsDeterministicAndCovers) {
  TableId table = MakeTable();
  Populate(table, 3000);
  HeapFile* heap = engine_->catalog()->table(table);

  ASSERT_OK_AND_ASSIGN(auto pages, heap->ChainPages());
  ASSERT_GT(pages.size(), 4u);

  ASSERT_OK_AND_ASSIGN(ScanPlan p4, PlanPartitionedScan(heap, kInvalidPageId, 4));
  ASSERT_OK_AND_ASSIGN(ScanPlan p4b, PlanPartitionedScan(heap, kInvalidPageId, 4));
  EXPECT_EQ(EncodeScanPlan(p4), EncodeScanPlan(p4b));  // deterministic

  ASSERT_EQ(p4.parts.size(), 4u);
  // Partitions tile the chain: first starts at the head, each bound is the
  // next partition's start, last is unbounded.
  EXPECT_EQ(p4.parts[0].next, heap->first_page());
  for (size_t k = 0; k + 1 < p4.parts.size(); ++k) {
    EXPECT_EQ(p4.parts[k].bound, p4.parts[k + 1].next);
  }
  EXPECT_EQ(p4.parts.back().bound, kInvalidPageId);

  // More threads than pages clamps to one partition per page.
  ASSERT_OK_AND_ASSIGN(ScanPlan big,
                       PlanPartitionedScan(heap, kInvalidPageId, 10000));
  EXPECT_EQ(big.parts.size(), pages.size());

  // threads=1 degenerates to the whole chain.
  ASSERT_OK_AND_ASSIGN(ScanPlan p1, PlanPartitionedScan(heap, kInvalidPageId, 1));
  ASSERT_EQ(p1.parts.size(), 1u);
  EXPECT_EQ(p1.parts[0].next, heap->first_page());
  EXPECT_EQ(p1.parts[0].bound, kInvalidPageId);
}

TEST_F(BuildPipelineTest, MergeToConsumerOverlappedDeliversAllInOrder) {
  // Feed an ExternalSorter through one run writer and drain it through
  // the overlapped queue; every item must arrive exactly once, in sorted
  // order, with monotone counters snapshots.
  ExternalSorter sorter(engine_->runs(), &engine_->options());
  ASSERT_OK(sorter.CreateWriters(1));
  const int kItems = 10000;
  for (int i = 0; i < kItems; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%08d", (i * 7919) % kItems);
    ASSERT_OK(sorter.writer(0)->Add(std::string_view(buf),
                                    Rid(1 + i / 100, i % 100)));
  }
  ASSERT_OK(sorter.FinishWriters());
  ASSERT_OK(sorter.PrepareMerge());
  ASSERT_OK_AND_ASSIGN(auto cursor, sorter.OpenMerge());

  std::vector<std::string> seen;
  size_t batches = 0;
  std::vector<uint64_t> last_counters;
  auto consume = [&](const BuildPipeline::Batch& b) -> Status {
    ++batches;
    EXPECT_LE(b.items.size(), BuildPipeline::kMergeBatchKeys);
    uint64_t before = 0, after = 0;
    for (uint64_t c : last_counters) before += c;
    for (uint64_t c : b.counters) after += c;
    EXPECT_EQ(after, before + b.items.size());
    last_counters = b.counters;
    for (const SortItem& item : b.items) seen.push_back(item.key.bytes());
    return Status::OK();
  };
  BuildPipeline::MergeStats stats;
  ASSERT_OK(BuildPipeline::MergeToConsumer(cursor.get(), /*overlapped=*/true,
                                           consume, &stats));
  ASSERT_EQ(seen.size(), static_cast<size_t>(kItems));
  EXPECT_GE(batches, static_cast<size_t>(kItems) /
                         BuildPipeline::kMergeBatchKeys);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_GT(stats.merge_busy_ms, 0.0);
  EXPECT_GT(stats.consume_busy_ms, 0.0);
}

TEST_F(BuildPipelineTest, MergeToConsumerPropagatesConsumerError) {
  ExternalSorter sorter(engine_->runs(), &engine_->options());
  ASSERT_OK(sorter.CreateWriters(1));
  for (int i = 0; i < 5000; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%08d", i);
    ASSERT_OK(sorter.writer(0)->Add(std::string_view(buf), Rid(1, i % 100)));
  }
  ASSERT_OK(sorter.FinishWriters());
  ASSERT_OK(sorter.PrepareMerge());
  ASSERT_OK_AND_ASSIGN(auto cursor, sorter.OpenMerge());
  size_t consumed = 0;
  auto consume = [&](const BuildPipeline::Batch& b) -> Status {
    consumed += b.items.size();
    if (consumed >= 2000) return Status::IoError("consumer boom");
    return Status::OK();
  };
  Status s = BuildPipeline::MergeToConsumer(cursor.get(), /*overlapped=*/true,
                                            consume, nullptr);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("consumer boom"), std::string::npos);
  EXPECT_LT(consumed, 5000u);
}

// ---- parallel == sequential, quiet table ----

class QuietThreadSweepTest
    : public BuildPipelineTest,
      public ::testing::WithParamInterface<std::tuple<BuildAlgo, size_t>> {};

TEST_P(QuietThreadSweepTest, ParallelBuildMatchesSequential) {
  auto [algo, threads] = GetParam();
  // Build the reference index single-threaded, the candidate with N
  // threads, over the same table; content streams must be identical.
  TableId table = MakeTable();
  Populate(table, 4000);

  options_.build_threads = 1;
  ReopenWithOptions();
  IndexId ref_id = 0;
  {
    BuildParams p = Params(table, false, "ref");
    if (algo == BuildAlgo::kOffline) {
      OfflineIndexBuilder b(engine_.get());
      ASSERT_OK(b.Build(p, &ref_id));
    } else if (algo == BuildAlgo::kNsf) {
      NsfIndexBuilder b(engine_.get());
      ASSERT_OK(b.Build(p, &ref_id));
    } else {
      SfIndexBuilder b(engine_.get());
      ASSERT_OK(b.Build(p, &ref_id));
    }
  }
  auto ref = IndexContent(ref_id);
  ASSERT_EQ(ref.size(), 4000u);

  options_.build_threads = threads;
  ReopenWithOptions();
  IndexId par_id = 0;
  BuildStats stats;
  {
    BuildParams p = Params(table, false, "par");
    if (algo == BuildAlgo::kOffline) {
      OfflineIndexBuilder b(engine_.get());
      ASSERT_OK(b.Build(p, &par_id, &stats));
    } else if (algo == BuildAlgo::kNsf) {
      NsfIndexBuilder b(engine_.get());
      ASSERT_OK(b.Build(p, &par_id, &stats));
    } else {
      SfIndexBuilder b(engine_.get());
      ASSERT_OK(b.Build(p, &par_id, &stats));
    }
  }
  EXPECT_EQ(stats.keys_extracted, 4000u);
  EXPECT_EQ(IndexContent(par_id), ref);
  ExpectTreeSound(par_id);
  ExpectIndexConsistent(table, par_id);
  EXPECT_GT(stats.elapsed_ms, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Algos, QuietThreadSweepTest,
    ::testing::Combine(::testing::Values(BuildAlgo::kOffline, BuildAlgo::kNsf,
                                         BuildAlgo::kSf),
                       ::testing::Values(2u, 8u)),
    [](const auto& info) {
      BuildAlgo algo = std::get<0>(info.param);
      std::string name = algo == BuildAlgo::kOffline ? "offline"
                         : algo == BuildAlgo::kNsf   ? "nsf"
                                                     : "sf";
      return name + "_t" + std::to_string(std::get<1>(info.param));
    });

// ---- the sorted stream's unique check ----

// One duplicate pair whose two keys straddle the first merge-batch
// boundary (sorted positions kMergeBatchKeys - 1 and kMergeBatchKeys),
// with one record on the first heap page and one on the last, so a
// two-way scan also puts them in different partitions.  Every builder
// must find the pair, return UniqueViolation and leave nothing behind.
class StreamUniqueSweepTest
    : public BuildPipelineTest,
      public ::testing::WithParamInterface<std::tuple<BuildAlgo, size_t>> {};

TEST_P(StreamUniqueSweepTest, DuplicateAcrossBatchAndPartitionAborts) {
  auto [algo, threads] = GetParam();
  TableId table = MakeTable();
  const uint64_t dup = BuildPipeline::kMergeBatchKeys - 1;
  auto key = [](uint64_t i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%06llu",
                  static_cast<unsigned long long>(i));
    return std::string(buf);
  };
  Transaction* txn = engine_->Begin();
  auto insert = [&](uint64_t i, const std::string& payload) {
    auto rid = engine_->records()->InsertRecord(
        txn, table, Schema::EncodeRecord({key(i), payload}));
    EXPECT_TRUE(rid.ok()) << rid.status().ToString();
    return rid.ok() ? *rid : Rid();
  };
  Rid first = insert(dup, "first");
  for (uint64_t i = 0; i < 2 * BuildPipeline::kMergeBatchKeys; ++i) {
    if (i != dup) insert(i, "row");
  }
  Rid last = insert(dup, "last");
  ASSERT_OK(engine_->Commit(txn));

  options_.build_threads = threads;
  ReopenWithOptions();
  ASSERT_OK_AND_ASSIGN(
      ScanPlan halves,
      PlanPartitionedScan(engine_->catalog()->table(table), kInvalidPageId, 2));
  ASSERT_EQ(halves.parts.size(), 2u);
  ASSERT_LT(first.page, halves.parts[1].next);
  ASSERT_GE(last.page, halves.parts[1].next);

  BuildParams p = Params(table, /*unique=*/true);
  IndexId index = kInvalidIndexId;
  Status s;
  if (algo == BuildAlgo::kOffline) {
    s = OfflineIndexBuilder(engine_.get()).Build(p, &index);
  } else if (algo == BuildAlgo::kNsf) {
    s = NsfIndexBuilder(engine_.get()).Build(p, &index);
  } else {
    s = SfIndexBuilder(engine_.get()).Build(p, &index);
  }
  EXPECT_TRUE(s.IsUniqueViolation()) << s.ToString();
  EXPECT_TRUE(engine_->catalog()->IndexesOf(table).empty());
  EXPECT_TRUE(LoadBuildMeta(engine_.get(), table).status().IsNotFound());
}

INSTANTIATE_TEST_SUITE_P(
    Algos, StreamUniqueSweepTest,
    ::testing::Combine(::testing::Values(BuildAlgo::kOffline, BuildAlgo::kNsf,
                                         BuildAlgo::kSf),
                       ::testing::Values(1u, 2u)),
    [](const auto& info) {
      BuildAlgo algo = std::get<0>(info.param);
      std::string name = algo == BuildAlgo::kOffline ? "offline"
                         : algo == BuildAlgo::kNsf   ? "nsf"
                                                     : "sf";
      return name + "_t" + std::to_string(std::get<1>(info.param));
    });

// ---- parallel builds under a concurrent workload ----

// gtest prints a param that has no PrintTo as its raw bytes, and ctest
// takes that print into the test name. The padding is therefore spelled
// out and zeroed, so the names do not change from one build to the next.
struct WorkloadSweepParam {
  BuildAlgo algo;
  uint8_t pad0[7] = {};
  size_t threads;
  bool unique;
  uint8_t pad1[7] = {};
};
static_assert(sizeof(WorkloadSweepParam) == 24);

class WorkloadThreadSweepTest
    : public BuildPipelineTest,
      public ::testing::WithParamInterface<WorkloadSweepParam> {};

TEST_P(WorkloadThreadSweepTest, BuildStaysConsistent) {
  const WorkloadSweepParam& param = GetParam();
  TableId table = MakeTable();
  auto rids = Populate(table, 2000);
  options_.build_threads = param.threads;
  ReopenWithOptions();

  WorkloadOptions wo;
  wo.threads = 2;
  wo.update_changes_key = 1.0;
  Workload workload(engine_.get(), table, wo);
  workload.Seed(rids, 2000);
  workload.Start();
  WaitForOps(&workload, 1);

  IndexId index = 0;
  Status s;
  if (param.algo == BuildAlgo::kNsf) {
    NsfIndexBuilder builder(engine_.get());
    s = builder.Build(Params(table, param.unique), &index);
  } else {
    SfIndexBuilder builder(engine_.get());
    s = builder.Build(Params(table, param.unique), &index);
  }
  WorkloadStats mid = workload.Stop();
  // Workload keys are unique by construction, so even unique builds
  // succeed; any UniqueViolation here is a pipeline bug.
  ASSERT_OK(s);
  EXPECT_GT(mid.ops(), 0u);
  ExpectTreeSound(index);
  ExpectIndexConsistent(table, index);
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, WorkloadThreadSweepTest,
    ::testing::Values(
        WorkloadSweepParam{.algo = BuildAlgo::kNsf, .threads = 1, .unique = false},
        WorkloadSweepParam{.algo = BuildAlgo::kNsf, .threads = 2, .unique = false},
        WorkloadSweepParam{.algo = BuildAlgo::kNsf, .threads = 8, .unique = true},
        WorkloadSweepParam{.algo = BuildAlgo::kSf, .threads = 1, .unique = false},
        WorkloadSweepParam{.algo = BuildAlgo::kSf, .threads = 2, .unique = true},
        WorkloadSweepParam{.algo = BuildAlgo::kSf, .threads = 8, .unique = false}),
    [](const auto& info) {
      const WorkloadSweepParam& p = info.param;
      return std::string(p.algo == BuildAlgo::kNsf ? "nsf" : "sf") + "_t" +
             std::to_string(p.threads) + (p.unique ? "_unique" : "");
    });

// ---- crash / Resume at per-partition checkpoints ----

TEST_F(BuildPipelineTest, NsfParallelCrashDuringScanResumes) {
  TableId table = MakeTable();
  Populate(table, 3000);
  options_.build_threads = 4;
  options_.sort_checkpoint_every_keys = 200;
  ReopenWithOptions();

  FailPointRegistry::Instance().Arm("nsf.scan", 12);
  NsfIndexBuilder builder(engine_.get());
  IndexId index;
  Status s = builder.Build(Params(table), &index);
  ASSERT_TRUE(s.IsInjected()) << s.ToString();

  CrashAndRestart();
  NsfIndexBuilder resumed(engine_.get());
  BuildStats stats;
  ASSERT_OK(resumed.Resume(table, &index, &stats));
  ExpectTreeSound(index);
  ExpectIndexConsistent(table, index);
}

TEST_F(BuildPipelineTest, SfParallelCrashDuringScanResumes) {
  TableId table = MakeTable();
  auto rids = Populate(table, 3000);
  options_.build_threads = 4;
  options_.sort_checkpoint_every_keys = 200;
  ReopenWithOptions();

  WorkloadOptions wo;
  wo.threads = 2;
  wo.update_changes_key = 1.0;
  Workload workload(engine_.get(), table, wo);
  workload.Seed(rids, 3000);
  workload.Start();
  WaitForOps(&workload, 1);
  FailPointRegistry::Instance().Arm("sf.scan", 12);
  SfIndexBuilder builder(engine_.get());
  IndexId index;
  Status s = builder.Build(Params(table), &index);
  workload.Stop();
  ASSERT_TRUE(s.IsInjected()) << s.ToString();

  CrashAndRestart();
  // The resumed build must honor the *saved* 4-partition plan even if the
  // engine now runs with a different thread count.
  options_.build_threads = 1;
  ReopenWithOptions();
  SfIndexBuilder resumed(engine_.get());
  BuildStats stats;
  ASSERT_OK(resumed.Resume(table, &stats));
  auto descs = engine_->catalog()->IndexesOf(table);
  ASSERT_EQ(descs.size(), 1u);
  ExpectTreeSound(descs[0].id);
  ExpectIndexConsistent(table, descs[0].id);
}

TEST_F(BuildPipelineTest, SfParallelCrashDuringLoadResumes) {
  TableId table = MakeTable();
  Populate(table, 3000);
  options_.build_threads = 4;
  options_.ib_checkpoint_every_keys = 500;
  ReopenWithOptions();

  FailPointRegistry::Instance().Arm("sf.load", 1500);
  SfIndexBuilder builder(engine_.get());
  IndexId index;
  Status s = builder.Build(Params(table), &index);
  ASSERT_TRUE(s.IsInjected()) << s.ToString();

  CrashAndRestart();
  SfIndexBuilder resumed(engine_.get());
  BuildStats stats;
  ASSERT_OK(resumed.Resume(table, &stats));
  auto descs = engine_->catalog()->IndexesOf(table);
  ASSERT_EQ(descs.size(), 1u);
  ExpectTreeSound(descs[0].id);
  ExpectIndexConsistent(table, descs[0].id);
}

TEST_F(BuildPipelineTest, ParallelScanTakesPerPartitionCheckpoints) {
  TableId table = MakeTable();
  Populate(table, 4000);
  options_.build_threads = 4;
  options_.sort_checkpoint_every_keys = 200;
  ReopenWithOptions();

  SfIndexBuilder builder(engine_.get());
  IndexId index;
  BuildStats stats;
  ASSERT_OK(builder.Build(Params(table), &index, &stats));
  // 4 workers x ~1000 keys each at a 200-key cadence: several checkpoints
  // must have been persisted during the scan alone.
  EXPECT_GE(stats.checkpoints, 4u);
  ExpectIndexConsistent(table, index);
}

}  // namespace
}  // namespace oib
