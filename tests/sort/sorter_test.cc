#include "sort/external_sorter.h"

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>

#include "common/failpoint.h"
#include "common/random.h"

namespace oib {
namespace {

Options SmallOptions() {
  Options o;
  o.sort_workspace_keys = 64;
  o.sort_merge_fanin = 4;
  return o;
}

// A sorter fed through one RunWriter, as a one-partition scan feeds it.
ExternalSorter::RunWriter* OneWriter(ExternalSorter* sorter) {
  EXPECT_TRUE(sorter->CreateWriters(1).ok());
  return sorter->writer(0);
}

std::vector<SortItem> DrainMerge(ExternalSorter* sorter) {
  auto cursor = sorter->OpenMerge();
  EXPECT_TRUE(cursor.ok());
  std::vector<SortItem> out;
  SortItem item;
  for (;;) {
    auto more = (*cursor)->Next(&item);
    EXPECT_TRUE(more.ok());
    if (!*more) break;
    out.push_back(item);
  }
  return out;
}

TEST(TournamentTreeTest, SelectsMinimum) {
  std::vector<int> values = {5, 1, 7, 3};
  LoserTree tree(4, [&](size_t a, size_t b) {
    return values[a] < values[b];
  });
  tree.Init();
  EXPECT_EQ(tree.Winner(), 1u);
  values[1] = 100;
  tree.Update(1);
  EXPECT_EQ(tree.Winner(), 3u);
}

TEST(TournamentTreeTest, NonPowerOfTwo) {
  std::vector<int> values = {9, 2, 8, 4, 6};
  std::vector<bool> valid(8, false);
  for (size_t i = 0; i < values.size(); ++i) valid[i] = true;
  values.resize(8, 0);
  LoserTree tree(5, [&](size_t a, size_t b) {
    if (!valid[a]) return false;
    if (!valid[b]) return true;
    return values[a] < values[b];
  });
  tree.Init();
  EXPECT_EQ(tree.Winner(), 1u);
  valid[1] = false;
  tree.Update(1);
  EXPECT_EQ(tree.Winner(), 3u);
}

class SorterTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SorterTest, SortsAgainstOracle) {
  size_t n = GetParam();
  Options options = SmallOptions();
  RunStore store;
  ExternalSorter sorter(&store, &options);
  ExternalSorter::RunWriter* writer = OneWriter(&sorter);
  Random rng(n + 1);

  std::vector<SortItem> expected;
  for (size_t i = 0; i < n; ++i) {
    SortItem item;
    item.key.Assign(rng.NextString(8));
    item.rid = Rid(static_cast<PageId>(rng.Uniform(1000)),
                   static_cast<SlotId>(rng.Uniform(100)));
    expected.push_back(item);
    ASSERT_TRUE(writer->Add(item.key, item.rid).ok());
  }
  ASSERT_TRUE(sorter.FinishWriters().ok());
  ASSERT_TRUE(sorter.PrepareMerge().ok());
  std::stable_sort(expected.begin(), expected.end(),
                   [](const SortItem& a, const SortItem& b) {
                     return CompareSortItem(a, b) < 0;
                   });
  std::vector<SortItem> got = DrainMerge(&sorter);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, expected[i].key) << "at " << i;
    EXPECT_EQ(got[i].rid, expected[i].rid) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SorterTest,
                         ::testing::Values(0, 1, 10, 63, 64, 65, 500, 5000));

TEST(SorterTest, ReplacementSelectionMakesLongRuns) {
  // On random input, replacement selection produces runs ~2x workspace.
  Options options = SmallOptions();
  RunStore store;
  ExternalSorter sorter(&store, &options);
  ExternalSorter::RunWriter* writer = OneWriter(&sorter);
  Random rng(3);
  const size_t n = 2000;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(writer->Add(rng.NextString(8), Rid(1, 0)).ok());
  }
  ASSERT_TRUE(sorter.FinishWriters().ok());
  size_t runs = sorter.runs().size();
  // Naive quicksort-runs would need n / 64 ~= 31 runs; replacement
  // selection should roughly halve that.
  EXPECT_LT(runs, 25u);
  EXPECT_GE(runs, 1u);
}

TEST(SorterTest, SortedInputYieldsSingleRun) {
  Options options = SmallOptions();
  RunStore store;
  ExternalSorter sorter(&store, &options);
  ExternalSorter::RunWriter* writer = OneWriter(&sorter);
  for (int i = 0; i < 1000; ++i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "%08d", i);
    ASSERT_TRUE(writer->Add(std::string_view(buf), Rid(1, 0)).ok());
  }
  ASSERT_TRUE(sorter.FinishWriters().ok());
  EXPECT_EQ(sorter.runs().size(), 1u);
}

TEST(SorterTest, PreMergeReducesRunCountUnderFanin) {
  Options options = SmallOptions();  // fanin 4
  options.sort_workspace_keys = 8;
  RunStore store;
  ExternalSorter sorter(&store, &options);
  ExternalSorter::RunWriter* writer = OneWriter(&sorter);
  Random rng(17);
  std::vector<std::string> keys;
  for (int i = 0; i < 2000; ++i) {
    std::string k = rng.NextString(8);
    keys.push_back(k);
    ASSERT_TRUE(writer->Add(k, Rid(1, 0)).ok());
  }
  ASSERT_TRUE(sorter.FinishWriters().ok());
  ASSERT_GT(sorter.runs().size(), 4u);
  ASSERT_TRUE(sorter.PrepareMerge().ok());
  EXPECT_LE(sorter.runs().size(), 4u);
  std::vector<SortItem> got = DrainMerge(&sorter);
  EXPECT_EQ(got.size(), keys.size());
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end(),
                             [](const SortItem& a, const SortItem& b) {
                               return CompareSortItem(a, b) < 0;
                             }));
}

// ---- Restartable sort (paper section 5.1) ----

TEST(RestartableSortTest, SortPhaseCheckpointAndResume) {
  Options options = SmallOptions();
  RunStore store;
  Random rng(11);
  const size_t n = 1000;
  std::vector<SortItem> all;
  for (size_t i = 0; i < n; ++i) {
    SortItem item;
    item.key.Assign(rng.NextString(8));
    item.rid = Rid(static_cast<PageId>(i), 0);
    all.push_back(item);
  }

  ExternalSorter sorter(&store, &options);
  ExternalSorter::RunWriter* writer = OneWriter(&sorter);
  // Feed half, checkpoint, feed a bit more (lost in the crash), crash,
  // resume, re-feed from the checkpoint.
  size_t half = n / 2;
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(writer->Add(all[i].key, all[i].rid).ok());
  }
  auto blob = writer->Checkpoint();
  ASSERT_TRUE(blob.ok());
  for (size_t i = half; i < half + 200; ++i) {
    ASSERT_TRUE(writer->Add(all[i].key, all[i].rid).ok());
  }
  // Crash: unflushed run tails vanish.
  store.DropUnflushed();

  ExternalSorter resumed(&store, &options);
  ExternalSorter::RunWriter* resumed_writer = OneWriter(&resumed);
  ASSERT_TRUE(resumed_writer->Resume(*blob).ok());
  for (size_t i = half; i < n; ++i) {
    ASSERT_TRUE(resumed_writer->Add(all[i].key, all[i].rid).ok());
  }
  ASSERT_TRUE(resumed.FinishWriters().ok());
  ASSERT_TRUE(resumed.PrepareMerge().ok());
  // The adopted run list checkpoints and resumes as one unit too.
  auto list_blob = resumed.CheckpointSortPhase();
  ASSERT_TRUE(list_blob.ok());
  ExternalSorter merged(&store, &options);
  ASSERT_TRUE(merged.ResumeSortPhase(*list_blob).ok());
  EXPECT_EQ(merged.runs(), resumed.runs());
  std::vector<SortItem> got = DrainMerge(&merged);

  std::stable_sort(all.begin(), all.end(),
                   [](const SortItem& a, const SortItem& b) {
                     return CompareSortItem(a, b) < 0;
                   });
  ASSERT_EQ(got.size(), all.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, all[i].key) << i;
    EXPECT_EQ(got[i].rid, all[i].rid) << i;
  }
}

TEST(RestartableSortTest, ResumeAppendsToSameStreamWhenOrdered) {
  // Section 5.1: after restart, if the first new key is >= the
  // checkpointed highest output, the same stream continues.
  Options options = SmallOptions();
  RunStore store;
  ExternalSorter sorter(&store, &options);
  ExternalSorter::RunWriter* writer = OneWriter(&sorter);
  for (int i = 0; i < 200; ++i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "%08d", i);
    ASSERT_TRUE(writer->Add(std::string_view(buf), Rid(1, 0)).ok());
  }
  auto blob = writer->Checkpoint();
  ASSERT_TRUE(blob.ok());
  size_t runs_at_ckpt = writer->runs().size();
  store.DropUnflushed();

  ExternalSorter resumed(&store, &options);
  ExternalSorter::RunWriter* resumed_writer = OneWriter(&resumed);
  ASSERT_TRUE(resumed_writer->Resume(*blob).ok());
  for (int i = 200; i < 400; ++i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "%08d", i);
    ASSERT_TRUE(resumed_writer->Add(std::string_view(buf), Rid(1, 0)).ok());
  }
  ASSERT_TRUE(resumed.FinishWriters().ok());
  EXPECT_EQ(resumed.runs().size(), runs_at_ckpt);  // same stream continued
}

// ---- Restartable merge (paper section 5.2) ----

TEST(RestartableMergeTest, CountersResumeExactly) {
  Options options = SmallOptions();
  RunStore store;
  ExternalSorter sorter(&store, &options);
  ExternalSorter::RunWriter* writer = OneWriter(&sorter);
  Random rng(23);
  const size_t n = 800;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(
        writer->Add(rng.NextString(8), Rid(static_cast<PageId>(i), 0)).ok());
  }
  ASSERT_TRUE(sorter.FinishWriters().ok());
  ASSERT_TRUE(sorter.PrepareMerge().ok());

  // Reference output.
  std::vector<SortItem> expected = DrainMerge(&sorter);

  // Consume 300 items, checkpoint the counters, "crash", resume.
  auto cursor = sorter.OpenMerge();
  ASSERT_TRUE(cursor.ok());
  std::vector<SortItem> got;
  SortItem item;
  for (int i = 0; i < 300; ++i) {
    auto more = (*cursor)->Next(&item);
    ASSERT_TRUE(more.ok());
    ASSERT_TRUE(*more);
    got.push_back(item);
  }
  std::vector<uint64_t> counters = (*cursor)->counters();
  cursor->reset();

  auto resumed = sorter.OpenMerge(&counters);
  ASSERT_TRUE(resumed.ok());
  for (;;) {
    auto more = (*resumed)->Next(&item);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    got.push_back(item);
  }
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, expected[i].key) << i;
    EXPECT_EQ(got[i].rid, expected[i].rid) << i;
  }
}

TEST(RunStoreTest, TruncateAndItemCount) {
  RunStore store;
  RunId id = store.CreateRun();
  for (int i = 0; i < 10; ++i) {
    std::string key = "key" + std::to_string(i);
    ASSERT_TRUE(store.Append(id, key, Rid(1, 0)).ok());
  }
  auto count = store.ItemCount(id);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 10u);
  auto size = store.Size(id);
  ASSERT_TRUE(size.ok());
  // Truncate to 4 items' worth of bytes.  Prefix compression: the first
  // item stores "key0" in full (4 + 4 + 6 = 14); each later item shares
  // "key" and stores a 1-byte suffix (4 + 1 + 6 = 11).
  ASSERT_TRUE(store.Truncate(id, 14 + 3 * 11).ok());
  count = store.ItemCount(id);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 4u);
}

TEST(RunStoreTest, PrefixCompressionCountersAndRoundTrip) {
  RunStore store;
  RunId id = store.CreateRun();
  // Sorted, heavily shared keys: "item/0000".."item/0099".
  std::vector<std::string> keys;
  for (int i = 0; i < 100; ++i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "item/%04d", i);
    keys.emplace_back(buf);
    ASSERT_TRUE(
        store.Append(id, std::string_view(keys.back()), Rid(i, 0)).ok());
  }
  // raw = 100 * 9 submitted bytes.  stored = 9 for the first item plus
  // the unshared tail of each later key: the counters must show real
  // compression, and reading the run back must reconstruct every key.
  EXPECT_EQ(store.raw_key_bytes(), 900u);
  EXPECT_LT(store.stored_key_bytes(), store.raw_key_bytes() / 3);
  EXPECT_GE(store.stored_key_bytes(), 9u);
  RunReader reader(&store, id);
  SortItem item;
  for (int i = 0; i < 100; ++i) {
    auto more = reader.Read(&item);
    ASSERT_TRUE(more.ok());
    ASSERT_TRUE(*more);
    EXPECT_EQ(item.key.view(), keys[i]);
    EXPECT_EQ(item.rid, Rid(i, 0));
  }
  auto more = reader.Read(&item);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
}

TEST(RunStoreTest, DropUnflushedRespectsFlushBoundary) {
  RunStore store;
  RunId id = store.CreateRun();
  ASSERT_TRUE(store.Append(id, std::string_view("aaa"), Rid(1, 0)).ok());
  ASSERT_TRUE(store.Flush(id).ok());
  ASSERT_TRUE(store.Append(id, std::string_view("bbb"), Rid(2, 0)).ok());
  store.DropUnflushed();
  auto count = store.ItemCount(id);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 1u);
  RunReader reader(&store, id);
  SortItem item;
  auto more = reader.Read(&item);
  ASSERT_TRUE(more.ok());
  ASSERT_TRUE(*more);
  EXPECT_EQ(item.key.view(), "aaa");
}

// --- spill directory (AttachDir) ---

class RunStoreDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPointRegistry::Instance().Reset();
    dir_ = (std::filesystem::temp_directory_path() /
            ("oib_runstore_test_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    FailPointRegistry::Instance().Reset();
    std::filesystem::remove_all(dir_);
  }
  std::vector<std::string> ReadKeys(RunStore* store, RunId id) {
    std::vector<std::string> keys;
    RunReader reader(store, id);
    SortItem item;
    for (;;) {
      auto more = reader.Read(&item);
      EXPECT_TRUE(more.ok()) << more.status().ToString();
      if (!more.ok() || !*more) break;
      keys.emplace_back(item.key.view());
    }
    return keys;
  }
  std::string dir_;
};

TEST_F(RunStoreDirTest, DurablePrefixSurvivesReattach) {
  RunId id;
  {
    RunStore store;
    ASSERT_TRUE(store.AttachDir(dir_).ok());
    EXPECT_TRUE(store.has_dir());
    id = store.CreateRun();
    for (const char* k : {"aa", "ab", "ac"}) {
      ASSERT_TRUE(store.Append(id, std::string_view(k), Rid(1, 0)).ok());
    }
    ASSERT_TRUE(store.Flush(id).ok());
    // This tail is never flushed: it must not survive the "crash".
    ASSERT_TRUE(store.Append(id, std::string_view("ad"), Rid(2, 0)).ok());
  }
  RunStore store;
  ASSERT_TRUE(store.AttachDir(dir_).ok());
  EXPECT_EQ(store.run_count(), 1u);
  EXPECT_EQ(ReadKeys(&store, id),
            (std::vector<std::string>{"aa", "ab", "ac"}));
  // Run ids keep counting past the recovered ones.
  EXPECT_GT(store.CreateRun(), id);
}

TEST_F(RunStoreDirTest, RemoveUnlinksAndTruncateShrinksFile) {
  RunId keep, gone;
  {
    RunStore store;
    ASSERT_TRUE(store.AttachDir(dir_).ok());
    keep = store.CreateRun();
    gone = store.CreateRun();
    for (int i = 0; i < 10; ++i) {
      std::string key = "key" + std::to_string(i);
      ASSERT_TRUE(store.Append(keep, key, Rid(1, 0)).ok());
      ASSERT_TRUE(store.Append(gone, key, Rid(2, 0)).ok());
    }
    ASSERT_TRUE(store.Flush(keep).ok());
    ASSERT_TRUE(store.Flush(gone).ok());
    store.Remove(gone);
    // 4 items' worth: "key0" in full (14), then three 1-byte suffixes (11).
    ASSERT_TRUE(store.Truncate(keep, 14 + 3 * 11).ok());
  }
  RunStore store;
  ASSERT_TRUE(store.AttachDir(dir_).ok());
  EXPECT_EQ(store.run_count(), 1u);
  EXPECT_EQ(ReadKeys(&store, keep),
            (std::vector<std::string>{"key0", "key1", "key2", "key3"}));
  EXPECT_FALSE(store.Size(gone).ok());
}

TEST_F(RunStoreDirTest, SpillErrorHoldsDurableBoundary) {
  RunStore store;
  ASSERT_TRUE(store.AttachDir(dir_).ok());
  RunId id = store.CreateRun();
  ASSERT_TRUE(store.Append(id, std::string_view("aa"), Rid(1, 0)).ok());
  FailPointPolicy policy;
  policy.action = FailPointAction::kReturnError;
  policy.max_fires = -1;
  FailPointRegistry::Instance().ArmPolicy("runstore.flush", policy);
  EXPECT_TRUE(store.Flush(id).IsInjected());
  auto durable = store.DurableSize(id);
  ASSERT_TRUE(durable.ok());
  EXPECT_EQ(*durable, 0u);
  FailPointRegistry::Instance().Disarm("runstore.flush");
  ASSERT_TRUE(store.Flush(id).ok());
  durable = store.DurableSize(id);
  ASSERT_TRUE(durable.ok());
  EXPECT_GT(*durable, 0u);
}

TEST_F(RunStoreDirTest, ShortSpillIsRetriedAndRepaired) {
  {
    RunStore store;
    ASSERT_TRUE(store.AttachDir(dir_).ok());
    RunId id = store.CreateRun();
    ASSERT_TRUE(store.Append(id, std::string_view("whole"), Rid(1, 0)).ok());
    FailPointPolicy policy;
    policy.action = FailPointAction::kShortWrite;
    policy.arg = 2;  // only 2 bytes land on the first attempt
    FailPointRegistry::Instance().ArmPolicy("runstore.flush", policy);
    ASSERT_TRUE(store.Flush(id).ok());
    EXPECT_EQ(FailPointRegistry::Instance().fired_count("runstore.flush"), 1);
  }
  RunStore store;
  ASSERT_TRUE(store.AttachDir(dir_).ok());
  ASSERT_EQ(store.run_count(), 1u);
  EXPECT_EQ(ReadKeys(&store, 1), (std::vector<std::string>{"whole"}));
}

// A torn spill kills the process (torn-implies-death invariant); on
// reattach the item walk keeps the clean prefix and drops the scrambled
// tail.
TEST_F(RunStoreDirTest, TornSpillKillsProcessAndCleanPrefixSurvives) {
  RunId id;
  {
    RunStore store;
    ASSERT_TRUE(store.AttachDir(dir_).ok());
    id = store.CreateRun();
    ASSERT_TRUE(store.Append(id, std::string_view("aa"), Rid(1, 0)).ok());
    ASSERT_TRUE(store.Append(id, std::string_view("ab"), Rid(1, 1)).ok());
    ASSERT_TRUE(store.Flush(id).ok());
  }
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    RunStore store;
    if (!store.AttachDir(dir_).ok()) _exit(2);
    if (!store.Append(id, std::string_view("ac"), Rid(1, 2)).ok()) _exit(3);
    FailPointPolicy policy;
    policy.action = FailPointAction::kTornWrite;
    policy.arg = 0;  // scramble the whole appended tail
    FailPointRegistry::Instance().ArmPolicy("runstore.flush", policy);
    (void)store.Flush(id);
    _exit(4);  // unreachable if the failpoint fired
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  EXPECT_EQ(WTERMSIG(wstatus), SIGKILL);

  RunStore store;
  ASSERT_TRUE(store.AttachDir(dir_).ok());
  EXPECT_EQ(ReadKeys(&store, id), (std::vector<std::string>{"aa", "ab"}));
}

}  // namespace
}  // namespace oib
