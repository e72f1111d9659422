#include "btree/btree.h"

#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "btree/tree_verifier.h"
#include "common/random.h"
#include "tests/test_util.h"

namespace oib {
namespace {

class BTreeTest : public EngineTest {
 protected:
  BTree* NewTree(bool unique = false) {
    table_ = MakeTable();
    auto desc = engine_->catalog()->CreateIndex("idx", table_, unique, {0},
                                                BuildAlgo::kOffline);
    EXPECT_TRUE(desc.ok()) << desc.status().ToString();
    index_ = desc->id;
    return engine_->catalog()->index(index_);
  }

  void ExpectStructurallySound(BTree* tree) {
    TreeVerifier tv(tree, engine_->pool());
    auto report = tv.Check();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->ok) << report->error;
  }

  static std::string Key(int i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "%08d", i);
    return buf;
  }

  // A table of `rows` records and an index an NSF build is creating on
  // it, published by hand as NsfIndexBuilder does after its quiesce, so
  // record operations maintain the tree with the 2.2.3 discipline.
  BTree* NewNsfTree(uint64_t rows, std::vector<Rid>* rids) {
    table_ = MakeTable();
    *rids = Populate(table_, rows);
    auto desc = engine_->catalog()->CreateIndex("idx", table_, false, {0},
                                                BuildAlgo::kNsf);
    EXPECT_TRUE(desc.ok()) << desc.status().ToString();
    index_ = desc->id;
    auto build =
        engine_->catalog()->BeginBuild(table_, BuildAlgo::kNsf, {index_});
    EXPECT_TRUE(build.ok()) << build.status().ToString();
    return engine_->catalog()->index(index_);
  }

  // The normalized index key of Populate's record `i`.
  static std::string RecordKey(uint64_t i) {
    std::string k;
    keyenc::AppendStringColumn(&k, Workload::MakeKey(i, 12));
    return k;
  }

  TableId table_ = 0;
  IndexId index_ = kInvalidIndexId;
};

TEST_F(BTreeTest, InsertAndLookup) {
  BTree* tree = NewTree();
  Transaction* txn = engine_->Begin();
  ASSERT_OK_AND_ASSIGN(auto r, tree->Insert(txn, "apple", Rid(1, 1)));
  EXPECT_EQ(r, BTree::InsertResult::kInserted);
  ASSERT_OK(engine_->Commit(txn));

  ASSERT_OK_AND_ASSIGN(auto found, tree->Lookup("apple", Rid(1, 1)));
  EXPECT_TRUE(found.found);
  EXPECT_FALSE(found.pseudo_deleted);
  ASSERT_OK_AND_ASSIGN(auto missing, tree->Lookup("apple", Rid(1, 2)));
  EXPECT_FALSE(missing.found);
}

TEST_F(BTreeTest, ExactDuplicateRejected) {
  BTree* tree = NewTree();
  Transaction* txn = engine_->Begin();
  ASSERT_OK_AND_ASSIGN(auto a, tree->Insert(txn, "k", Rid(1, 1)));
  EXPECT_EQ(a, BTree::InsertResult::kInserted);
  ASSERT_OK_AND_ASSIGN(auto b, tree->Insert(txn, "k", Rid(1, 1)));
  EXPECT_EQ(b, BTree::InsertResult::kAlreadyPresent);
  // Same key value, different RID: fine in a non-unique index.
  ASSERT_OK_AND_ASSIGN(auto c, tree->Insert(txn, "k", Rid(1, 2)));
  EXPECT_EQ(c, BTree::InsertResult::kInserted);
  ASSERT_OK(engine_->Commit(txn));
}

TEST_F(BTreeTest, PseudoDeleteLifecycle) {
  BTree* tree = NewTree();
  Transaction* txn = engine_->Begin();
  ASSERT_OK(tree->Insert(txn, "k", Rid(1, 1)).status());
  ASSERT_OK_AND_ASSIGN(auto d, tree->PseudoDelete(txn, "k", Rid(1, 1)));
  EXPECT_EQ(d, BTree::DeleteResult::kPseudoDeleted);
  ASSERT_OK_AND_ASSIGN(auto look, tree->Lookup("k", Rid(1, 1)));
  EXPECT_TRUE(look.found);
  EXPECT_TRUE(look.pseudo_deleted);
  // Deleting again is a no-op.
  ASSERT_OK_AND_ASSIGN(auto again, tree->PseudoDelete(txn, "k", Rid(1, 1)));
  EXPECT_EQ(again, BTree::DeleteResult::kAlreadyPseudo);
  // Re-insert reactivates in place.
  ASSERT_OK_AND_ASSIGN(auto r, tree->Insert(txn, "k", Rid(1, 1)));
  EXPECT_EQ(r, BTree::InsertResult::kReactivated);
  ASSERT_OK_AND_ASSIGN(look, tree->Lookup("k", Rid(1, 1)));
  EXPECT_FALSE(look.pseudo_deleted);
  ASSERT_OK(engine_->Commit(txn));
}

TEST_F(BTreeTest, TombstoneInsertedWhenDeletingAbsentKey) {
  // Section 2.2.3: "If the key does not exist in the index, then the
  // deleter inserts the key with an indicator that it is pseudo deleted."
  BTree* tree = NewTree();
  Transaction* txn = engine_->Begin();
  ASSERT_OK_AND_ASSIGN(auto d, tree->PseudoDelete(txn, "ghost", Rid(3, 3)));
  EXPECT_EQ(d, BTree::DeleteResult::kTombstoneInserted);
  ASSERT_OK_AND_ASSIGN(auto look, tree->Lookup("ghost", Rid(3, 3)));
  EXPECT_TRUE(look.found);
  EXPECT_TRUE(look.pseudo_deleted);
  ASSERT_OK(engine_->Commit(txn));
}

TEST_F(BTreeTest, RollbackOfInsertRemovesKey) {
  BTree* tree = NewTree();
  Transaction* txn = engine_->Begin();
  ASSERT_OK(tree->Insert(txn, "k", Rid(1, 1)).status());
  ASSERT_OK(engine_->Rollback(txn));
  ASSERT_OK_AND_ASSIGN(auto look, tree->Lookup("k", Rid(1, 1)));
  EXPECT_FALSE(look.found);
}

TEST_F(BTreeTest, RollbackOfPseudoDeleteReactivates) {
  // An NSF deleter's pseudo-delete is logged redo-only; the heap record's
  // undo reactivates the key (Figure 2 compensation).
  std::vector<Rid> rids;
  BTree* tree = NewNsfTree(20, &rids);
  const std::string key = RecordKey(5);
  Transaction* ib = engine_->Begin();
  ASSERT_OK(tree->Insert(ib, key, rids[5]).status());
  ASSERT_OK(engine_->Commit(ib));

  Transaction* txn = engine_->Begin();
  ASSERT_OK(engine_->records()->DeleteRecord(txn, table_, rids[5]));
  ASSERT_OK_AND_ASSIGN(auto look, tree->Lookup(key, rids[5]));
  EXPECT_TRUE(look.pseudo_deleted);
  ASSERT_OK(engine_->Rollback(txn));
  ASSERT_OK_AND_ASSIGN(look, tree->Lookup(key, rids[5]));
  EXPECT_TRUE(look.found);
  EXPECT_FALSE(look.pseudo_deleted);
}

TEST_F(BTreeTest, RollbackOfTombstoneInsertPutsKeyInInsertedState) {
  // Section 2.2.3: the deleter's log record ensures that "in case the
  // transaction were to roll back, then the key will be reactivated
  // (i.e., put in the inserted state)" — NOT removed.  Here that log
  // record is the heap delete's, and its undo does the reactivation.
  std::vector<Rid> rids;
  BTree* tree = NewNsfTree(20, &rids);
  const std::string key = RecordKey(5);
  Transaction* txn = engine_->Begin();
  ASSERT_OK(engine_->records()->DeleteRecord(txn, table_, rids[5]));
  ASSERT_OK_AND_ASSIGN(auto look, tree->Lookup(key, rids[5]));
  ASSERT_TRUE(look.found);
  ASSERT_TRUE(look.pseudo_deleted);  // IB had not inserted it: a tombstone
  ASSERT_OK(engine_->Rollback(txn));
  ASSERT_OK_AND_ASSIGN(look, tree->Lookup(key, rids[5]));
  EXPECT_TRUE(look.found);
  EXPECT_FALSE(look.pseudo_deleted);
}

TEST_F(BTreeTest, PhysicalDeleteAndUndo) {
  BTree* tree = NewTree();
  Transaction* setup = engine_->Begin();
  ASSERT_OK(tree->Insert(setup, "k", Rid(1, 1)).status());
  ASSERT_OK(engine_->Commit(setup));

  Transaction* txn = engine_->Begin();
  ASSERT_OK(tree->PhysicalDelete(txn, "k", Rid(1, 1)));
  ASSERT_OK_AND_ASSIGN(auto gone, tree->Lookup("k", Rid(1, 1)));
  EXPECT_FALSE(gone.found);
  ASSERT_OK(engine_->Rollback(txn));
  ASSERT_OK_AND_ASSIGN(auto back, tree->Lookup("k", Rid(1, 1)));
  EXPECT_TRUE(back.found);
  EXPECT_FALSE(back.pseudo_deleted);
}

TEST_F(BTreeTest, ManyInsertsSplitCorrectly) {
  BTree* tree = NewTree();
  Transaction* txn = engine_->Begin();
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    // Shuffled-ish order via multiplicative hashing.
    int k = static_cast<int>((static_cast<uint64_t>(i) * 2654435761u) % n);
    ASSERT_OK(
        tree->Insert(txn, Key(k), Rid(static_cast<PageId>(k), 0)).status());
  }
  ASSERT_OK(engine_->Commit(txn));
  EXPECT_GT(tree->split_count(), 10u);

  ExpectStructurallySound(tree);
  uint64_t count = 0;
  ASSERT_OK(tree->ScanAll(
      [&](std::string_view, const Rid&, uint8_t) { ++count; }));
  EXPECT_EQ(count, static_cast<uint64_t>(n));
}

TEST_F(BTreeTest, FindKeyValueAcrossDuplicatesAndLeaves) {
  BTree* tree = NewTree();
  Transaction* txn = engine_->Begin();
  // Many duplicates of one value, spanning leaves.
  for (int i = 0; i < 600; ++i) {
    ASSERT_OK(
        tree->Insert(txn, "dup", Rid(static_cast<PageId>(i), 0)).status());
  }
  // Pseudo-delete all but one in the middle.
  for (int i = 0; i < 600; ++i) {
    if (i == 300) continue;
    ASSERT_OK(
        tree->PseudoDelete(txn, "dup", Rid(static_cast<PageId>(i), 0))
            .status());
  }
  ASSERT_OK(engine_->Commit(txn));
  ASSERT_OK_AND_ASSIGN(auto vm, tree->FindKeyValue("dup"));
  EXPECT_TRUE(vm.found);
  EXPECT_FALSE(vm.pseudo_deleted);
  EXPECT_EQ(vm.rid, Rid(300, 0));
}

TEST_F(BTreeTest, GcRemovePhysicallyDeletesTombstones) {
  BTree* tree = NewTree();
  Transaction* txn = engine_->Begin();
  ASSERT_OK(tree->Insert(txn, "k", Rid(1, 1)).status());
  ASSERT_OK(tree->PseudoDelete(txn, "k", Rid(1, 1)).status());
  ASSERT_OK(engine_->Commit(txn));
  ASSERT_OK(tree->GcRemove("k", Rid(1, 1)));
  ASSERT_OK_AND_ASSIGN(auto look, tree->Lookup("k", Rid(1, 1)));
  EXPECT_FALSE(look.found);
  // GC of a live key is refused.
  Transaction* t2 = engine_->Begin();
  ASSERT_OK(tree->Insert(t2, "live", Rid(2, 2)).status());
  ASSERT_OK(engine_->Commit(t2));
  EXPECT_TRUE(tree->GcRemove("live", Rid(2, 2)).IsInvalidArgument());
}

class BTreeRandomOpsTest : public BTreeTest,
                           public ::testing::WithParamInterface<int> {};

TEST_P(BTreeRandomOpsTest, MatchesOracle) {
  BTree* tree = NewTree();
  Random rng(GetParam());
  // Oracle: (key,rid) -> live? (absent = not in tree)
  std::map<std::pair<std::string, Rid>, bool> oracle;
  Transaction* txn = engine_->Begin();
  for (int step = 0; step < 3000; ++step) {
    std::string key = Key(static_cast<int>(rng.Uniform(400)));
    Rid rid(static_cast<PageId>(rng.Uniform(4)), 0);
    auto entry = std::make_pair(key, rid);
    double dice = rng.NextDouble();
    if (dice < 0.5) {
      auto r = tree->Insert(txn, key, rid);
      ASSERT_TRUE(r.ok());
      auto it = oracle.find(entry);
      if (it == oracle.end()) {
        EXPECT_EQ(*r, BTree::InsertResult::kInserted);
        oracle[entry] = true;
      } else if (!it->second) {
        EXPECT_EQ(*r, BTree::InsertResult::kReactivated);
        it->second = true;
      } else {
        EXPECT_EQ(*r, BTree::InsertResult::kAlreadyPresent);
      }
    } else if (dice < 0.8) {
      auto r = tree->PseudoDelete(txn, key, rid);
      ASSERT_TRUE(r.ok());
      auto it = oracle.find(entry);
      if (it == oracle.end()) {
        EXPECT_EQ(*r, BTree::DeleteResult::kTombstoneInserted);
        oracle[entry] = false;
      } else if (it->second) {
        EXPECT_EQ(*r, BTree::DeleteResult::kPseudoDeleted);
        it->second = false;
      } else {
        EXPECT_EQ(*r, BTree::DeleteResult::kAlreadyPseudo);
      }
    } else {
      auto look = tree->Lookup(key, rid);
      ASSERT_TRUE(look.ok());
      auto it = oracle.find(entry);
      if (it == oracle.end()) {
        EXPECT_FALSE(look->found);
      } else {
        EXPECT_TRUE(look->found);
        EXPECT_EQ(look->pseudo_deleted, !it->second);
      }
    }
  }
  ASSERT_OK(engine_->Commit(txn));
  ExpectStructurallySound(tree);
  // Full agreement sweep.
  std::map<std::pair<std::string, Rid>, bool> seen;
  ASSERT_OK(tree->ScanAll([&](std::string_view key, const Rid& rid,
                              uint8_t flags) {
    seen[{std::string(key), rid}] = (flags & kEntryPseudoDeleted) == 0;
  }));
  EXPECT_EQ(seen.size(), oracle.size());
  for (const auto& [entry, live] : oracle) {
    auto it = seen.find(entry);
    ASSERT_NE(it, seen.end());
    EXPECT_EQ(it->second, live);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeRandomOpsTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST_F(BTreeTest, ConcurrentInsertersDisjointRanges) {
  BTree* tree = NewTree();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 800;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Transaction* txn = engine_->Begin();
      for (int i = 0; i < kPerThread; ++i) {
        int k = t * kPerThread + i;
        auto r = tree->Insert(txn, Key(k), Rid(static_cast<PageId>(k), 0));
        ASSERT_TRUE(r.ok()) << r.status().ToString();
      }
      ASSERT_TRUE(engine_->Commit(txn).ok());
    });
  }
  for (auto& t : threads) t.join();
  ExpectStructurallySound(tree);
  uint64_t count = 0;
  ASSERT_OK(tree->ScanAll(
      [&](std::string_view, const Rid&, uint8_t) { ++count; }));
  EXPECT_EQ(count, static_cast<uint64_t>(kThreads * kPerThread));
}

TEST_F(BTreeTest, CommittedKeysSurviveCrashLosersUndone) {
  BTree* tree = NewTree();
  TableId table = table_;
  IndexId index = index_;
  Transaction* committed = engine_->Begin();
  for (int i = 0; i < 300; ++i) {
    ASSERT_OK(committed != nullptr ? Status::OK() : Status::Corruption(""));
    ASSERT_OK(
        tree->Insert(committed, Key(i), Rid(static_cast<PageId>(i), 0))
            .status());
  }
  ASSERT_OK(engine_->Commit(committed));

  Transaction* loser = engine_->Begin();
  for (int i = 300; i < 350; ++i) {
    ASSERT_OK(
        tree->Insert(loser, Key(i), Rid(static_cast<PageId>(i), 0)).status());
  }
  ASSERT_OK(tree->PhysicalDelete(loser, Key(7), Rid(7, 0)));
  ASSERT_OK(engine_->log()->FlushAll());

  CrashAndRestart();
  tree = engine_->catalog()->index(index);
  ASSERT_NE(tree, nullptr);
  (void)table;
  for (int i = 0; i < 300; ++i) {
    ASSERT_OK_AND_ASSIGN(auto look,
                         tree->Lookup(Key(i), Rid(static_cast<PageId>(i), 0)));
    EXPECT_TRUE(look.found) << i;
    EXPECT_FALSE(look.pseudo_deleted) << i;  // loser's delete undone
  }
  for (int i = 300; i < 350; ++i) {
    ASSERT_OK_AND_ASSIGN(auto look,
                         tree->Lookup(Key(i), Rid(static_cast<PageId>(i), 0)));
    EXPECT_FALSE(look.found) << i;
  }
  ExpectStructurallySound(tree);
}

TEST_F(BTreeTest, IbBatchInsertSkipsDuplicatesAndTombstones) {
  BTree* tree = NewTree();
  // Transactions race ahead of IB: one inserted key 5 already, one left a
  // tombstone for key 7 (deleted record), per sections 2.1.1/2.1.2.
  Transaction* txn = engine_->Begin();
  ASSERT_OK(tree->Insert(txn, Key(5), Rid(5, 0)).status());
  ASSERT_OK(tree->PseudoDelete(txn, Key(7), Rid(7, 0)).status());
  ASSERT_OK(engine_->Commit(txn));

  std::vector<std::string> keys;
  for (int i = 0; i < 10; ++i) keys.push_back(Key(i));
  std::vector<IndexKeyRef> refs;
  for (int i = 0; i < 10; ++i) {
    refs.push_back({keys[i], Rid(static_cast<PageId>(i), 0)});
  }
  Transaction* ib = engine_->Begin();
  BTree::IbStats stats;
  ASSERT_OK(tree->IbInsertBatch(ib, refs, false, nullptr, &stats));
  ASSERT_OK(engine_->Commit(ib));
  EXPECT_EQ(stats.inserted, 8u);
  EXPECT_EQ(stats.skipped_duplicates, 1u);
  EXPECT_EQ(stats.skipped_tombstones, 1u);
  // Key 7 stays pseudo-deleted (the deleter committed).
  ASSERT_OK_AND_ASSIGN(auto look, tree->Lookup(Key(7), Rid(7, 0)));
  EXPECT_TRUE(look.found);
  EXPECT_TRUE(look.pseudo_deleted);
}

TEST_F(BTreeTest, IbSplitRejectsAnEntryInsertedDuringItsRedescent) {
  // IB finds a leaf full and re-descends to split it, holding no latch in
  // between.  A transaction that inserts IB's exact <key, RID> in that
  // window turns IB's insert into a rejected duplicate (2.1.1): the IB
  // split must not chase that entry from right page to right page.
  BTree* tree = NewTree();
  // A transaction appends even keys, which leaves full leaves behind, then
  // deletes a few near the front: the first leaf has room for one more
  // entry but stays above IB's fill factor.
  Transaction* txn = engine_->Begin();
  for (int i = 0; i < 400; ++i) {
    const Rid rid(static_cast<PageId>(2 * i), 0);
    ASSERT_OK(tree->Insert(txn, Key(2 * i), rid).status());
  }
  for (int i = 2; i < 8; ++i) {
    ASSERT_OK(tree->PhysicalDelete(txn, Key(2 * i),
                                   Rid(static_cast<PageId>(2 * i), 0)));
  }
  ASSERT_OK(engine_->Commit(txn));

  // Key 1 goes second in the first leaf: IB must split for it.
  const std::string odd = Key(1);
  const Rid rid(1, 0);
  FailPointPolicy delay;
  delay.action = FailPointAction::kDelay;
  delay.arg = 300'000;  // usec
  FailPointRegistry::Instance().ArmPolicy("btree.ib_split", delay);
  BTree::IbStats late;
  Status s;
  std::thread builder([&] {
    Transaction* ib = engine_->Begin();
    std::vector<IndexKeyRef> one{{odd, rid}};
    s = tree->IbInsertBatch(ib, one, false, nullptr, &late);
    if (s.ok()) s = engine_->Commit(ib);
  });
  while (FailPointRegistry::Instance().fired_count("btree.ib_split") == 0) {
    std::this_thread::yield();
  }
  txn = engine_->Begin();
  ASSERT_OK(tree->Insert(txn, odd, rid).status());
  ASSERT_OK(engine_->Commit(txn));
  builder.join();
  ASSERT_OK(s);
  EXPECT_EQ(late.inserted, 0u);
  EXPECT_EQ(late.skipped_duplicates, 1u);
  ASSERT_OK_AND_ASSIGN(auto look, tree->Lookup(odd, rid));
  EXPECT_TRUE(look.found);
  EXPECT_FALSE(look.pseudo_deleted);
  ExpectStructurallySound(tree);
}

TEST_F(BTreeTest, IbBatchInsertLargeSortedStream) {
  BTree* tree = NewTree();
  const int n = 20000;
  std::vector<std::string> keys;
  keys.reserve(n);
  for (int i = 0; i < n; ++i) keys.push_back(Key(i));

  Transaction* ib = engine_->Begin();
  BTree::IbStats stats;
  for (int base = 0; base < n; base += 64) {
    std::vector<IndexKeyRef> refs;
    for (int i = base; i < std::min(base + 64, n); ++i) {
      refs.push_back({keys[i], Rid(static_cast<PageId>(i), 0)});
    }
    ASSERT_OK(tree->IbInsertBatch(ib, refs, false, nullptr, &stats));
  }
  ASSERT_OK(engine_->Commit(ib));
  EXPECT_EQ(stats.inserted, static_cast<uint64_t>(n));
  // Remembered path: descents should be far fewer than keys.
  EXPECT_LT(stats.descents, static_cast<uint64_t>(n) / 10);
  ExpectStructurallySound(tree);
}

TEST_F(BTreeTest, IbBatchUndoneAtRestart) {
  BTree* tree = NewTree();
  IndexId index = index_;
  Transaction* ib = engine_->Begin();
  std::vector<std::string> keys;
  std::vector<IndexKeyRef> refs;
  for (int i = 0; i < 40; ++i) keys.push_back(Key(i));
  for (int i = 0; i < 40; ++i) {
    refs.push_back({keys[i], Rid(static_cast<PageId>(i), 0)});
  }
  BTree::IbStats stats;
  ASSERT_OK(tree->IbInsertBatch(ib, refs, false, nullptr, &stats));
  ASSERT_OK(engine_->log()->FlushAll());  // batch is durable, not committed

  CrashAndRestart();
  tree = engine_->catalog()->index(index);
  for (int i = 0; i < 40; ++i) {
    ASSERT_OK_AND_ASSIGN(auto look,
                         tree->Lookup(Key(i), Rid(static_cast<PageId>(i), 0)));
    EXPECT_FALSE(look.found) << i;
  }
  ExpectStructurallySound(tree);
}

}  // namespace
}  // namespace oib
