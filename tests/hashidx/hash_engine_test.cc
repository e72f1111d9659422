// Engine-level hash fast-path tests: population by every build algorithm,
// NSF/SF visibility, read equivalence hash-on vs hash-off, GC purge,
// teardown of failed builds, and restart repopulation.

#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "btree/tree_verifier.h"
#include "common/key.h"
#include "core/index_builder.h"
#include "core/pseudo_delete_gc.h"
#include "hashidx/hash_index.h"
#include "tests/test_util.h"

namespace oib {
namespace {

class HashEngineTest : public EngineTest {
 protected:
  void SetUp() override {
    EngineTest::SetUp();
    // The fixture opened the engine with the flag clear; flip it and
    // reopen so every index built below carries a hash fragment.
    options_.enable_hash_index = true;
    options_.hash_index_shards = 4;
    ReopenWithOptions();
  }

  BuildParams Params(TableId table, bool unique = false,
                     const std::string& name = "idx") {
    BuildParams p;
    p.name = name;
    p.table = table;
    p.unique = unique;
    p.key_cols = {0};
    return p;
  }

  static std::string Key(const std::string& v) {
    std::string k;
    keyenc::AppendStringColumn(&k, v);
    return k;
  }

  // Asserts the hash mirror answers exactly what a FindKeyValue descent
  // would for every key present in the tree.
  void ExpectHashMatchesTree(IndexId index) {
    BTree* tree = engine_->catalog()->index(index);
    HashIndex* hash = engine_->catalog()->hash_index(index);
    ASSERT_NE(tree, nullptr);
    ASSERT_NE(hash, nullptr);
    ASSERT_TRUE(hash->readable());
    std::map<std::string, std::pair<bool, Rid>> expected;  // live?, min rid
    uint64_t tree_entries = 0;
    ASSERT_OK(tree->ScanAll(
        [&](std::string_view key, const Rid& rid, uint8_t flags) {
          ++tree_entries;
          bool live = (flags & kEntryPseudoDeleted) == 0;
          auto [it, inserted] = expected.emplace(
              std::string(key), std::make_pair(live, rid));
          if (!inserted && live &&
              (!it->second.first || rid < it->second.second)) {
            it->second = {true, rid};
          }
        }));
    EXPECT_EQ(hash->entry_count(), tree_entries);
    for (const auto& [key, want] : expected) {
      Rid rid;
      HashProbe p = hash->Probe(key, &rid);
      if (want.first) {
        ASSERT_EQ(p, HashProbe::kHit) << "key " << key;
        EXPECT_EQ(rid, want.second) << "key " << key;
      } else {
        EXPECT_EQ(p, HashProbe::kDeleted) << "key " << key;
      }
    }
  }
};

TEST_F(HashEngineTest, OfflineBuildPopulatesHash) {
  TableId table = MakeTable();
  Populate(table, 1500);
  OfflineIndexBuilder builder(engine_.get());
  IndexId index;
  ASSERT_OK(builder.Build(Params(table), &index));
  HashIndex* hash = engine_->catalog()->hash_index(index);
  ASSERT_NE(hash, nullptr);
  EXPECT_TRUE(hash->readable());
  EXPECT_EQ(hash->entry_count(), 1500u);
  ExpectHashMatchesTree(index);

  // Point reads go through the hash and return the right records.
  uint64_t hits_before =
      engine_->metrics()->GetCounter("hash.hits")->value();
  Transaction* txn = engine_->Begin();
  for (uint64_t i = 0; i < 100; ++i) {
    std::string raw = Workload::MakeKey(i * 7 % 1500, 12);
    ASSERT_OK_AND_ASSIGN(
        std::string rec,
        engine_->records()->ReadRecordByKey(txn, table, index, Key(raw)));
    std::vector<std::string> fields;
    ASSERT_OK(Schema::DecodeRecord(rec, &fields));
    EXPECT_EQ(fields[0], raw);
  }
  ASSERT_OK(engine_->Commit(txn));
  EXPECT_GE(engine_->metrics()->GetCounter("hash.hits")->value(),
            hits_before + 100);

  // Absent key: miss falls back to the tree and still answers NotFound.
  Transaction* txn2 = engine_->Begin();
  auto missing = engine_->records()->ReadRecordByKey(txn2, table, index,
                                                     Key("nonexistent"));
  EXPECT_TRUE(missing.status().IsNotFound());
  ASSERT_OK(engine_->Commit(txn2));
}

TEST_F(HashEngineTest, HashOffPathUnaffected) {
  // Same engine family with the flag clear: no fragments, reads still
  // resolve through the tree.
  options_.enable_hash_index = false;
  ReopenWithOptions();
  TableId table = MakeTable();
  Populate(table, 300);
  OfflineIndexBuilder builder(engine_.get());
  IndexId index;
  ASSERT_OK(builder.Build(Params(table), &index));
  EXPECT_EQ(engine_->catalog()->hash_index(index), nullptr);
  Transaction* txn = engine_->Begin();
  ASSERT_OK_AND_ASSIGN(std::string rec,
                       engine_->records()->ReadRecordByKey(
                           txn, table, index, Key(Workload::MakeKey(7, 12))));
  std::vector<std::string> fields;
  ASSERT_OK(Schema::DecodeRecord(rec, &fields));
  EXPECT_EQ(fields[0], Workload::MakeKey(7, 12));
  ASSERT_OK(engine_->Commit(txn));
  options_.enable_hash_index = true;
}

TEST_F(HashEngineTest, NsfBuildMaintainsMirrorOnline) {
  TableId table = MakeTable();
  auto rids = Populate(table, 2000);
  WorkloadOptions wo;
  wo.threads = 2;
  wo.rollback_pct = 0.15;
  Workload workload(engine_.get(), table, wo);
  workload.Seed(rids, 2000);
  workload.Start();
  WaitForOps(&workload, 20);
  NsfIndexBuilder builder(engine_.get());
  IndexId index;
  Status s = builder.Build(Params(table), &index);
  workload.Stop();
  ASSERT_OK(s);
  ExpectIndexConsistent(table, index);
  ExpectHashMatchesTree(index);
}

TEST_F(HashEngineTest, SfBuildMaintainsMirrorOnline) {
  TableId table = MakeTable();
  auto rids = Populate(table, 2000);
  WorkloadOptions wo;
  wo.threads = 2;
  wo.rollback_pct = 0.15;
  Workload workload(engine_.get(), table, wo);
  workload.Seed(rids, 2000);
  workload.Start();
  WaitForOps(&workload, 20);
  SfIndexBuilder builder(engine_.get());
  IndexId index;
  Status s = builder.Build(Params(table), &index);
  workload.Stop();
  ASSERT_OK(s);
  ExpectIndexConsistent(table, index);
  ExpectHashMatchesTree(index);
}

TEST_F(HashEngineTest, SfResumeAfterLoadCheckpointRebuildsMirror) {
  TableId table = MakeTable();
  Populate(table, 3000);
  options_.ib_checkpoint_every_keys = 500;
  ReopenWithOptions();
  // The load checkpoints after its first merge batch, then stops: the
  // mirror heard of the loaded keys only from the pre-crash loader, and
  // the resumed loader tells it of the rest.
  FailPointRegistry::Instance().Arm("sf.load", 1200);
  SfIndexBuilder builder(engine_.get());
  Status s = builder.Build(Params(table), nullptr);
  ASSERT_TRUE(s.IsInjected()) << s.ToString();

  CrashAndRestart();
  SfIndexBuilder resumed(engine_.get());
  BuildStats stats;
  ASSERT_OK(resumed.Resume(table, &stats));
  EXPECT_GT(stats.keys_loaded, 0u);
  EXPECT_LT(stats.keys_loaded, 3000u);  // resumed from the checkpoint
  auto descs = engine_->catalog()->IndexesOf(table);
  ASSERT_EQ(descs.size(), 1u);
  ExpectIndexConsistent(table, descs[0].id);
  ExpectHashMatchesTree(descs[0].id);
  EXPECT_EQ(engine_->catalog()->hash_index(descs[0].id)->entry_count(),
            3000u);
}

TEST_F(HashEngineTest, ReadsDuringSfBuildFallBackThenHit) {
  TableId table = MakeTable();
  auto rids = Populate(table, 4000);
  // A ready index to read through while the SF build runs on the side.
  OfflineIndexBuilder offline(engine_.get());
  IndexId ready_index;
  ASSERT_OK(offline.Build(Params(table, false, "ready"), &ready_index));

  WorkloadOptions wo;
  wo.threads = 2;
  wo.insert_pct = 0.05;
  wo.delete_pct = 0.05;
  wo.update_pct = 0.10;  // 80% point reads
  wo.read_index = ready_index;
  Workload workload(engine_.get(), table, wo);
  workload.Seed(rids, 4000);
  workload.Start();
  WaitForOps(&workload, 50);
  SfIndexBuilder builder(engine_.get());
  IndexId building;
  Status s = builder.Build(Params(table, false, "built_under_reads"),
                           &building);
  WorkloadStats wstats = workload.Stop();
  ASSERT_OK(s);
  EXPECT_GT(wstats.reads, 0u);
  ExpectIndexConsistent(table, building);
  ExpectHashMatchesTree(ready_index);
  ExpectHashMatchesTree(building);
}

TEST_F(HashEngineTest, EquivalenceHashOnOffDeterministicWorkload) {
  // The same seeded single-threaded workload replayed hash-on and
  // hash-off must visit identical states; afterwards every key must read
  // back identically through both resolution paths.
  std::map<std::string, std::string> results[2];
  WorkloadStats stats[2];
  for (int pass = 0; pass < 2; ++pass) {
    bool with_hash = pass == 0;
    TearDown();
    SetUp();  // fresh engine, enable_hash_index = true
    if (!with_hash) {
      options_.enable_hash_index = false;
      ReopenWithOptions();
    }
    TableId table = MakeTable();
    auto rids = Populate(table, 800);
    OfflineIndexBuilder builder(engine_.get());
    IndexId index;
    ASSERT_OK(builder.Build(Params(table), &index));
    WorkloadOptions wo;
    wo.threads = 1;
    wo.seed = 20260808;
    wo.insert_pct = 0.2;
    wo.delete_pct = 0.2;
    wo.update_pct = 0.2;
    wo.rollback_pct = 0.1;
    wo.read_index = index;
    Workload workload(engine_.get(), table, wo);
    workload.Seed(rids, 800);
    ASSERT_OK(workload.Run(3000, &stats[pass]));
    // Read back every key ever allocated; record hit payload or miss.
    Transaction* txn = engine_->Begin();
    for (uint64_t i = 0; i < 800 + 3000; ++i) {
      std::string raw = Workload::MakeKey(i, 12);
      auto rec = engine_->records()->ReadRecordByKey(txn, table, index,
                                                     Key(raw));
      if (rec.ok()) {
        results[pass][raw] = *rec;
      } else {
        ASSERT_TRUE(rec.status().IsNotFound()) << rec.status().ToString();
      }
    }
    ASSERT_OK(engine_->Commit(txn));
    options_.enable_hash_index = true;
  }
  EXPECT_EQ(stats[0].commits, stats[1].commits);
  EXPECT_EQ(stats[0].ops(), stats[1].ops());
  EXPECT_EQ(results[0], results[1]);
}

TEST_F(HashEngineTest, PseudoDeleteGcPurgesBothStructures) {
  TableId table = MakeTable();
  auto rids = Populate(table, 1000);
  options_.ib_checkpoint_every_keys = 200;
  ReopenWithOptions();
  // Stop the NSF build part-way through its inserts, commit deletes while
  // it is stopped, then resume it: the deletes land during the build by
  // construction, not by winning a race against it.  Rows below the IB
  // checkpoint are pseudo-deleted in place; rows above it leave the
  // deleter's pseudo-deleted entries for the resumed build to skip.
  FailPointRegistry::Instance().Arm("nsf.insert_batch", 10);
  NsfIndexBuilder builder(engine_.get());
  IndexId index;
  Status s = builder.Build(Params(table), &index);
  ASSERT_TRUE(s.IsInjected()) << s.ToString();
  CrashAndRestart();
  Transaction* txn = engine_->Begin();
  for (size_t i = 0; i < rids.size(); i += 4) {
    ASSERT_OK(engine_->records()->DeleteRecord(txn, table, rids[i]));
  }
  ASSERT_OK(engine_->Commit(txn));
  NsfIndexBuilder resumed(engine_.get());
  ASSERT_OK(resumed.Resume(table, &index));
  ExpectHashMatchesTree(index);

  BTree* tree = engine_->catalog()->index(index);
  TreeVerifier tv(tree, engine_->pool());
  ASSERT_OK_AND_ASSIGN(auto before, tv.Clustering());
  // One pseudo-deleted entry per deleted row, whichever side of the IB
  // checkpoint it fell on.
  ASSERT_EQ(before.pseudo_deleted, (rids.size() + 3) / 4);
  PseudoDeleteGC gc(engine_.get());
  GcStats gc_stats;
  ASSERT_OK(gc.Run(index, &gc_stats));
  EXPECT_EQ(gc_stats.removed, before.pseudo_deleted);
  // The observer carried every GcRemove into the mirror.
  ExpectHashMatchesTree(index);
}

TEST_F(HashEngineTest, FailedBuildTearsDownFragment) {
  TableId table = MakeTable();
  // Two records with the same key value: a unique offline build fails.
  Transaction* txn = engine_->Begin();
  ASSERT_OK(engine_->records()
                ->InsertRecord(txn, table, Schema::EncodeRecord({"dup", "a"}))
                .status());
  ASSERT_OK(engine_->records()
                ->InsertRecord(txn, table, Schema::EncodeRecord({"dup", "b"}))
                .status());
  ASSERT_OK(engine_->Commit(txn));
  OfflineIndexBuilder builder(engine_.get());
  IndexId index = kInvalidIndexId;
  Status s = builder.Build(Params(table, /*unique=*/true), &index);
  ASSERT_TRUE(s.IsUniqueViolation()) << s.ToString();
  // Fragment gone with the descriptor; no dangling observer.
  EXPECT_TRUE(engine_->catalog()->IndexesOf(table).empty());
  Transaction* txn2 = engine_->Begin();
  ASSERT_OK(engine_->records()
                ->InsertRecord(txn2, table,
                               Schema::EncodeRecord({"after", "c"}))
                .status());
  ASSERT_OK(engine_->Commit(txn2));
}

TEST_F(HashEngineTest, HashCommitFailpointLeavesBuildResumable) {
  TableId table = MakeTable();
  Populate(table, 500);
  FailPointRegistry::Instance().Reset();
  FailPointRegistry::Instance().Arm("hash.commit");
  SfIndexBuilder builder(engine_.get());
  IndexId index;
  Status s = builder.Build(Params(table), &index);
  EXPECT_FALSE(s.ok());
  FailPointRegistry::Instance().Reset();
  // The fragment (if any survived the abort) must not be readable: a
  // failed publish never exposes the hash.
  for (const IndexDescriptor& d : engine_->catalog()->IndexesOf(table)) {
    HashIndex* hash = engine_->catalog()->hash_index(d.id);
    if (hash != nullptr) {
      EXPECT_FALSE(hash->readable());
    }
  }
}

TEST_F(HashEngineTest, RestartRepopulatesReadyIndex) {
  TableId table = MakeTable();
  Populate(table, 1200);
  OfflineIndexBuilder builder(engine_.get());
  IndexId index;
  ASSERT_OK(builder.Build(Params(table), &index));
  ExpectHashMatchesTree(index);

  CrashAndRestart();
  HashIndex* hash = engine_->catalog()->hash_index(index);
  ASSERT_NE(hash, nullptr);
  EXPECT_TRUE(hash->readable());
  ExpectHashMatchesTree(index);
  Transaction* txn = engine_->Begin();
  ASSERT_OK_AND_ASSIGN(std::string rec,
                       engine_->records()->ReadRecordByKey(
                           txn, table, index, Key(Workload::MakeKey(3, 12))));
  std::vector<std::string> fields;
  ASSERT_OK(Schema::DecodeRecord(rec, &fields));
  EXPECT_EQ(fields[0], Workload::MakeKey(3, 12));
  ASSERT_OK(engine_->Commit(txn));
}

}  // namespace
}  // namespace oib
