// Negative tests: the verifiers must actually DETECT corruption — a
// verifier that always says "ok" would silently bless broken builders.

#include "btree/tree_verifier.h"

#include <gtest/gtest.h>

#include "common/key.h"
#include "core/index_builder.h"
#include "core/index_verifier.h"
#include "tests/test_util.h"

namespace oib {
namespace {

class TreeVerifierTest : public EngineTest {
 protected:
  // A ready index over `rows` rows; returns the tree.
  BTree* BuildIndex(uint64_t rows) {
    table_ = MakeTable();
    Populate(table_, rows);
    OfflineIndexBuilder builder(engine_.get());
    BuildParams p;
    p.name = "idx";
    p.table = table_;
    p.key_cols = {0};
    EXPECT_TRUE(builder.Build(p, &index_).ok());
    return engine_->catalog()->index(index_);
  }

  TableId table_ = 0;
  IndexId index_ = kInvalidIndexId;
};

TEST_F(TreeVerifierTest, CleanTreePasses) {
  BTree* tree = BuildIndex(3000);
  TreeVerifier tv(tree, engine_->pool());
  ASSERT_OK_AND_ASSIGN(auto report, tv.Check());
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.entries, 3000u);
  EXPECT_GE(report.height, 2u);
}

TEST_F(TreeVerifierTest, DetectsOutOfOrderKeys) {
  BTree* tree = BuildIndex(3000);
  // Vandalize a leaf: swap two keys' bytes in place.
  std::vector<PageId> leaves;
  ASSERT_OK(tree->CollectLeaves(&leaves));
  {
    auto guard = engine_->pool()->FetchWrite(leaves[2]);
    ASSERT_TRUE(guard.ok());
    BTreePage page(guard->data(), engine_->disk()->page_size());
    ASSERT_GE(page.count(), 2);
    // Overwrite the first key's stored suffix bytes with 'z's: the page
    // prefix is shared with the right neighbour, so the key now sorts
    // above it.  (KeyAt materializes a copy; SuffixAt views page bytes.)
    std::string_view k = page.SuffixAt(0);
    ASSERT_FALSE(k.empty());
    std::memset(const_cast<char*>(k.data()), 'z', k.size());
    guard->MarkDirty();
  }
  TreeVerifier tv(tree, engine_->pool());
  ASSERT_OK_AND_ASSIGN(auto report, tv.Check());
  EXPECT_FALSE(report.ok);
  // Reported either as an in-page ordering violation or as a fence
  // violation, depending on which check trips first.
  EXPECT_TRUE(report.error.find("order") != std::string::npos ||
              report.error.find("fence") != std::string::npos)
      << report.error;
}

TEST_F(TreeVerifierTest, DetectsBrokenLeafChain) {
  BTree* tree = BuildIndex(3000);
  std::vector<PageId> leaves;
  ASSERT_OK(tree->CollectLeaves(&leaves));
  ASSERT_GE(leaves.size(), 3u);
  {
    // Skip a leaf in the chain.
    auto guard = engine_->pool()->FetchWrite(leaves[0]);
    ASSERT_TRUE(guard.ok());
    BTreePage page(guard->data(), engine_->disk()->page_size());
    page.set_next(leaves[2]);
    guard->MarkDirty();
  }
  TreeVerifier tv(tree, engine_->pool());
  ASSERT_OK_AND_ASSIGN(auto report, tv.Check());
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("chain"), std::string::npos) << report.error;
}

class IndexVerifierNegativeTest : public TreeVerifierTest {
 protected:
  // Normalized single-string-column key, as the index stores it.
  static std::string Key(const std::string& v) {
    std::string k;
    keyenc::AppendStringColumn(&k, v);
    return k;
  }
};

TEST_F(IndexVerifierNegativeTest, DetectsMissingEntry) {
  BTree* tree = BuildIndex(500);
  // Physically remove one key behind the record manager's back.
  std::string key = Key(Workload::MakeKey(123, 12));
  Rid victim;
  bool found = false;
  ASSERT_OK(tree->ScanAll([&](std::string_view k, const Rid& rid, uint8_t) {
    if (k == key) {
      victim = rid;
      found = true;
    }
  }));
  ASSERT_TRUE(found);
  Transaction* txn = engine_->Begin();
  ASSERT_OK(tree->PhysicalDelete(txn, key, victim));
  ASSERT_OK(engine_->Commit(txn));

  IndexVerifier verifier(engine_.get());
  ASSERT_OK_AND_ASSIGN(auto report, verifier.Verify(table_, index_));
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("missing from index"), std::string::npos)
      << report.error;
}

TEST_F(IndexVerifierNegativeTest, DetectsExtraEntry) {
  BTree* tree = BuildIndex(500);
  Transaction* txn = engine_->Begin();
  ASSERT_OK(tree->Insert(txn, "nonexistent!", Rid(9999, 9)).status());
  ASSERT_OK(engine_->Commit(txn));
  IndexVerifier verifier(engine_.get());
  ASSERT_OK_AND_ASSIGN(auto report, verifier.Verify(table_, index_));
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("without record"), std::string::npos)
      << report.error;
  // The key prints in hex, so a C-string print of the message reaches
  // the RID.
  EXPECT_NE(std::string(report.error.c_str())
                .find("6e6f6e6578697374656e7421@" + Rid(9999, 9).ToString()),
            std::string::npos)
      << report.error;
}

TEST_F(IndexVerifierNegativeTest, DetectsShadowingTombstone) {
  BTree* tree = BuildIndex(500);
  // Pseudo-delete a key whose record still lives: the entry "shadows" it.
  std::string key = Key(Workload::MakeKey(7, 12));
  Rid victim;
  bool found = false;
  ASSERT_OK(tree->ScanAll([&](std::string_view k, const Rid& rid, uint8_t) {
    if (k == key) {
      victim = rid;
      found = true;
    }
  }));
  ASSERT_TRUE(found);
  Transaction* txn = engine_->Begin();
  ASSERT_OK(tree->PseudoDelete(txn, key, victim).status());
  ASSERT_OK(engine_->Commit(txn));
  IndexVerifier verifier(engine_.get());
  ASSERT_OK_AND_ASSIGN(auto report, verifier.Verify(table_, index_));
  EXPECT_FALSE(report.ok);
  // Either error is acceptable: the live key is missing, or the
  // tombstone shadows a live record (the verifier reports the first).
  EXPECT_TRUE(report.error.find("missing") != std::string::npos ||
              report.error.find("shadows") != std::string::npos)
      << report.error;
}

TEST_F(IndexVerifierNegativeTest, DetectsDuplicateValuesInUniqueIndex) {
  table_ = MakeTable();
  Populate(table_, 200);
  OfflineIndexBuilder builder(engine_.get());
  BuildParams p;
  p.name = "u";
  p.table = table_;
  p.unique = true;
  p.key_cols = {0};
  ASSERT_OK(builder.Build(p, &index_));
  BTree* tree = engine_->catalog()->index(index_);

  // Forge a duplicate value under a different RID AND a matching record,
  // so only the uniqueness invariant is broken.
  Transaction* txn = engine_->Begin();
  std::string key = Workload::MakeKey(5, 12);
  ASSERT_OK_AND_ASSIGN(
      Rid rid, engine_->catalog()->table(table_)->Insert(
                   txn, Schema::EncodeRecord({key, "dup"}), nullptr));
  ASSERT_OK(tree->Insert(txn, Key(key), rid).status());
  ASSERT_OK(engine_->Commit(txn));

  IndexVerifier verifier(engine_.get());
  ASSERT_OK_AND_ASSIGN(auto report, verifier.Verify(table_, index_));
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("unique"), std::string::npos) << report.error;
}

}  // namespace
}  // namespace oib
