// Restart redo must rebuild exactly the pages forward processing made.
//
// A seeded mix touches every logged page change: heap inserts, updates and
// deletes (dead slots reused), rolled-back transactions (heap and B+-tree
// CLRs), an SF build whose side-file grows across several pages, a unique
// NSF build that rolls its IB batches back, an NSF build with deleters
// and inserters running beside IB (IB batches, the section 2.3.1 split,
// pseudo-deletes, tombstones, reactivations), leaf and internal splits
// with root growth, and a GC pass.
// Everything is committed and the log flushed; the test then records the
// logical contents of every page, crashes, restarts and compares page by
// page.  Runs over both disk kinds, like EngineOnDiskTest.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "btree/btree_page.h"
#include "common/coding.h"
#include "common/random.h"
#include "core/pseudo_delete_gc.h"
#include "heap/slotted_page.h"
#include "tests/test_util.h"

namespace oib {
namespace {

std::string Hex(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

class RedoEquivalenceTest : public EngineDiskTest {
 protected:
  void SetUp() override {
    // Small pages: a few thousand rows split leaves and internal nodes,
    // and a few hundred side-file entries span several pages.
    options_.page_size = 1024;
    EngineDiskTest::SetUp();
  }

  // Logical contents of page `id`: what a change to it must reproduce,
  // independent of physical layout (key prefixes, compaction).
  std::string Describe(PageId id, const std::set<PageId>& anchors) {
    auto guard = engine_->pool()->FetchRead(id);
    if (!guard.ok()) return "unreadable: " + guard.status().ToString();
    const size_t ps = engine_->disk()->page_size();
    char* data = const_cast<char*>(guard->data());
    std::string out = "lsn=" + std::to_string(guard->page_lsn());
    if (anchors.count(id) != 0) {
      return out + " anchor root=" + std::to_string(DecodeFixed32(data + 8));
    }
    auto type = static_cast<PageType>(static_cast<uint8_t>(data[8]));
    switch (type) {
      case PageType::kHeap:
      case PageType::kSideFile: {
        SlottedPage sp(data, ps);
        out += (type == PageType::kHeap ? " heap" : " sidefile");
        out += " next=" + std::to_string(sp.next_page());
        for (SlotId s = 0; s < sp.slot_count(); ++s) {
          auto rec = sp.Get(s);
          out += " [" + std::to_string(s) + ":" +
                 (rec.ok() ? Hex(*rec) : std::string("dead")) + "]";
        }
        return out;
      }
      case PageType::kBtreeLeaf:
      case PageType::kBtreeInternal: {
        BTreePage bp(data, ps);
        out += " level=" + std::to_string(bp.level()) +
               " next=" + std::to_string(bp.next());
        if (!bp.is_leaf()) {
          out += " leftmost=" + std::to_string(bp.leftmost_child());
        }
        for (int i = 0; i < bp.count(); ++i) {
          Rid rid = bp.RidAt(i);
          out += " [" + Hex(bp.KeyAt(i)) + "," + std::to_string(rid.page) +
                 "." + std::to_string(rid.slot) + "," +
                 std::to_string(bp.is_leaf() ? bp.FlagsAt(i)
                                             : bp.ChildAt(i)) +
                 "]";
        }
        return out;
      }
      default:
        return out + " type=" + std::to_string(static_cast<int>(type));
    }
  }

  std::map<PageId, std::string> LogicalPages(PageId page_count) {
    std::set<PageId> anchors;
    for (const IndexDescriptor& d : engine_->catalog()->AllIndexes()) {
      anchors.insert(engine_->catalog()->index(d.id)->anchor_page());
    }
    std::map<PageId, std::string> pages;
    for (PageId id = 0; id < page_count; ++id) {
      pages[id] = Describe(id, anchors);
    }
    return pages;
  }

  // Same widths as Populate's rows, so an update always fits in place.
  std::string NewRecord(uint64_t key_id) {
    return Workload::MakeRecord(Workload::MakeKey(key_id, 12), 32, &rng_);
  }
  // A key no other record has: random (middle splits) or, with
  // `ascending`, above every key so far (append splits).
  uint64_t NewKey(bool ascending) {
    ++seq_;
    return ascending ? 100'000'000 + seq_ : rng_.Uniform(4000) * 10'000 + seq_;
  }

  // Runs `build` on its own thread, holds it for 300 ms at the evaluation
  // of failpoint `site` after `countdown` misses, and runs `during` on
  // this thread meanwhile.
  Status BuildHeldAt(const char* site, int countdown,
                     const std::function<Status()>& build,
                     const std::function<void()>& during) {
    FailPointPolicy hold;
    hold.action = FailPointAction::kDelay;
    hold.countdown = countdown;
    hold.arg = 300'000;  // usec
    FailPointRegistry::Instance().ArmPolicy(site, hold);
    Status s;
    std::atomic<bool> done{false};
    std::thread builder([&] {
      s = build();
      done.store(true);
    });
    while (FailPointRegistry::Instance().fired_count(site) == 0 &&
           !done.load()) {
      std::this_thread::yield();
    }
    EXPECT_FALSE(done.load()) << "build never reached " << site;
    during();
    builder.join();
    return s;
  }

  // One transaction of `ops` random inserts, updates and deletes over
  // `live`, with keys from NewKey.  A rolled-back transaction leaves
  // `live` as it was.
  void RunTxn(TableId table, std::vector<Rid>* live, int ops, bool commit,
              bool ascending = false) {
    std::vector<Rid> before = *live;
    Transaction* txn = engine_->Begin();
    for (int i = 0; i < ops; ++i) {
      uint64_t op = rng_.Uniform(3);
      if (op == 0 || live->empty()) {
        ASSERT_OK_AND_ASSIGN(Rid rid,
                             engine_->records()->InsertRecord(
                                 txn, table, NewRecord(NewKey(ascending))));
        live->push_back(rid);
        continue;
      }
      size_t victim = rng_.Uniform(live->size());
      Rid rid = (*live)[victim];
      if (op == 1) {
        ASSERT_OK(engine_->records()->DeleteRecord(txn, table, rid));
        (*live)[victim] = live->back();
        live->pop_back();
      } else {
        ASSERT_OK(engine_->records()->UpdateRecord(
            txn, table, rid, NewRecord(NewKey(ascending))));
      }
    }
    if (commit) {
      ASSERT_OK(engine_->Commit(txn));
    } else {
      ASSERT_OK(engine_->Rollback(txn));
      *live = std::move(before);
    }
  }

  // Deletes then restores `rids` in one rolled-back transaction.
  void DeleteAndRollBack(TableId table, const std::vector<Rid>& rids) {
    Transaction* txn = engine_->Begin();
    for (const Rid& rid : rids) {
      ASSERT_OK(engine_->records()->DeleteRecord(txn, table, rid));
    }
    ASSERT_OK(engine_->Rollback(txn));
  }

  Random rng_{20260808};
  uint64_t seq_ = 0;
};

TEST_P(RedoEquivalenceTest, RestartRedoReproducesForwardPages) {
  TableId table = MakeTable();
  std::vector<Rid> live = Populate(table, 2000);
  ASSERT_EQ(live.size(), 2000u);

  // Heap only: deletes free slots that later inserts reuse.
  for (int t = 0; t < 6; ++t) RunTxn(table, &live, 40, /*commit=*/t != 2);

  // SF build, held at its first side-file apply batch while updates fill
  // the side-file.  Its load ends with a pool flush, the last one in this
  // test: every change logged from here on reaches the crash only through
  // the log, so restart redo must rebuild it.
  BuildParams params;
  params.name = "by_payload";
  params.table = table;
  params.key_cols = {1};
  IndexId sf_index = kInvalidIndexId;
  ASSERT_OK(BuildHeldAt(
      "sf.apply", 0,
      [&] { return SfIndexBuilder(engine_.get()).Build(params, &sf_index); },
      [&] {
        for (int t = 0; t < 8; ++t) RunTxn(table, &live, 25, t != 5);
      }));
  ExpectIndexConsistent(table, sf_index);
  const Lsn after_flush = engine_->log()->next_lsn();

  // A unique NSF build meets two records with the highest key last, after
  // IB has inserted every other key: it rolls its batches back (CLRs of
  // kBatchInsert) and cancels.
  Transaction* txn = engine_->Begin();
  for (int i = 0; i < 2; ++i) {
    ASSERT_OK_AND_ASSIGN(
        Rid rid, engine_->records()->InsertRecord(
                     txn, table, NewRecord(999'999'999'999)));
    live.push_back(rid);
  }
  ASSERT_OK(engine_->Commit(txn));
  params.name = "by_key_unique";
  params.key_cols = {0};
  params.unique = true;
  IndexId index = kInvalidIndexId;
  Status s = NsfIndexBuilder(engine_.get()).Build(params, &index);
  ASSERT_TRUE(s.IsUniqueViolation()) << s.ToString();

  // An NSF build held after 30 IB batches.  Deletes of keys IB inserted
  // pseudo-delete them, deletes of keys it has not reached leave
  // tombstones, and rolling a delete back reactivates the entry.
  params.name = "by_key";
  params.unique = false;
  IndexId nsf_index = kInvalidIndexId;
  ASSERT_OK(BuildHeldAt(
      "nsf.insert_batch", 30,
      [&] { return NsfIndexBuilder(engine_.get()).Build(params, &nsf_index); },
      [&] {
        DeleteAndRollBack(table, {live.begin(), live.begin() + 20});
        DeleteAndRollBack(table, {live.begin() + 1900, live.begin() + 1920});
        for (int t = 0; t < 6; ++t) RunTxn(table, &live, 30, t != 4);
      }));
  ExpectIndexConsistent(table, nsf_index);

  // Ready index: GC the committed pseudo-deletes, then splits from random
  // and ascending inserts and tree CLRs from rollbacks.
  GcStats gc;
  ASSERT_OK(PseudoDeleteGC(engine_.get()).Run(nsf_index, &gc));
  EXPECT_GT(gc.removed, 0u);
  for (int t = 0; t < 12; ++t) {
    RunTxn(table, &live, 40, /*commit=*/t % 5 != 3, /*ascending=*/t % 2);
  }
  ExpectIndexConsistent(table, nsf_index);
  ExpectIndexConsistent(table, sf_index);
  ASSERT_OK(engine_->log()->FlushAll());

  // Since the last pool flush, the mix must have logged every kind of
  // change this test is about.
  std::map<uint8_t, int> btree_ops;
  int heap_clrs = 0, btree_clrs = 0;
  ASSERT_OK(engine_->log()->ScanDurable(after_flush, [&](const LogRecord& r) {
    if (r.rm_id == RmId::kBtree) {
      ++btree_ops[r.opcode];
      btree_clrs += r.type == LogRecordType::kClr;
    }
    heap_clrs += r.rm_id == RmId::kHeap && r.type == LogRecordType::kClr;
    return true;
  }));
  for (BtreeOp op :
       {BtreeOp::kInsertKey, BtreeOp::kPhysicalDelete, BtreeOp::kPseudoDelete,
        BtreeOp::kReactivate, BtreeOp::kBatchInsert, BtreeOp::kSplit,
        BtreeOp::kNewRoot, BtreeOp::kGcRemove}) {
    EXPECT_GT(btree_ops[static_cast<uint8_t>(op)], 0)
        << "no B+-tree record with opcode " << static_cast<int>(op);
  }
  EXPECT_GT(heap_clrs, 0);
  EXPECT_GT(btree_clrs, 0);

  const PageId page_count = engine_->disk()->PageCount();
  std::map<PageId, std::string> forward = LogicalPages(page_count);
  int sidefile_pages = 0, max_level = 0;
  for (const auto& [id, desc] : forward) {
    sidefile_pages += desc.find(" sidefile ") != std::string::npos;
    size_t at = desc.find(" level=");
    if (at != std::string::npos) {
      max_level = std::max(max_level, std::stoi(desc.substr(at + 7)));
    }
  }
  EXPECT_GE(sidefile_pages, 3) << "side-file never extended its chain";
  EXPECT_GE(max_level, 2) << "no internal split grew the tree";

  CrashAndRestart();
  EXPECT_EQ(recovery_stats_.loser_txns, 0u);
  EXPECT_GT(recovery_stats_.records_redone, 0u);
  std::map<PageId, std::string> redone = LogicalPages(page_count);
  for (PageId id = 0; id < page_count; ++id) {
    EXPECT_EQ(redone[id], forward[id]) << "page " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(Disks, RedoEquivalenceTest,
                         ::testing::Values(DiskKind::kInMemory,
                                           DiskKind::kFile),
                         DiskParamName);

}  // namespace
}  // namespace oib
