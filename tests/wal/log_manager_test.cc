#include "wal/log_manager.h"

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/random.h"

namespace oib {
namespace {

LogRecord MakeRec(TxnId txn, LogRecordType type, std::string redo = "") {
  LogRecord rec;
  rec.txn_id = txn;
  rec.type = type;
  rec.rm_id = RmId::kHeap;
  rec.opcode = 1;
  rec.page_id = 7;
  rec.redo = std::move(redo);
  return rec;
}

TEST(LogRecordTest, SerializationRoundTrip) {
  LogRecord rec;
  rec.prev_lsn = 123;
  rec.txn_id = 9;
  rec.type = LogRecordType::kClr;
  rec.rm_id = RmId::kBtree;
  rec.opcode = 42;
  rec.page_id = 88;
  rec.aux_id = 3;
  rec.undo_next_lsn = 55;
  rec.redo = "redo-bytes";
  rec.undo = "undo-bytes";

  std::string buf;
  rec.SerializeTo(&buf);
  LogRecord out;
  ASSERT_TRUE(LogRecord::DeserializeFrom(buf, &out).ok());
  EXPECT_EQ(out.prev_lsn, 123u);
  EXPECT_EQ(out.txn_id, 9u);
  EXPECT_EQ(out.type, LogRecordType::kClr);
  EXPECT_EQ(out.rm_id, RmId::kBtree);
  EXPECT_EQ(out.opcode, 42);
  EXPECT_EQ(out.page_id, 88u);
  EXPECT_EQ(out.aux_id, 3u);
  EXPECT_EQ(out.undo_next_lsn, 55u);
  EXPECT_EQ(out.redo, "redo-bytes");
  EXPECT_EQ(out.undo, "undo-bytes");
}

TEST(LogRecordTest, RedoUndoClassification) {
  LogRecord rec;
  rec.type = LogRecordType::kUpdate;
  EXPECT_TRUE(rec.RequiresRedo());
  EXPECT_TRUE(rec.RequiresUndo());
  rec.type = LogRecordType::kRedoOnly;
  EXPECT_TRUE(rec.RequiresRedo());
  EXPECT_FALSE(rec.RequiresUndo());
  rec.type = LogRecordType::kClr;
  EXPECT_TRUE(rec.RequiresRedo());
  EXPECT_FALSE(rec.RequiresUndo());
}

TEST(LogManagerTest, AppendAssignsMonotoneLsns) {
  LogManager log;
  LogRecord a = MakeRec(1, LogRecordType::kUpdate, "a");
  LogRecord b = MakeRec(1, LogRecordType::kUpdate, "b");
  ASSERT_TRUE(log.Append(&a).ok());
  ASSERT_TRUE(log.Append(&b).ok());
  EXPECT_GT(b.lsn, a.lsn);
}

TEST(LogManagerTest, ReadRecordRandomAccess) {
  LogManager log;
  LogRecord a = MakeRec(1, LogRecordType::kUpdate, "first");
  LogRecord b = MakeRec(2, LogRecordType::kCommit, "second");
  ASSERT_TRUE(log.Append(&a).ok());
  ASSERT_TRUE(log.Append(&b).ok());
  LogRecord out;
  ASSERT_TRUE(log.ReadRecord(a.lsn, &out).ok());
  EXPECT_EQ(out.redo, "first");
  ASSERT_TRUE(log.ReadRecord(b.lsn, &out).ok());
  EXPECT_EQ(out.redo, "second");
  EXPECT_EQ(out.txn_id, 2u);
}

TEST(LogManagerTest, CrashDropsUnflushedTail) {
  LogManager log;
  LogRecord a = MakeRec(1, LogRecordType::kUpdate, "durable");
  ASSERT_TRUE(log.Append(&a).ok());
  ASSERT_TRUE(log.Flush(a.lsn).ok());
  LogRecord b = MakeRec(1, LogRecordType::kUpdate, "volatile");
  ASSERT_TRUE(log.Append(&b).ok());
  log.DropUnflushed();

  int seen = 0;
  ASSERT_TRUE(log.ScanDurable(kInvalidLsn, [&](const LogRecord& rec) {
    ++seen;
    EXPECT_EQ(rec.redo, "durable");
    return true;
  }).ok());
  EXPECT_EQ(seen, 1);
}

TEST(LogManagerTest, ScanFromLsn) {
  LogManager log;
  std::vector<Lsn> lsns;
  for (int i = 0; i < 5; ++i) {
    LogRecord rec = MakeRec(1, LogRecordType::kUpdate, std::to_string(i));
    ASSERT_TRUE(log.Append(&rec).ok());
    lsns.push_back(rec.lsn);
  }
  ASSERT_TRUE(log.FlushAll().ok());
  std::vector<std::string> seen;
  ASSERT_TRUE(log.ScanDurable(lsns[2], [&](const LogRecord& rec) {
    seen.push_back(rec.redo);
    return true;
  }).ok());
  EXPECT_EQ(seen, (std::vector<std::string>{"2", "3", "4"}));
}

TEST(LogManagerTest, FlushIsIdempotentForDurableLsn) {
  LogManager log;
  LogRecord a = MakeRec(1, LogRecordType::kUpdate);
  ASSERT_TRUE(log.Append(&a).ok());
  ASSERT_TRUE(log.Flush(a.lsn).ok());
  Lsn flushed = log.flushed_lsn();
  ASSERT_TRUE(log.Flush(a.lsn).ok());
  EXPECT_EQ(log.flushed_lsn(), flushed);
}

TEST(LogManagerTest, StatsByResourceManager) {
  LogManager log;
  LogRecord a = MakeRec(1, LogRecordType::kUpdate);
  a.rm_id = RmId::kHeap;
  LogRecord b = MakeRec(1, LogRecordType::kUpdate);
  b.rm_id = RmId::kBtree;
  ASSERT_TRUE(log.Append(&a).ok());
  ASSERT_TRUE(log.Append(&b).ok());
  LogStats stats = log.stats();
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.records_by_rm[static_cast<size_t>(RmId::kHeap)], 1u);
  EXPECT_EQ(stats.records_by_rm[static_cast<size_t>(RmId::kBtree)], 1u);
  EXPECT_GT(stats.bytes, 0u);
}

// --- concurrency coverage for the reservation-based append path ---
// (suite name matches the TSan CI job's `Stress` test filter)

// Concurrent appenders must produce a dense LSN space: sorting all
// assigned LSNs and walking the frame lengths reconstructs the byte
// stream with no gaps or overlaps, and every record reads back intact.
TEST(LogManagerStressTest, ConcurrentAppendsAreDenseAndReadable) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 800;
  LogManager log;
  std::vector<std::vector<std::pair<Lsn, std::string>>> appended(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(7 * t + 1);
      appended[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        // Variable payload sizes so reservations interleave unevenly.
        std::string body = "t" + std::to_string(t) + ":" + std::to_string(i) +
                           std::string(rng.Uniform(60), 'x');
        LogRecord rec = MakeRec(t + 1, LogRecordType::kUpdate, body);
        ASSERT_TRUE(log.Append(&rec).ok());
        appended[t].emplace_back(rec.lsn, body);
      }
    });
  }
  for (auto& th : threads) th.join();

  std::map<Lsn, std::string> by_lsn;
  for (const auto& per_thread : appended) {
    for (const auto& [lsn, body] : per_thread) {
      ASSERT_TRUE(by_lsn.emplace(lsn, body).second) << "duplicate lsn " << lsn;
    }
  }
  ASSERT_EQ(by_lsn.size(), size_t{kThreads} * kPerThread);
  EXPECT_EQ(by_lsn.begin()->first, 1u);
  Lsn expect_next = 1;
  for (const auto& [lsn, body] : by_lsn) {
    EXPECT_EQ(lsn, expect_next) << "hole in the lsn space";
    LogRecord out;
    ASSERT_TRUE(log.ReadRecord(lsn, &out).ok());
    EXPECT_EQ(out.redo, body);
    std::string payload;
    out.SerializeTo(&payload);
    expect_next = lsn + 8 + payload.size();  // [len:u32][crc:u32][payload]
  }
  EXPECT_EQ(log.next_lsn(), expect_next);
}

// A ring much smaller than the appended volume forces appenders through
// the backpressure + help-drain path; everything must still flush and
// scan back in order.
TEST(LogManagerStressTest, TinyRingForcesDrainUnderConcurrency) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 600;
  LogManager log(64 * 1024);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // ~400-byte records: 4 threads * 600 * 400 ≈ 15x the ring.
        LogRecord rec =
            MakeRec(t + 1, LogRecordType::kUpdate, std::string(400, 'a' + t));
        ASSERT_TRUE(log.Append(&rec).ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_TRUE(log.FlushAll().ok());
  uint64_t seen = 0;
  Lsn prev = 0;
  ASSERT_TRUE(log.ScanDurable(kInvalidLsn, [&](const LogRecord& rec) {
    EXPECT_GT(rec.lsn, prev);
    prev = rec.lsn;
    ++seen;
    return true;
  }).ok());
  EXPECT_EQ(seen, uint64_t{kThreads} * kPerThread);
}

// Tiny records against the default (large) ring: the ring never exerts
// backpressure, so sealed-but-unconsumed slots pile up until sealers lap
// the seal array and must claim slots concurrently with the drain freeing
// them — the regression surface for the torn-seal race (a sealer preempted
// between observing a free slot and publishing let the next lap's sealer
// in, and their interleaved start/end writes produced a range spanning a
// whole lap, wedging DrainUntilLocked behind unpoppable pending ranges).
// A racing flusher keeps ConsumeSealedLocked live throughout.  With the
// bug, this hangs or loses records; with CAS claiming, the log is dense.
TEST(LogManagerStressTest, SealSlotLappingKeepsRangesIntact) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 4000;  // ~31 laps of the 1024 seal slots
  LogManager log;
  std::atomic<bool> done{false};
  std::thread flusher([&] {
    while (!done.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(log.FlushAll().ok());
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        LogRecord rec = MakeRec(t + 1, LogRecordType::kUpdate, "s");
        ASSERT_TRUE(log.Append(&rec).ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  done.store(true, std::memory_order_relaxed);
  flusher.join();
  ASSERT_TRUE(log.FlushAll().ok());
  uint64_t seen = 0;
  Lsn prev = 0;
  uint64_t next = 1;
  ASSERT_TRUE(log.ScanDurable(kInvalidLsn, [&](const LogRecord& rec) {
    EXPECT_GT(rec.lsn, prev);
    EXPECT_EQ(rec.lsn, next) << "hole or overlap in the drained stream";
    prev = rec.lsn;
    std::string payload;
    rec.SerializeTo(&payload);
    next = rec.lsn + 8 + payload.size();
    ++seen;
    return true;
  }).ok());
  EXPECT_EQ(seen, uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(log.next_lsn(), next);
}

// Appenders race a group-commit flusher; after a crash at whatever
// boundary the last flush reached, the durable log must be *prefix
// exact*: every record that starts below flushed_lsn is present and
// intact, no record at or beyond it survives, and the scan walks frames
// back-to-back with no torn bytes.
TEST(LogManagerStressTest, CrashAtRandomFlushBoundaryKeepsExactPrefix) {
  for (uint64_t round = 0; round < 3; ++round) {
    constexpr int kThreads = 3;
    constexpr int kPerThread = 400;
    LogManager log(128 * 1024);
    std::atomic<uint64_t> last_lsn{0};
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Random rng(round * 100 + t);
        for (int i = 0; i < kPerThread; ++i) {
          std::string body =
              std::to_string(t) + ":" + std::string(rng.Uniform(100), 'p');
          LogRecord rec = MakeRec(t + 1, LogRecordType::kUpdate, body);
          ASSERT_TRUE(log.Append(&rec).ok());
          uint64_t cur = last_lsn.load();
          while (rec.lsn > cur && !last_lsn.compare_exchange_weak(cur, rec.lsn)) {
          }
        }
      });
    }
    // Group-commit flusher: keeps moving the durable boundary to a recent
    // lsn while appends are still in flight.
    std::thread flusher([&] {
      Random rng(round + 42);
      while (!stop.load()) {
        Lsn target = last_lsn.load();
        if (target != kInvalidLsn && rng.Uniform(2) == 0) {
          ASSERT_TRUE(log.Flush(target).ok());
        }
        std::this_thread::yield();
      }
    });
    for (auto& th : threads) th.join();
    stop.store(true);
    flusher.join();

    // One more flush to a random mid-stream lsn, then crash: the boundary
    // lands wherever that flush (plus group-commit overshoot) put it.
    ASSERT_TRUE(log.Flush(1 + last_lsn.load() / 2).ok());
    Lsn boundary = log.flushed_lsn();
    log.DropUnflushed();
    EXPECT_EQ(log.flushed_lsn(), boundary);
    EXPECT_EQ(log.next_lsn(), boundary);  // tail discarded exactly

    Lsn expect_next = 1;
    uint64_t seen = 0;
    ASSERT_TRUE(log.ScanDurable(kInvalidLsn, [&](const LogRecord& rec) {
      EXPECT_EQ(rec.lsn, expect_next) << "durable log has a hole";
      std::string payload;
      rec.SerializeTo(&payload);
      expect_next = rec.lsn + 8 + payload.size();
      ++seen;
      return true;
    }).ok());
    // Prefix exactness: the scan consumed every durable byte (no torn
    // record before the boundary, nothing readable past it).
    EXPECT_EQ(expect_next, boundary);
    EXPECT_GT(seen, 0u);
  }
}

// next_lsn()/flushed_lsn() are single atomic loads — hammer them from a
// reader thread while appends and flushes run, and require monotonicity.
TEST(LogManagerStressTest, ProgressReadsNeverGoBackwards) {
  LogManager log;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    Lsn next_seen = 0, flushed_seen = 0;
    while (!stop.load()) {
      Lsn n = log.next_lsn();
      Lsn f = log.flushed_lsn();
      EXPECT_GE(n, next_seen);
      EXPECT_GE(f, flushed_seen);
      EXPECT_LE(f, log.next_lsn());
      next_seen = n;
      flushed_seen = f;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < 2000; ++i) {
        LogRecord rec = MakeRec(t + 1, LogRecordType::kUpdate, "body");
        ASSERT_TRUE(log.Append(&rec).ok());
        if (i % 64 == 0) {
          ASSERT_TRUE(log.Flush(rec.lsn).ok());
        }
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  reader.join();
}

// --- file sink (AttachFile) ---

// ---------------------------------------------------------------------
// Segmented log storage: frames that straddle kSegmentBytes boundaries,
// suffix scans, and crash truncation in the middle of a segment.

constexpr uint64_t kSeg = LogManager::kSegmentBytes;
constexpr uint64_t kFrameHeaderBytes = 8;  // [len:u32][crc32c:u32]

// Bytes the framed record MakeRec(.., redo of `n` bytes) occupies.
uint64_t FrameBytes(size_t n) {
  std::string buf;
  MakeRec(1, LogRecordType::kUpdate, std::string(n, 'x')).SerializeTo(&buf);
  return kFrameHeaderBytes + buf.size();
}

// A body that identifies record `i` in every byte, so a mis-assembled
// straddling frame cannot compare equal by accident.
std::string Body(size_t i, size_t n) {
  std::string b(n, '\0');
  for (size_t k = 0; k < n; ++k) b[k] = char('a' + (i * 7 + k) % 26);
  return b;
}

bool Straddles(Lsn lsn, Lsn next) {
  return (lsn - 1) / kSeg != (next - 2) / kSeg;
}

// Appends records until the log holds more than `min_bytes`, sized so the
// frames meet segment boundaries in every way: segment s's boundary is
// met by a frame that ends exactly on it (s % 3 == 0), one whose 8-byte
// header it splits (s % 3 == 1), or one whose payload it splits
// (s % 3 == 2).  Returns (lsn, body) per record.
std::vector<std::pair<Lsn, std::string>> AppendAcrossSegments(
    LogManager* log, uint64_t min_bytes) {
  std::vector<std::pair<Lsn, std::string>> out;
  const uint64_t overhead = FrameBytes(0);
  for (size_t i = 0; log->next_lsn() - 1 < min_bytes; ++i) {
    uint64_t off = log->next_lsn() - 1;
    uint64_t room = kSeg - off % kSeg;
    size_t n = 90000 + (i * 131) % 5000;
    if (room < 200000 && room > overhead + 8) {
      switch (off / kSeg % 3) {
        case 0: n = size_t(room - overhead); break;
        case 1: n = size_t(room - overhead - 3); break;
        default: n = size_t(room - overhead + 5000); break;
      }
    }
    EXPECT_EQ(FrameBytes(n), overhead + n);  // sizes stay exact
    LogRecord rec = MakeRec(1, LogRecordType::kUpdate, Body(i, n));
    EXPECT_TRUE(log->Append(&rec).ok());
    out.emplace_back(rec.lsn, rec.redo);
  }
  return out;
}

TEST(LogSegmentTest, StraddlingFramesReadBackThroughReadAndScan) {
  LogManager log;
  auto recs = AppendAcrossSegments(&log, 5 * kSeg + kSeg / 2);
  ASSERT_TRUE(log.FlushAll().ok());
  size_t straddling = 0, split_headers = 0;
  for (size_t i = 0; i < recs.size(); ++i) {
    Lsn next = i + 1 < recs.size() ? recs[i + 1].first : log.next_lsn();
    if (Straddles(recs[i].first, next)) ++straddling;
    uint64_t in = (recs[i].first - 1) % kSeg;
    if (in + kFrameHeaderBytes > kSeg) ++split_headers;
  }
  EXPECT_GE(straddling, 3u);
  EXPECT_GE(split_headers, 1u);
  // Random access, including the volatile-free durable region.
  for (const auto& [lsn, body] : recs) {
    LogRecord out;
    ASSERT_TRUE(log.ReadRecord(lsn, &out).ok()) << lsn;
    EXPECT_EQ(out.lsn, lsn);
    EXPECT_EQ(out.redo, body) << "lsn " << lsn;
  }
  size_t k = 0;
  ASSERT_TRUE(log.ScanDurable(kInvalidLsn, [&](const LogRecord& rec) {
    EXPECT_LT(k, recs.size());
    if (k < recs.size()) {
      EXPECT_EQ(rec.lsn, recs[k].first);
      EXPECT_EQ(rec.redo, recs[k].second);
    }
    ++k;
    return true;
  }).ok());
  EXPECT_EQ(k, recs.size());
}

TEST(LogSegmentTest, ScanFromMidLogYieldsExactlyTheSuffix) {
  LogManager log;
  auto recs = AppendAcrossSegments(&log, 3 * kSeg);
  ASSERT_TRUE(log.FlushAll().ok());
  // Start inside the third segment, at a record boundary.
  size_t from = 0;
  while (recs[from].first - 1 < 2 * kSeg + 1000) ++from;
  size_t k = from;
  ASSERT_TRUE(log.ScanDurable(recs[from].first, [&](const LogRecord& rec) {
    EXPECT_LT(k, recs.size());
    if (k < recs.size()) {
      EXPECT_EQ(rec.lsn, recs[k].first);
      EXPECT_EQ(rec.redo, recs[k].second);
    }
    ++k;
    return true;
  }).ok());
  EXPECT_EQ(k, recs.size());
  // A start at the durable end yields nothing.
  bool called = false;
  ASSERT_TRUE(log.ScanDurable(log.flushed_lsn(), [&](const LogRecord&) {
    called = true;
    return true;
  }).ok());
  EXPECT_FALSE(called);
}

TEST(LogSegmentTest, DropUnflushedMidSegmentThenAppendMore) {
  LogManager log;
  auto durable = AppendAcrossSegments(&log, kSeg + kSeg / 2);
  ASSERT_TRUE(log.FlushAll().ok());
  const Lsn boundary = log.flushed_lsn();
  ASSERT_NE((boundary - 1) % kSeg, 0u);  // the cut is inside a segment
  // A volatile tail reaching two segments further, then the crash.
  for (int i = 0; i < 40; ++i) {
    LogRecord rec = MakeRec(2, LogRecordType::kUpdate, Body(1000 + i, 60000));
    ASSERT_TRUE(log.Append(&rec).ok());
  }
  log.DropUnflushed();
  EXPECT_EQ(log.flushed_lsn(), boundary);
  EXPECT_EQ(log.next_lsn(), boundary);
  // New records reuse the dropped range and cross segment boundaries.
  std::vector<std::pair<Lsn, std::string>> after;
  for (int i = 0; i < 40; ++i) {
    LogRecord rec = MakeRec(3, LogRecordType::kUpdate, Body(2000 + i, 70001));
    ASSERT_TRUE(log.Append(&rec).ok());
    after.emplace_back(rec.lsn, rec.redo);
  }
  EXPECT_EQ(after.front().first, boundary);
  ASSERT_TRUE(log.FlushAll().ok());
  std::vector<std::pair<Lsn, std::string>> all = durable;
  all.insert(all.end(), after.begin(), after.end());
  std::vector<std::pair<Lsn, std::string>> scanned;
  ASSERT_TRUE(log.ScanDurable(kInvalidLsn, [&](const LogRecord& rec) {
    scanned.emplace_back(rec.lsn, rec.redo);
    return true;
  }).ok());
  EXPECT_EQ(scanned, all);
  LogRecord out;
  ASSERT_TRUE(log.ReadRecord(after[20].first, &out).ok());
  EXPECT_EQ(out.redo, after[20].second);
}

class LogFileSinkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPointRegistry::Instance().Reset();
    path_ = (std::filesystem::temp_directory_path() /
             ("oib_wal_test_" + std::to_string(::getpid())))
                .string();
    std::filesystem::remove(path_);
  }
  void TearDown() override {
    FailPointRegistry::Instance().Reset();
    std::filesystem::remove(path_);
  }
  // Flips one byte of the log file in place.
  void FlipByte(long offset) {
    std::FILE* f = std::fopen(path_.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    std::fputc(c ^ 0x40, f);
    std::fclose(f);
  }
  std::vector<std::string> ScanBodies(LogManager* log) {
    std::vector<std::string> bodies;
    EXPECT_TRUE(log->ScanDurable(kInvalidLsn, [&](const LogRecord& rec) {
      bodies.push_back(rec.redo);
      return true;
    }).ok());
    return bodies;
  }
  std::string path_;
};

TEST_F(LogFileSinkTest, RoundTripAcrossReattach) {
  Lsn flushed;
  {
    LogManager log;
    ASSERT_TRUE(log.AttachFile(path_).ok());
    EXPECT_TRUE(log.has_file());
    for (int i = 0; i < 5; ++i) {
      LogRecord rec = MakeRec(1, LogRecordType::kUpdate, "rec" + std::to_string(i));
      ASSERT_TRUE(log.Append(&rec).ok());
    }
    ASSERT_TRUE(log.FlushAll().ok());
    flushed = log.flushed_lsn();
  }
  {
    LogManager log;
    ASSERT_TRUE(log.AttachFile(path_).ok());
    // The durable prefix is rebuilt from the file, byte-exact.
    EXPECT_EQ(log.flushed_lsn(), flushed);
    EXPECT_EQ(ScanBodies(&log),
              (std::vector<std::string>{"rec0", "rec1", "rec2", "rec3", "rec4"}));
    // New appends continue after the recovered prefix.
    LogRecord rec = MakeRec(2, LogRecordType::kCommit, "rec5");
    ASSERT_TRUE(log.Append(&rec).ok());
    EXPECT_GE(rec.lsn, flushed);
    ASSERT_TRUE(log.FlushAll().ok());
  }
  {
    LogManager log;
    ASSERT_TRUE(log.AttachFile(path_).ok());
    EXPECT_EQ(ScanBodies(&log).size(), 6u);
  }
}

TEST_F(LogFileSinkTest, AttachRequiresEmptyLog) {
  LogManager log;
  LogRecord rec = MakeRec(1, LogRecordType::kUpdate, "x");
  ASSERT_TRUE(log.Append(&rec).ok());
  EXPECT_TRUE(log.AttachFile(path_).IsInvalidArgument());
}

// The satellite regression test: a torn write *inside* a frame body (all
// length fields intact) must truncate the scan tail, not replay garbage.
TEST_F(LogFileSinkTest, ByteFlippedFrameBodyTruncatesTail) {
  Lsn second_lsn;
  {
    LogManager log;
    ASSERT_TRUE(log.AttachFile(path_).ok());
    LogRecord a = MakeRec(1, LogRecordType::kUpdate, "good");
    LogRecord b = MakeRec(1, LogRecordType::kUpdate, "flipped");
    LogRecord c = MakeRec(1, LogRecordType::kCommit, "unreachable");
    ASSERT_TRUE(log.Append(&a).ok());
    ASSERT_TRUE(log.Append(&b).ok());
    ASSERT_TRUE(log.Append(&c).ok());
    ASSERT_TRUE(log.FlushAll().ok());
    second_lsn = b.lsn;
  }
  // Flip one byte inside b's payload: frame starts at lsn - 1, payload at
  // frame + 8.  The length prefix stays valid, so only the CRC can catch it.
  FlipByte(long(second_lsn - 1 + 8 + 2));
  {
    LogManager log;
    ASSERT_TRUE(log.AttachFile(path_).ok());
    // Everything from the corrupt frame on is untrustworthy and gone —
    // including c, whose own frame is intact.
    EXPECT_EQ(ScanBodies(&log), (std::vector<std::string>{"good"}));
    EXPECT_EQ(log.flushed_lsn(), second_lsn);
  }
}

TEST_F(LogFileSinkTest, IncompleteTailFrameTruncatedAtAttach) {
  Lsn second_lsn;
  {
    LogManager log;
    ASSERT_TRUE(log.AttachFile(path_).ok());
    LogRecord a = MakeRec(1, LogRecordType::kUpdate, "keep");
    LogRecord b = MakeRec(1, LogRecordType::kUpdate, "torn-off");
    ASSERT_TRUE(log.Append(&a).ok());
    ASSERT_TRUE(log.Append(&b).ok());
    ASSERT_TRUE(log.FlushAll().ok());
    second_lsn = b.lsn;
  }
  // Chop the file mid-way through b's frame, as a crash mid-write would.
  std::filesystem::resize_file(path_, second_lsn - 1 + 3);
  {
    LogManager log;
    ASSERT_TRUE(log.AttachFile(path_).ok());
    EXPECT_EQ(ScanBodies(&log), (std::vector<std::string>{"keep"}));
    // Appending after recovery reuses the truncated range cleanly.
    LogRecord c = MakeRec(2, LogRecordType::kCommit, "after");
    ASSERT_TRUE(log.Append(&c).ok());
    ASSERT_TRUE(log.FlushAll().ok());
  }
  {
    LogManager log;
    ASSERT_TRUE(log.AttachFile(path_).ok());
    EXPECT_EQ(ScanBodies(&log), (std::vector<std::string>{"keep", "after"}));
  }
}

TEST_F(LogFileSinkTest, TransientFlushErrorIsRetried) {
  LogManager log;
  ASSERT_TRUE(log.AttachFile(path_).ok());
  FailPointRegistry::Instance().Arm("wal.flush");  // fires once
  LogRecord rec = MakeRec(1, LogRecordType::kCommit, "retried");
  ASSERT_TRUE(log.Append(&rec).ok());
  ASSERT_TRUE(log.Flush(rec.lsn).ok());
  EXPECT_EQ(FailPointRegistry::Instance().fired_count("wal.flush"), 1);
  EXPECT_GE(log.flushed_lsn(), rec.lsn);
}

TEST_F(LogFileSinkTest, ShortWriteIsRetriedAndRepaired) {
  {
    LogManager log;
    ASSERT_TRUE(log.AttachFile(path_).ok());
    FailPointPolicy policy;
    policy.action = FailPointAction::kShortWrite;
    policy.arg = 3;  // only 3 bytes of the flush land the first time
    FailPointRegistry::Instance().ArmPolicy("wal.flush", policy);
    LogRecord rec = MakeRec(1, LogRecordType::kCommit, "whole");
    ASSERT_TRUE(log.Append(&rec).ok());
    ASSERT_TRUE(log.Flush(rec.lsn).ok());
  }
  LogManager log;
  ASSERT_TRUE(log.AttachFile(path_).ok());
  EXPECT_EQ(ScanBodies(&log), (std::vector<std::string>{"whole"}));
}

TEST_F(LogFileSinkTest, PersistentFlushErrorLeavesBoundaryBehind) {
  LogManager log;
  ASSERT_TRUE(log.AttachFile(path_).ok());
  FailPointPolicy policy;
  policy.action = FailPointAction::kReturnError;
  policy.max_fires = -1;
  FailPointRegistry::Instance().ArmPolicy("wal.flush", policy);
  LogRecord rec = MakeRec(1, LogRecordType::kCommit, "stuck");
  ASSERT_TRUE(log.Append(&rec).ok());
  Lsn before = log.flushed_lsn();
  EXPECT_TRUE(log.Flush(rec.lsn).IsInjected());
  EXPECT_EQ(log.flushed_lsn(), before);
  // Once the fault clears, the same flush goes through.
  FailPointRegistry::Instance().Disarm("wal.flush");
  ASSERT_TRUE(log.Flush(rec.lsn).ok());
  EXPECT_GE(log.flushed_lsn(), rec.lsn);
}

TEST_F(LogFileSinkTest, FsyncFailpointIsRetried) {
  LogManager log;
  ASSERT_TRUE(log.AttachFile(path_).ok());
  FailPointRegistry::Instance().Arm("wal.fsync");
  LogRecord rec = MakeRec(1, LogRecordType::kCommit, "synced");
  ASSERT_TRUE(log.Append(&rec).ok());
  ASSERT_TRUE(log.Flush(rec.lsn).ok());
  EXPECT_EQ(FailPointRegistry::Instance().fired_count("wal.fsync"), 1);
}

// A torn flush kills the process (torn-implies-death invariant) and the
// attach-time scan in the next process discards the scrambled tail.
TEST_F(LogFileSinkTest, TornFlushKillsProcessAndPrefixSurvives) {
  {
    LogManager log;
    ASSERT_TRUE(log.AttachFile(path_).ok());
    LogRecord a = MakeRec(1, LogRecordType::kUpdate, "durable");
    ASSERT_TRUE(log.Append(&a).ok());
    ASSERT_TRUE(log.FlushAll().ok());
  }
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: tear the next flush 4 bytes in.  FailPointHardAbort SIGKILLs,
    // so nothing below the flush call runs.
    LogManager log;
    if (!log.AttachFile(path_).ok()) _exit(2);
    FailPointPolicy policy;
    policy.action = FailPointAction::kTornWrite;
    policy.arg = 4;
    FailPointRegistry::Instance().ArmPolicy("wal.flush", policy);
    LogRecord b = MakeRec(1, LogRecordType::kCommit, "torn-away");
    if (!log.Append(&b).ok()) _exit(3);
    (void)log.FlushAll();
    _exit(4);  // unreachable if the failpoint fired
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  EXPECT_EQ(WTERMSIG(wstatus), SIGKILL);

  LogManager log;
  ASSERT_TRUE(log.AttachFile(path_).ok());
  EXPECT_EQ(ScanBodies(&log), (std::vector<std::string>{"durable"}));
}

TEST_F(LogFileSinkTest, RoundTripOverSeveralSegments) {
  std::vector<std::pair<Lsn, std::string>> recs;
  Lsn flushed;
  {
    LogManager log;
    ASSERT_TRUE(log.AttachFile(path_).ok());
    // Several flushes, so the sink writes ranges that start and end
    // inside segments as well as ranges spanning them.
    for (int round = 0; round < 4; ++round) {
      auto part = AppendAcrossSegments(&log, (round + 1) * kSeg - kSeg / 3);
      recs.insert(recs.end(), part.begin(), part.end());
      ASSERT_TRUE(log.FlushAll().ok());
    }
    flushed = log.flushed_lsn();
  }
  ASSERT_GT(flushed - 1, 3 * kSeg);
  EXPECT_EQ(std::filesystem::file_size(path_), flushed - 1);
  LogManager log;
  ASSERT_TRUE(log.AttachFile(path_).ok());
  EXPECT_EQ(log.flushed_lsn(), flushed);
  std::vector<std::pair<Lsn, std::string>> scanned;
  ASSERT_TRUE(log.ScanDurable(kInvalidLsn, [&](const LogRecord& rec) {
    scanned.emplace_back(rec.lsn, rec.redo);
    return true;
  }).ok());
  EXPECT_EQ(scanned, recs);
}

TEST_F(LogFileSinkTest, ByteFlippedStraddlingFrameTruncatesTail) {
  std::vector<std::pair<Lsn, std::string>> recs;
  Lsn victim = kInvalidLsn, victim_next = kInvalidLsn;
  {
    LogManager log;
    ASSERT_TRUE(log.AttachFile(path_).ok());
    recs = AppendAcrossSegments(&log, 3 * kSeg + kSeg / 2);
    ASSERT_TRUE(log.FlushAll().ok());
    // The last frame whose payload straddles a boundary, with records
    // after it that must vanish too.
    for (size_t i = 0; i + 2 < recs.size(); ++i) {
      if (Straddles(recs[i].first, recs[i + 1].first) &&
          (recs[i].first - 1) % kSeg + kFrameHeaderBytes < kSeg) {
        victim = recs[i].first;
        victim_next = recs[i + 1].first;
      }
    }
  }
  ASSERT_NE(victim, kInvalidLsn);
  // Flip a payload byte just past the boundary: only the CRC of the
  // assembled frame can catch it.
  uint64_t boundary = ((victim - 1) / kSeg + 1) * kSeg;
  ASSERT_LT(boundary + 5, victim_next - 1);
  FlipByte(long(boundary + 5));
  LogManager log;
  ASSERT_TRUE(log.AttachFile(path_).ok());
  EXPECT_EQ(log.flushed_lsn(), victim);
  EXPECT_EQ(std::filesystem::file_size(path_), victim - 1);
  std::vector<std::pair<Lsn, std::string>> scanned;
  ASSERT_TRUE(log.ScanDurable(kInvalidLsn, [&](const LogRecord& rec) {
    scanned.emplace_back(rec.lsn, rec.redo);
    return true;
  }).ok());
  std::vector<std::pair<Lsn, std::string>> expect;
  for (const auto& r : recs) {
    if (r.first < victim) expect.push_back(r);
  }
  EXPECT_EQ(scanned, expect);
}

}  // namespace
}  // namespace oib
