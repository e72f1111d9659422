// LogManager: the append-only write-ahead log.
//
// LSNs are byte offsets into the log stream plus one (so kInvalidLsn == 0
// never collides with a real record).  The log is split into a *durable*
// prefix (survives SimulateCrash) and a volatile tail; Flush() moves the
// boundary.  By default this models a disk-resident log without real I/O
// so crash tests stay deterministic; the durable prefix plays the role of
// the log file contents at the moment of a failure.
//
// AttachFile() adds a real file sink: Flush appends the newly drained
// bytes to the file and fsyncs *before* publishing the durable boundary,
// so `flushed_` never claims bytes the file does not hold.  At attach
// time the file is loaded and frame-validated; an incomplete or
// CRC-mismatched tail (a write torn by a crash) is truncated away.  Every
// frame is [len:u32][crc32c:u32][payload] — the masked CRC covers the
// payload, so a tear *inside* a frame body is detected, not replayed.
//
// Appends are reservation-based so concurrent appenders never serialize on
// a lock:
//  * Append reserves its byte range with a single fetch-add on the atomic
//    next-LSN counter, copies the framed record into a fixed ring buffer
//    outside any lock, and publishes via a per-slot seal (release store);
//  * a *drain* (run by Flush, or opportunistically by an appender that
//    finds the ring full) consumes sealed records in reservation order and
//    appends their bytes to the tail of a list of fixed-size segments
//    (kSegmentBytes).  Drained bytes never move afterwards: the log grows
//    by adding a segment, never by reallocating, so it has no growth
//    stalls, and readers parse frames in place — only a frame that
//    straddles two segments is assembled into a buffer;
//  * Flush(lsn) is group commit: one leader drains far enough to cover
//    `lsn` and then publishes the durable boundary for every record sealed
//    so far, so concurrent committers arriving behind it find their target
//    already durable via a lock-free atomic check.
// Records become durable only when Flush advances `flushed_`; bytes that
// were drained but not flushed are still volatile and are discarded by
// DropUnflushed, which therefore still yields a prefix-exact durable log.
//
// ScanDurable copies nothing but the segment pointers covering the
// requested suffix (under drain_mu_) and parses with the lock released:
// durable bytes never change, and only DropUnflushed and the destructor
// free segments, neither of which runs concurrently with a scan.
//
// Statistics (records/bytes appended, per-RM breakdown) feed the E4
// logging-overhead experiment.

#ifndef OIB_WAL_LOG_MANAGER_H_
#define OIB_WAL_LOG_MANAGER_H_

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "wal/log_record.h"

namespace oib {

struct LogStats {
  uint64_t records = 0;
  uint64_t bytes = 0;
  // Indexed by RmId (kNone..kSideFile).
  std::array<uint64_t, 4> records_by_rm{};
  std::array<uint64_t, 4> bytes_by_rm{};
  uint64_t flushes = 0;
};

class LogManager {
 public:
  // Append ring capacity (power of two).  It must exceed the largest
  // single log record; a record spanning a full page plus framing fits
  // comfortably.
  static constexpr size_t kDefaultRingBytes = 1 << 20;
  // Drained log bytes live in segments of this size (see file comment).
  static constexpr size_t kSegmentBytes = 1 << 20;

  explicit LogManager(size_t ring_bytes = kDefaultRingBytes);
  ~LogManager();

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  // Attaches a log file sink.  Must be called on an empty log (before any
  // Append).  Loads the file, validates every frame's length and CRC, and
  // truncates the first torn/incomplete frame and everything after it;
  // the surviving prefix becomes the durable log (flushed_lsn reflects
  // it) and new appends continue after it.  Failpoints: `wal.flush`
  // (error/short/torn/abort on the file write), `wal.fsync` (error on the
  // durability barrier).
  Status AttachFile(const std::string& path);

  // Bytes the file sink would need to replay from the attach-time load
  // (diagnostics; 0 when no file is attached).
  bool has_file() const { return wal_fd_ >= 0; }

  // Appends `rec`, assigning rec->lsn.  Does not flush.  Thread-safe and
  // lock-free on the common path.
  Status Append(LogRecord* rec);

  // Makes the log durable at least up to `lsn` (kInvalidLsn → everything
  // appended before the call).  Group commit: see file comment.
  Status Flush(Lsn lsn);
  Status FlushAll() { return Flush(kInvalidLsn); }

  // Random access read of the record at `lsn` (durable or volatile
  // region).  The record must have been fully appended.
  Status ReadRecord(Lsn lsn, LogRecord* rec);

  // Sequential scan of the *durable* log from `start_lsn` (or from the
  // beginning).  Calls fn for each record; stops early if fn returns false.
  // Reads only the segments covering [start_lsn, flushed): the cost is
  // proportional to the scanned suffix, not to the whole log.
  Status ScanDurable(Lsn start_lsn,
                     const std::function<bool(const LogRecord&)>& fn);

  // Single atomic loads: progress reporting reads these concurrently with
  // appenders and must never contend.
  Lsn next_lsn() const {
    return reserved_.load(std::memory_order_relaxed) + 1;
  }
  Lsn flushed_lsn() const {
    return flushed_.load(std::memory_order_acquire) + 1;
  }

  // Crash simulation: discards the volatile tail (ring contents plus any
  // drained-but-unflushed suffix).  Caller must have quiesced appenders.
  void DropUnflushed();

  LogStats stats() const;

  // Registers wal.{records,bytes,flushes,append_ns,flush_ns} with
  // `registry` (owner = this; the destructor detaches them).  The Env's
  // log outlives Engine incarnations, so a Restart re-attaching the same
  // names simply replaces identical entries.
  void AttachMetrics(obs::MetricsRegistry* registry);

 private:
  // Each record is framed as [len:u32][crc32c:u32][payload:len]; the
  // masked CRC covers the payload bytes.
  static constexpr size_t kFrameHeader = 8;
  // Seal slots (power of two).  A sealer that laps a slot whose previous
  // occupant has not been consumed yet helps drain until it frees up.
  static constexpr size_t kSealSlots = 1024;
  // Appends are timed 1-in-64: the clock read costs more than the append
  // itself on some hosts, so the untimed path pays only this relaxed tick.
  static constexpr uint64_t kAppendSampleMask = 63;

  // One published reservation.  start_p1 moves through
  //   0 (free) -> kSlotClaimed (claimed, fields not yet valid)
  //     -> start offset + 1 (sealed; end was written before the release
  //        store) -> 0 (consumed).
  // The claim step must be a CAS, not a load-then-store: a sealer that is
  // preempted between observing "free" and publishing would otherwise let
  // the next lap's sealer (same slot, ticket + kSealSlots) observe "free"
  // too, and their unsynchronized field writes can interleave into a torn
  // (start of lap N, end of lap N+1) range — which, once consumed, jumps
  // drained_ a whole lap forward past ranges still buffered in pending_,
  // wedging every later drain.
  static constexpr uint64_t kSlotClaimed = ~uint64_t{0};
  struct SealSlot {
    std::atomic<uint64_t> start_p1{0};
    uint64_t end = 0;
  };

  // Read-only view of log bytes [first_seg * kSegmentBytes, limit) held
  // in segments; valid without drain_mu_ for durable bytes.
  struct SegmentView {
    std::vector<const char*> segs;
    uint64_t first_seg = 0;
    uint64_t limit = 0;
    // Bytes [off, off + n), in place when they sit in one segment, else
    // assembled into *scratch.  Caller checks off + n <= limit.
    std::string_view Bytes(uint64_t off, size_t n, std::string* scratch) const;
  };
  // Validates the frame at `off` (length within the view, payload CRC)
  // and returns its payload; Corruption on a truncated or torn frame.
  static Status FramePayload(const SegmentView& view, uint64_t off,
                             std::string* scratch, std::string_view* payload);
  SegmentView ViewLocked(uint64_t start, uint64_t limit) const
      OIB_REQUIRES(drain_mu_);
  // Copies [off, off + n) into the segments, adding segments as needed.
  void StoreLocked(uint64_t off, const char* data, size_t n)
      OIB_REQUIRES(drain_mu_);
  // Frees every segment that holds no byte below `end`.
  void TruncateSegmentsLocked(uint64_t end) OIB_REQUIRES(drain_mu_);

  void RingWrite(uint64_t off, const char* data, size_t n);
  // Appends log bytes [flushed, target) to the log file, one segment at a
  // time, and fsyncs.
  // Bounded retry on transient (failpoint-injected) errors; on failure
  // the durable boundary must not advance.
  Status WriteFileSinkLocked(uint64_t flushed, uint64_t target)
      OIB_REQUIRES(drain_mu_);
  // Opportunistic drain used by appenders blocked on ring space or a
  // lapped seal slot; yields if another thread is already draining.
  void TryDrain();
  void ConsumeSealedLocked() OIB_REQUIRES(drain_mu_);
  // Drains until drained_ >= target.
  void DrainUntilLocked(uint64_t target_bytes) OIB_REQUIRES(drain_mu_);

  // --- hot, lock-free appender state ---
  std::atomic<uint64_t> reserved_{0};  // log bytes reserved (next_lsn - 1)
  std::atomic<uint64_t> seal_seq_{0};  // seal tickets issued
  std::atomic<uint64_t> drained_{0};   // bytes moved ring -> segments_
  std::atomic<uint64_t> flushed_{0};   // durable boundary (bytes)
  std::vector<char> ring_;  // fixed size (power of two) from construction
  const size_t ring_mask_;
  std::vector<SealSlot> slots_;

  // --- drain state ---
  // Acquired under flush_mu_ by the group-commit leader; TryDrain takes
  // it with a try-lock (order-check-free) from the append path.
  mutable sync::Mutex drain_mu_{sync::LockRank::kWalDrain, "wal.drain_mu"};
  // Seal tickets consumed.
  uint64_t consume_seq_ OIB_GUARDED_BY(drain_mu_) = 0;
  // Sealed ranges consumed out of byte order (ticket order and reservation
  // order can differ transiently between the two fetch-adds in Append);
  // min-heap by start offset, popped as the contiguous prefix extends.
  std::priority_queue<std::pair<uint64_t, uint64_t>,
                      std::vector<std::pair<uint64_t, uint64_t>>,
                      std::greater<>>
      pending_ OIB_GUARDED_BY(drain_mu_);
  // Drained bytes [0, drained_) (durable [0, flushed_)); byte `off` is at
  // segments_[off / kSegmentBytes][off % kSegmentBytes].  Segments are
  // never moved or resized, so pointers handed to ScanDurable stay valid.
  std::vector<std::unique_ptr<char[]>> segments_ OIB_GUARDED_BY(drain_mu_);
  // File sink (AttachFile); -1 = in-memory only.  The file always holds
  // exactly the bytes [0, flushed_) plus possibly a torn tail from a
  // failed flush attempt, which the next attempt overwrites in place.
  int wal_fd_ = -1;
  std::string wal_path_;

  // --- group commit ---
  // Serializes flush leaders; always acquired before drain_mu_.
  sync::Mutex flush_mu_{sync::LockRank::kWalFlush, "wal.flush_mu"};

  // --- statistics (lock-free cells; stats() snapshots them) ---
  std::atomic<uint64_t> records_{0};
  std::atomic<uint64_t> bytes_{0};
  std::array<std::atomic<uint64_t>, 4> records_by_rm_{};
  std::array<std::atomic<uint64_t>, 4> bytes_by_rm_{};
  std::atomic<uint64_t> flushes_{0};
  std::atomic<uint64_t> append_tick_{0};
  obs::Histogram append_ns_;  // sampled
  obs::Histogram flush_ns_;   // only flushes that moved the boundary
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace oib

#endif  // OIB_WAL_LOG_MANAGER_H_
