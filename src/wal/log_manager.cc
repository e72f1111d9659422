#include "wal/log_manager.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <thread>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/posix_io.h"
#include "obs/trace.h"

namespace oib {

namespace {

// Retry budget for transient (failpoint-injected) file-sink errors.
constexpr int kMaxFileAttempts = 4;
constexpr uint32_t kBackoffBaseUs = 50;

}  // namespace

LogManager::LogManager(size_t ring_bytes)
    : ring_(ring_bytes), ring_mask_(ring_bytes - 1), slots_(kSealSlots) {}

LogManager::~LogManager() {
  if (metrics_ != nullptr) metrics_->DetachOwner(this);
  if (wal_fd_ >= 0) ::close(wal_fd_);
}

void LogManager::AttachMetrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  registry->RegisterValueFn(
      "wal.records", [this] { return records_.load(std::memory_order_relaxed); },
      this);
  registry->RegisterValueFn(
      "wal.bytes", [this] { return bytes_.load(std::memory_order_relaxed); },
      this);
  registry->RegisterValueFn(
      "wal.flushes",
      [this] { return flushes_.load(std::memory_order_relaxed); }, this);
  // Reserved vs flushed byte positions: their difference is the flushed-LSN
  // lag (bytes appended but not yet durable), the quantity the time-series
  // sampler plots to show WAL backpressure over a build.
  registry->RegisterValueFn(
      "wal.reserved_bytes",
      [this] { return reserved_.load(std::memory_order_relaxed); }, this);
  registry->RegisterValueFn(
      "wal.flushed_bytes",
      [this] { return flushed_.load(std::memory_order_relaxed); }, this);
  registry->RegisterHistogram("wal.append_ns", &append_ns_, this);
  registry->RegisterHistogram("wal.flush_ns", &flush_ns_, this);
}

Status LogManager::AttachFile(const std::string& path) {
  sync::MutexLock fl(&flush_mu_);
  sync::MutexLock dg(&drain_mu_);
  if (reserved_.load(std::memory_order_acquire) != 0 || wal_fd_ >= 0) {
    return Status::InvalidArgument(
        "AttachFile requires an empty log with no file attached");
  }
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  // Load the file one segment at a time straight into the segment list,
  // then validate frame by frame; the first incomplete or CRC-mismatched
  // frame (a write torn by the last crash) ends the trustworthy prefix.
  struct stat st;
  Status s = ::fstat(fd, &st) == 0
                 ? Status::OK()
                 : Status::IoError("fstat " + path + ": " +
                                   std::strerror(errno));
  const uint64_t size = s.ok() ? uint64_t(st.st_size) : 0;
  for (uint64_t off = 0; s.ok() && off < size; off += kSegmentBytes) {
    segments_.emplace_back(new char[kSegmentBytes]);
    s = PreadFull(fd, segments_.back().get(),
                  size_t(std::min<uint64_t>(kSegmentBytes, size - off)), off);
  }
  uint64_t pos = 0;
  if (s.ok()) {
    SegmentView view = ViewLocked(0, size);
    std::string scratch;
    std::string_view payload;
    while (FramePayload(view, pos, &scratch, &payload).ok()) {
      pos += kFrameHeader + payload.size();
    }
    if (pos < size && ::ftruncate(fd, off_t(pos)) != 0) {
      s = Status::IoError(std::string("ftruncate: ") + std::strerror(errno));
    }
  }
  if (!s.ok()) {
    ::close(fd);
    segments_.clear();
    return s;
  }
  TruncateSegmentsLocked(pos);
  wal_fd_ = fd;
  wal_path_ = path;
  drained_.store(pos, std::memory_order_relaxed);
  flushed_.store(pos, std::memory_order_relaxed);
  reserved_.store(pos, std::memory_order_release);
  return Status::OK();
}

Status LogManager::WriteFileSinkLocked(uint64_t flushed, uint64_t target) {
  if (wal_fd_ < 0 || target <= flushed) return Status::OK();
  const SegmentView view = ViewLocked(flushed, target);
  // Writes log bytes [from, to) at the same file offsets, one segment-sized
  // piece at a time.
  auto write_range = [this, &view](uint64_t from, uint64_t to) -> Status {
    for (uint64_t off = from; off < to;) {
      size_t n = size_t(std::min<uint64_t>(
          to - off, kSegmentBytes - off % kSegmentBytes));
      OIB_RETURN_IF_ERROR(
          PwriteFull(wal_fd_, view.Bytes(off, n, nullptr).data(), n, off));
      off += n;
    }
    return Status::OK();
  };
  Status s;
  for (int attempt = 1; attempt <= kMaxFileAttempts; ++attempt) {
    if (attempt > 1) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(kBackoffBaseUs << (attempt - 2)));
    }
    s = [&]() -> Status {
      FailPointHit hit;
      OIB_FAIL_POINT_HIT("wal.flush", hit);
      size_t n = size_t(target - flushed);
      if (hit.action == FailPointAction::kReturnError) {
        return Status::Injected("wal.flush");
      }
      if (hit.action == FailPointAction::kShortWrite) {
        // A prefix lands; flushed_ does not advance, so the retry (or the
        // next flush leader) rewrites the same range in place and the
        // attach-time scan truncates it if the process dies first.
        size_t k = n > 0 ? std::min(size_t(hit.arg), n - 1) : 0;
        OIB_RETURN_IF_ERROR(write_range(flushed, flushed + k));
        return Status::Injected("wal.flush: short write");
      }
      if (hit.action == FailPointAction::kTornWrite) {
        // Crash mid-flush: a scrambled tail lands and the process dies.
        std::string scratch;
        std::string torn(view.Bytes(flushed, n, &scratch));
        for (size_t i = std::min(size_t(hit.arg), n > 0 ? n - 1 : 0);
             i < torn.size(); ++i) {
          torn[i] = char(torn[i] ^ 0xa5);
        }
        (void)PwriteFull(wal_fd_, torn.data(), torn.size(), flushed);
        FailPointHardAbort("wal.flush");
      }
      OIB_RETURN_IF_ERROR(write_range(flushed, target));
      OIB_FAIL_POINT("wal.fsync");
      if (::fdatasync(wal_fd_) != 0) {
        return Status::IoError(std::string("fdatasync: ") +
                               std::strerror(errno));
      }
      return Status::OK();
    }();
    if (s.ok()) return s;
    if (!s.IsInjected() && !s.IsIoError()) break;
  }
  return s;
}

std::string_view LogManager::SegmentView::Bytes(uint64_t off, size_t n,
                                                std::string* scratch) const {
  uint64_t seg = off / kSegmentBytes;
  size_t in = size_t(off % kSegmentBytes);
  const char* base = segs[size_t(seg - first_seg)];
  if (in + n <= kSegmentBytes) return std::string_view(base + in, n);
  // Straddles a segment boundary: assemble the pieces.
  scratch->resize(n);
  for (size_t done = 0;;) {
    size_t piece = std::min(n - done, kSegmentBytes - in);
    std::memcpy(scratch->data() + done, base + in, piece);
    done += piece;
    if (done == n) break;
    in = 0;
    base = segs[size_t(++seg - first_seg)];
  }
  return *scratch;
}

Status LogManager::FramePayload(const SegmentView& view, uint64_t off,
                                std::string* scratch,
                                std::string_view* payload) {
  if (off + kFrameHeader > view.limit) {
    return Status::Corruption("lsn beyond log end");
  }
  char hdr[kFrameHeader];
  std::memcpy(hdr, view.Bytes(off, kFrameHeader, scratch).data(),
              kFrameHeader);
  uint32_t len = DecodeFixed32(hdr);
  if (off + kFrameHeader + len > view.limit) {
    return Status::Corruption("truncated record");
  }
  *payload = view.Bytes(off + kFrameHeader, len, scratch);
  if (crc32c::Unmask(DecodeFixed32(hdr + 4)) !=
      crc32c::Value(payload->data(), payload->size())) {
    return Status::Corruption("frame checksum mismatch at lsn " +
                              std::to_string(off + 1));
  }
  return Status::OK();
}

LogManager::SegmentView LogManager::ViewLocked(uint64_t start,
                                               uint64_t limit) const {
  SegmentView view;
  view.limit = limit;
  view.first_seg = start / kSegmentBytes;
  uint64_t end_seg = (limit + kSegmentBytes - 1) / kSegmentBytes;
  for (uint64_t i = view.first_seg; i < end_seg; ++i) {
    view.segs.push_back(segments_[size_t(i)].get());
  }
  return view;
}

void LogManager::StoreLocked(uint64_t off, const char* data, size_t n) {
  while (n > 0) {
    size_t seg = size_t(off / kSegmentBytes);
    size_t in = size_t(off % kSegmentBytes);
    if (seg == segments_.size()) segments_.emplace_back(new char[kSegmentBytes]);
    size_t piece = std::min(n, kSegmentBytes - in);
    std::memcpy(segments_[seg].get() + in, data, piece);
    off += piece;
    data += piece;
    n -= piece;
  }
}

void LogManager::TruncateSegmentsLocked(uint64_t end) {
  segments_.resize(size_t((end + kSegmentBytes - 1) / kSegmentBytes));
}

void LogManager::RingWrite(uint64_t off, const char* data, size_t n) {
  size_t pos = static_cast<size_t>(off) & ring_mask_;
  size_t first = n < ring_.size() - pos ? n : ring_.size() - pos;
  std::memcpy(ring_.data() + pos, data, first);
  if (n > first) std::memcpy(ring_.data(), data + first, n - first);
}

Status LogManager::Append(LogRecord* rec) {
  const bool timed =
      (append_tick_.fetch_add(1, std::memory_order_relaxed) &
       kAppendSampleMask) == 0;
  const uint64_t t0 = timed ? obs::MonotonicNanos() : 0;
  std::string payload;
  rec->SerializeTo(&payload);
  const uint64_t size = kFrameHeader + payload.size();
  if (size > ring_.size()) {
    return Status::InvalidArgument("log record exceeds the WAL ring");
  }

  // 1. Reserve: one fetch-add claims the byte range and the LSN.
  const uint64_t start = reserved_.fetch_add(size, std::memory_order_relaxed);
  const uint64_t end = start + size;
  rec->lsn = start + 1;

  // 2. Backpressure: the ring positions for [start, end) must not alias
  // bytes that have not been drained into the segments yet.  Help
  // drain rather than merely spin — with no flusher active, the ring
  // would never empty on its own.
  while (end > drained_.load(std::memory_order_acquire) + ring_.size()) {
    TryDrain();
  }

  // 3. Copy the framed record into the ring outside any lock.  The
  // masked payload CRC makes a tear inside the frame body detectable at
  // scan time (a tear in the 8 header bytes already falls outside the
  // [len] walk).
  char hdr[kFrameHeader];
  EncodeFixed32(hdr, static_cast<uint32_t>(payload.size()));
  EncodeFixed32(hdr + 4, crc32c::Mask(crc32c::Value(payload.data(),
                                                    payload.size())));
  RingWrite(start, hdr, kFrameHeader);
  RingWrite(start + kFrameHeader, payload.data(), payload.size());

  // 4. Publish via a per-slot seal.  Ticket order tracks reservation order
  // closely (both are fetch-adds in the same function), so the drain's
  // in-ticket-order consumption rarely buffers out-of-order ranges.
  // Claiming must be atomic (CAS, not load-then-store): see the SealSlot
  // comment — two sealers one lap apart may otherwise both observe the
  // slot free and tear each other's start/end writes.
  const uint64_t ticket = seal_seq_.fetch_add(1, std::memory_order_relaxed);
  SealSlot& slot = slots_[static_cast<size_t>(ticket) & (kSealSlots - 1)];
  uint64_t expected = 0;
  while (!slot.start_p1.compare_exchange_weak(expected, kSlotClaimed,
                                              std::memory_order_acquire,
                                              std::memory_order_relaxed)) {
    // Lapped: the occupant from `ticket - kSealSlots` is not consumed yet
    // (or its sealer is mid-publication).  Help drain until it frees up.
    expected = 0;
    TryDrain();
  }
  slot.end = end;
  slot.start_p1.store(start + 1, std::memory_order_release);

  records_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(size, std::memory_order_relaxed);
  size_t rm = static_cast<size_t>(rec->rm_id);
  if (rm < records_by_rm_.size()) {
    records_by_rm_[rm].fetch_add(1, std::memory_order_relaxed);
    bytes_by_rm_[rm].fetch_add(size, std::memory_order_relaxed);
  }
  if (timed) append_ns_.Record(obs::MonotonicNanos() - t0);
  return Status::OK();
}

void LogManager::TryDrain() {
  sync::TryMutexLock g(&drain_mu_);
  if (g.owns_lock()) {
    ConsumeSealedLocked();
  } else {
    // Someone else is draining; give them the core.
    std::this_thread::yield();
  }
}

void LogManager::ConsumeSealedLocked() {
  // Consume sealed slots in ticket order, then extend the contiguous
  // drained prefix.  Freeing a slot (the store of 0) un-laps any sealer
  // waiting on it; advancing drained_ unblocks ring-space waiters.
  while (true) {
    SealSlot& slot = slots_[static_cast<size_t>(consume_seq_) & (kSealSlots - 1)];
    uint64_t start_p1 = slot.start_p1.load(std::memory_order_acquire);
    // Not sealed yet: free, or claimed with fields still being written.
    if (start_p1 == 0 || start_p1 == kSlotClaimed) break;
    pending_.emplace(start_p1 - 1, slot.end);
    slot.start_p1.store(0, std::memory_order_release);
    ++consume_seq_;
  }
  uint64_t d = drained_.load(std::memory_order_relaxed);
  bool advanced = false;
  while (!pending_.empty() && pending_.top().first == d) {
    auto [start, end] = pending_.top();
    pending_.pop();
    size_t pos = static_cast<size_t>(start) & ring_mask_;
    size_t n = static_cast<size_t>(end - start);
    size_t first = n < ring_.size() - pos ? n : ring_.size() - pos;
    StoreLocked(start, ring_.data() + pos, first);
    if (n > first) StoreLocked(start + first, ring_.data(), n - first);
    d = end;
    advanced = true;
  }
  if (advanced) drained_.store(d, std::memory_order_release);
}

void LogManager::DrainUntilLocked(uint64_t target_bytes) {
  while (drained_.load(std::memory_order_relaxed) < target_bytes) {
    ConsumeSealedLocked();
    if (drained_.load(std::memory_order_relaxed) >= target_bytes) break;
    // The record at the drained frontier is reserved but not yet sealed;
    // its appender is between the fetch-add and the seal store (it cannot
    // be blocked on ring space: the frontier record always fits, and it
    // never takes drain_mu_).  Yield until the seal lands.
    std::this_thread::yield();
  }
}

Status LogManager::Flush(Lsn lsn) {
  // Lock-free fast path: a group-commit leader already covered this lsn.
  // (Records never straddle the durable boundary — the drain moves whole
  // records — so a record is durable iff it starts inside the boundary.)
  if (lsn != kInvalidLsn &&
      lsn - 1 < flushed_.load(std::memory_order_acquire)) {
    return Status::OK();
  }
  uint64_t target = lsn == kInvalidLsn
                        ? reserved_.load(std::memory_order_acquire)
                        : static_cast<uint64_t>(lsn);
  // `lsn` beyond the last reservation flushes everything, like the old
  // whole-tail flush did.
  uint64_t reserved = reserved_.load(std::memory_order_acquire);
  if (target > reserved) target = reserved;

  uint64_t t0 = obs::MonotonicNanos();
  sync::MutexLock fl(&flush_mu_);
  // Re-check after the leader hand-off: whoever held flush_mu_ published
  // the boundary for every record sealed before it released.
  uint64_t flushed = flushed_.load(std::memory_order_relaxed);
  if (flushed >= target) return Status::OK();
  {
    // One span per group-commit batch, on the leader's track; arg = bytes
    // made durable (set below once the drain publishes the boundary).
    obs::ScopedSpan batch_span(&obs::Tracer::Default(), "wal.flush_batch");
    sync::MutexLock dg(&drain_mu_);
    DrainUntilLocked(target);
    uint64_t drained = drained_.load(std::memory_order_relaxed);
    batch_span.set_arg(drained - flushed);
    // With a file sink attached, the bytes must be on the file (and
    // fsynced) *before* the boundary publishes — flushed_ never claims
    // bytes the file does not hold.  On a persistent write failure the
    // boundary stays put and the error propagates to the committer.
    OIB_RETURN_IF_ERROR(WriteFileSinkLocked(flushed, drained));
    // Group commit: publish everything drained, not just the target, so
    // committers queued behind this leader find their records durable.
    flushed_.store(drained, std::memory_order_release);
  }
  flushes_.fetch_add(1, std::memory_order_relaxed);
  flush_ns_.Record(obs::MonotonicNanos() - t0);
  return Status::OK();
}

Status LogManager::ReadRecord(Lsn lsn, LogRecord* rec) {
  if (lsn == kInvalidLsn) return Status::InvalidArgument("invalid lsn");
  uint64_t off = lsn - 1;
  if (off >= reserved_.load(std::memory_order_acquire)) {
    return Status::Corruption("lsn beyond log end");
  }
  sync::MutexLock g(&drain_mu_);
  // The caller's record was fully appended (sealed), so draining up to it
  // terminates; this only buffers volatile bytes, it does not flush.
  DrainUntilLocked(off + 1);
  SegmentView view = ViewLocked(off, drained_.load(std::memory_order_relaxed));
  std::string scratch;
  std::string_view payload;
  OIB_RETURN_IF_ERROR(FramePayload(view, off, &scratch, &payload));
  OIB_RETURN_IF_ERROR(LogRecord::DeserializeFrom(payload, rec));
  rec->lsn = lsn;
  return Status::OK();
}

Status LogManager::ScanDurable(
    Lsn start_lsn, const std::function<bool(const LogRecord&)>& fn) {
  // Take the segment pointers covering [start, flushed) and run the
  // callback with no log lock held: redo callbacks latch pages, while the
  // forward path appends to the log under page latches — calling out with
  // a log mutex held would invert that page-latch -> log-lock order.
  // Durable bytes never change and their segments are only freed by
  // DropUnflushed / the destructor, so parsing them unlocked is safe.
  // Records flushed after the call are not seen, which is the contract
  // ("durable as of the call").
  uint64_t pos = (start_lsn == kInvalidLsn) ? 0 : start_lsn - 1;
  uint64_t limit = flushed_.load(std::memory_order_acquire);
  if (pos >= limit) return Status::OK();
  SegmentView view;
  {
    sync::MutexLock g(&drain_mu_);
    view = ViewLocked(pos, limit);
  }
  std::string scratch;
  std::string_view payload;
  // A short or CRC-mismatched frame ends the scan as a torn tail: a tear
  // *inside* the frame body (a crash mid-write left the length intact but
  // garbled the payload) must truncate the tail too, not feed garbage to
  // redo.  Nothing after a torn frame is trustworthy: frames are written
  // in order, so a valid-looking successor of a torn frame can only be
  // leftover bytes from an earlier life of the file.
  while (FramePayload(view, pos, &scratch, &payload).ok()) {
    LogRecord rec;
    OIB_RETURN_IF_ERROR(LogRecord::DeserializeFrom(payload, &rec));
    rec.lsn = pos + 1;
    if (!fn(rec)) break;
    pos += kFrameHeader + payload.size();
  }
  return Status::OK();
}

void LogManager::DropUnflushed() {
  // Crash simulation; the caller has quiesced appenders.  Everything past
  // the durable boundary is discarded: the drained-but-unflushed suffix of
  // the segments, all sealed-but-undrained ring contents, and the
  // reservation counter itself rewinds to the boundary — so the volatile
  // tail vanishes exactly as if the process had died, leaving a
  // prefix-exact durable log.
  sync::MutexLock fl(&flush_mu_);
  sync::MutexLock dg(&drain_mu_);
  uint64_t flushed = flushed_.load(std::memory_order_relaxed);
  TruncateSegmentsLocked(flushed);
  drained_.store(flushed, std::memory_order_relaxed);
  reserved_.store(flushed, std::memory_order_relaxed);
  seal_seq_.store(0, std::memory_order_relaxed);
  consume_seq_ = 0;
  for (SealSlot& slot : slots_) {
    slot.start_p1.store(0, std::memory_order_relaxed);
  }
  pending_ = {};
}

LogStats LogManager::stats() const {
  LogStats s;
  s.records = records_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < s.records_by_rm.size(); ++i) {
    s.records_by_rm[i] = records_by_rm_[i].load(std::memory_order_relaxed);
    s.bytes_by_rm[i] = bytes_by_rm_[i].load(std::memory_order_relaxed);
  }
  s.flushes = flushes_.load(std::memory_order_relaxed);
  return s;
}

void LogManager::ResetStats() {
  records_.store(0, std::memory_order_relaxed);
  bytes_.store(0, std::memory_order_relaxed);
  for (size_t i = 0; i < records_by_rm_.size(); ++i) {
    records_by_rm_[i].store(0, std::memory_order_relaxed);
    bytes_by_rm_[i].store(0, std::memory_order_relaxed);
  }
  flushes_.store(0, std::memory_order_relaxed);
}

}  // namespace oib
