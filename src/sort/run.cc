#include "sort/run.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include "common/coding.h"
#include "common/failpoint.h"
#include "common/posix_io.h"
#include "obs/metrics.h"

namespace oib {

namespace {

// Per-item framing around the suffix: [shared u16][suffix_len u16] before,
// [rid u32+u16] after.
constexpr uint64_t kItemOverhead = 4 + 6;

// Spill-write retry bounds (transient injected/IO errors only).
constexpr int kMaxSpillAttempts = 4;
constexpr int kBackoffBaseUs = 50;

// Walks the prefix-compressed item stream in d[0, limit), rebuilding the
// running key.  Stops before the first incomplete (torn) item; *end is the
// offset just past the last whole item.  On a broken prefix chain
// (scrambled bytes, not just a tear) *end/*items/*last_key still describe
// the clean prefix walked so far, so callers can keep it.
Status WalkItems(const std::string& d, uint64_t limit, uint64_t* end,
                 uint64_t* items, std::string* last_key) {
  uint64_t off = 0, n = 0;
  last_key->clear();
  Status s;
  while (off + 4 <= limit) {
    uint16_t shared = DecodeFixed16(d.data() + off);
    uint16_t slen = DecodeFixed16(d.data() + off + 2);
    if (off + kItemOverhead + slen > limit) break;
    if (shared > last_key->size()) {
      s = Status::Corruption("run prefix chain broken");
      break;
    }
    last_key->resize(shared);
    last_key->append(d.data() + off + 4, slen);
    off += kItemOverhead + slen;
    ++n;
  }
  *end = off;
  *items = n;
  return s;
}

}  // namespace

int CompareSortItem(const SortItem& a, const SortItem& b) {
  return CompareKeyRid(a.key.slice(), a.rid, b);
}

int CompareKeyRid(KeySlice key, const Rid& rid, const SortItem& item) {
  int c = key.Compare(item.key.slice());
  if (c != 0) return c;
  if (rid < item.rid) return -1;
  if (item.rid < rid) return 1;
  return 0;
}

Status RunStore::AttachDir(const std::string& dir) {
  sync::MutexLock g(&mu_);
  if (!runs_.empty() || !dir_.empty()) {
    return Status::InvalidArgument(
        "AttachDir requires an empty store with no directory attached");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create " + dir + ": " + ec.message());
  }
  // Load surviving run files.  A crash can leave a torn trailing item (or
  // a scrambled tail from a torn spill write); WalkItems keeps the clean
  // item prefix and the restartable-sort resume then truncates to the
  // last checkpointed length, cutting anything the checkpoint never saw.
  RunId max_id = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("run-", 0) != 0) continue;
    char* end_ptr = nullptr;
    unsigned long long parsed = std::strtoull(name.c_str() + 4, &end_ptr, 10);
    if (end_ptr == nullptr || *end_ptr != '\0' || parsed == 0) continue;
    RunId id = RunId(parsed);
    Run run;
    OIB_RETURN_IF_ERROR(ReadFileToString(entry.path().string(), &run.data));
    uint64_t end = 0, items = 0;
    (void)WalkItems(run.data, run.data.size(), &end, &items, &run.last_key);
    if (end < run.data.size()) {
      run.data.resize(end);
      std::filesystem::resize_file(entry.path(), end, ec);
      if (ec) {
        return Status::IoError("cannot truncate " + entry.path().string() +
                               ": " + ec.message());
      }
    }
    run.durable = end;
    run.items = items;
    if (id > max_id) max_id = id;
    runs_.emplace(id, std::move(run));
  }
  if (ec) return Status::IoError("cannot scan " + dir + ": " + ec.message());
  if (max_id >= next_id_) next_id_ = max_id + 1;
  dir_ = dir;
  return Status::OK();
}

bool RunStore::has_dir() const {
  sync::MutexLock g(&mu_);
  return !dir_.empty();
}

std::string RunStore::RunFilePath(RunId id) const {
  return dir_ + "/run-" + std::to_string(id);
}

Status RunStore::SpillLocked(RunId id, const Run& run) {
  const std::string path = RunFilePath(id);
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  const char* data = run.data.data() + run.durable;
  const size_t n = run.data.size() - size_t(run.durable);
  Status s;
  for (int attempt = 1; attempt <= kMaxSpillAttempts; ++attempt) {
    if (attempt > 1) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(kBackoffBaseUs << (attempt - 2)));
    }
    s = [&]() -> Status {
      FailPointHit hit;
      OIB_FAIL_POINT_HIT("runstore.flush", hit);
      if (hit.action == FailPointAction::kReturnError) {
        return Status::Injected("runstore.flush");
      }
      if (hit.action == FailPointAction::kShortWrite) {
        size_t k = n > 0 ? std::min(size_t(hit.arg), n - 1) : 0;
        OIB_RETURN_IF_ERROR(PwriteFull(fd, data, k, run.durable));
        return Status::Injected("runstore.flush: short write");
      }
      if (hit.action == FailPointAction::kTornWrite) {
        // Crash mid-spill: a scrambled tail lands and the process dies.
        std::string torn(data, n);
        for (size_t i = std::min(size_t(hit.arg), n > 0 ? n - 1 : 0);
             i < torn.size(); ++i) {
          torn[i] = char(torn[i] ^ 0xa5);
        }
        (void)PwriteFull(fd, torn.data(), torn.size(), run.durable);
        FailPointHardAbort("runstore.flush");
      }
      OIB_RETURN_IF_ERROR(PwriteFull(fd, data, n, run.durable));
      if (::fdatasync(fd) != 0) {
        return Status::IoError(std::string("fdatasync: ") +
                               std::strerror(errno));
      }
      return Status::OK();
    }();
    if (s.ok()) break;
    if (!s.IsInjected() && !s.IsIoError()) break;
  }
  ::close(fd);
  return s;
}

RunId RunStore::CreateRun() {
  sync::MutexLock g(&mu_);
  RunId id = next_id_++;
  runs_[id];
  return id;
}

Status RunStore::Append(RunId id, KeySlice key, const Rid& rid) {
  sync::MutexLock g(&mu_);
  auto it = runs_.find(id);
  if (it == runs_.end()) return Status::NotFound("no such run");
  Run& run = it->second;
  size_t shared = CommonPrefixLen(KeySlice(run.last_key), key);
  std::string& d = run.data;
  PutFixed16(&d, static_cast<uint16_t>(shared));
  PutFixed16(&d, static_cast<uint16_t>(key.size() - shared));
  d.append(key.data() + shared, key.size() - shared);
  PutFixed32(&d, rid.page);
  PutFixed16(&d, rid.slot);
  run.last_key.assign(key.data(), key.size());
  ++run.items;
  raw_key_bytes_ += key.size();
  stored_key_bytes_ += key.size() - shared;
  return Status::OK();
}

Status RunStore::Flush(RunId id) {
  sync::MutexLock g(&mu_);
  auto it = runs_.find(id);
  if (it == runs_.end()) return Status::NotFound("no such run");
  if (!dir_.empty()) {
    // Write the tail to the run file before advancing the boundary, so
    // `durable` never claims bytes the file does not hold.
    OIB_RETURN_IF_ERROR(SpillLocked(id, it->second));
  }
  it->second.durable = it->second.data.size();
  return Status::OK();
}

void RunStore::DropUnflushed() {
  sync::MutexLock g(&mu_);
  for (auto& [id, run] : runs_) {
    (void)id;
    run.data.resize(run.durable);
    // Recount items in the durable prefix, dropping a torn trailing item
    // and rebuilding the prefix reference for subsequent appends.
    uint64_t end = 0, items = 0;
    if (!WalkItems(run.data, run.data.size(), &end, &items, &run.last_key)
             .ok()) {
      // A broken prefix chain can only come from memory corruption, not a
      // torn write; keep whatever walked clean.
    }
    run.data.resize(end);
    run.durable = end;
    run.items = items;
  }
}

void RunStore::Remove(RunId id) {
  sync::MutexLock g(&mu_);
  if (runs_.erase(id) > 0 && !dir_.empty()) {
    ::unlink(RunFilePath(id).c_str());
  }
}

Status RunStore::Truncate(RunId id, uint64_t bytes) {
  sync::MutexLock g(&mu_);
  auto it = runs_.find(id);
  if (it == runs_.end()) return Status::NotFound("no such run");
  Run& run = it->second;
  if (bytes > run.data.size()) {
    return Status::InvalidArgument("truncate beyond run end");
  }
  uint64_t end = 0, items = 0;
  OIB_RETURN_IF_ERROR(WalkItems(run.data, bytes, &end, &items,
                                &run.last_key));
  if (end != bytes) return Status::Corruption("truncate split an item");
  run.data.resize(bytes);
  if (run.durable > bytes) {
    run.durable = bytes;
    if (!dir_.empty()) {
      std::error_code ec;
      std::filesystem::resize_file(RunFilePath(id), bytes, ec);
      if (ec) {
        return Status::IoError("cannot truncate run file: " + ec.message());
      }
    }
  }
  run.items = items;
  return Status::OK();
}

StatusOr<uint64_t> RunStore::DurableSize(RunId id) const {
  sync::MutexLock g(&mu_);
  auto it = runs_.find(id);
  if (it == runs_.end()) return Status::NotFound("no such run");
  return it->second.durable;
}

StatusOr<uint64_t> RunStore::Size(RunId id) const {
  sync::MutexLock g(&mu_);
  auto it = runs_.find(id);
  if (it == runs_.end()) return Status::NotFound("no such run");
  return static_cast<uint64_t>(it->second.data.size());
}

StatusOr<uint64_t> RunStore::ItemCount(RunId id) const {
  sync::MutexLock g(&mu_);
  auto it = runs_.find(id);
  if (it == runs_.end()) return Status::NotFound("no such run");
  return it->second.items;
}

size_t RunStore::run_count() const {
  sync::MutexLock g(&mu_);
  return runs_.size();
}

uint64_t RunStore::total_bytes() const {
  sync::MutexLock g(&mu_);
  uint64_t total = 0;
  for (const auto& [id, run] : runs_) {
    (void)id;
    total += run.data.size();
  }
  return total;
}

uint64_t RunStore::raw_key_bytes() const {
  sync::MutexLock g(&mu_);
  return raw_key_bytes_;
}

uint64_t RunStore::stored_key_bytes() const {
  sync::MutexLock g(&mu_);
  return stored_key_bytes_;
}

RunStore::~RunStore() {
  if (metrics_ != nullptr) metrics_->DetachOwner(this);
}

void RunStore::AttachMetrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  registry->RegisterValueFn("sort.key_bytes_raw",
                            [this] { return raw_key_bytes(); }, this);
  registry->RegisterValueFn("sort.key_bytes_stored",
                            [this] { return stored_key_bytes(); }, this);
}

Status RunReader::SeekToItem(uint64_t index) {
  offset_ = 0;
  key_.clear();
  sync::MutexLock g(&store_->mu_);
  auto it = store_->runs_.find(id_);
  if (it == store_->runs_.end()) return Status::NotFound("no such run");
  const std::string& d = it->second.data;
  for (uint64_t i = 0; i < index; ++i) {
    if (offset_ + 4 > d.size()) return Status::Corruption("seek past end");
    uint16_t shared = DecodeFixed16(d.data() + offset_);
    uint16_t slen = DecodeFixed16(d.data() + offset_ + 2);
    if (offset_ + 4 + slen + 6 > d.size()) {
      return Status::Corruption("seek past end");
    }
    if (shared > key_.size()) {
      return Status::Corruption("run prefix chain broken");
    }
    key_.resize(shared);
    key_.append(d.data() + offset_ + 4, slen);
    offset_ += 4 + slen + 6;
  }
  return Status::OK();
}

StatusOr<bool> RunReader::Read(SortItem* item) {
  sync::MutexLock g(&store_->mu_);
  auto it = store_->runs_.find(id_);
  if (it == store_->runs_.end()) return Status::NotFound("no such run");
  const std::string& d = it->second.data;
  if (offset_ >= d.size()) return false;
  if (offset_ + 4 > d.size()) return Status::Corruption("torn item");
  uint16_t shared = DecodeFixed16(d.data() + offset_);
  uint16_t slen = DecodeFixed16(d.data() + offset_ + 2);
  if (offset_ + 4 + slen + 6 > d.size()) return Status::Corruption("torn item");
  if (shared > key_.size()) {
    return Status::Corruption("run prefix chain broken");
  }
  key_.resize(shared);
  key_.append(d.data() + offset_ + 4, slen);
  item->key.Assign(key_);
  item->rid.page = DecodeFixed32(d.data() + offset_ + 4 + slen);
  item->rid.slot = DecodeFixed16(d.data() + offset_ + 4 + slen + 4);
  offset_ += 4 + slen + 6;
  return true;
}

}  // namespace oib
