#include "hashidx/hash_index.h"

#include <thread>

#include "common/failpoint.h"
#include "obs/metrics.h"

namespace oib {

namespace {

// FNV-1a 64-bit.  Cheap, good-enough dispersion for short normalized
// keys; the low bits select the shard and the full value feeds the
// per-shard unordered_map.
uint64_t HashBytes(std::string_view s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

size_t AutoShards() {
  size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  size_t n = hw < 16 ? hw : 16;
  // Round down to a power of two.
  size_t p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

}  // namespace

size_t HashIndex::KeyHash::operator()(std::string_view s) const {
  return static_cast<size_t>(HashBytes(s));
}

HashIndex::HashIndex(IndexId index_id, size_t shards) : index_id_(index_id) {
  size_t n = shards == 0 ? AutoShards() : shards;
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

HashIndex::~HashIndex() {
  if (metrics_ != nullptr) metrics_->DetachOwner(this);
}

HashIndex::Shard& HashIndex::ShardFor(std::string_view key) {
  return *shards_[HashBytes(key) & (shards_.size() - 1)];
}

const HashIndex::Shard& HashIndex::ShardFor(std::string_view key) const {
  return *shards_[HashBytes(key) & (shards_.size() - 1)];
}

HashProbe HashIndex::Probe(std::string_view key, Rid* rid) const {
  if (!readable()) return HashProbe::kFallback;
  const Shard& shard = ShardFor(key);
  sync::ReaderMutexLock lock(&shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return HashProbe::kMiss;
  // Minimum live RID, matching FindKeyValue's ascending (key, rid) scan
  // where the first live entry wins.
  const Slot& slot = it->second;
  bool have_live = false;
  Rid best;
  auto consider = [&](const Entry& e) {
    if ((e.flags & kEntryPseudoDeleted) != 0) return;
    if (!have_live || e.rid < best) {
      best = e.rid;
      have_live = true;
    }
  };
  consider(slot.first);
  if (slot.overflow != nullptr) {
    for (const Entry& e : *slot.overflow) consider(e);
  }
  if (!have_live) return HashProbe::kDeleted;
  *rid = best;
  return HashProbe::kHit;
}

void HashIndex::OnLeafInsert(std::string_view key, const Rid& rid,
                             uint8_t flags) {
  Shard& shard = ShardFor(key);
  sync::WriterMutexLock lock(&shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    shard.map.emplace(std::string(key), Slot{Entry{rid, flags}, nullptr});
    shard.entries.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Slot& slot = it->second;
  if (slot.first.rid == rid) {  // re-insert over an existing mirror entry
    slot.first.flags = flags;
    return;
  }
  if (slot.overflow != nullptr) {
    for (Entry& e : *slot.overflow) {
      if (e.rid == rid) {
        e.flags = flags;
        return;
      }
    }
  } else {
    slot.overflow = std::make_unique<std::vector<Entry>>();
  }
  slot.overflow->push_back(Entry{rid, flags});
  shard.entries.fetch_add(1, std::memory_order_relaxed);
}

void HashIndex::OnLeafRemove(std::string_view key, const Rid& rid) {
  Shard& shard = ShardFor(key);
  sync::WriterMutexLock lock(&shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return;
  Slot& slot = it->second;
  if (slot.first.rid == rid) {
    if (slot.overflow == nullptr || slot.overflow->empty()) {
      shard.map.erase(it);
    } else {
      slot.first = slot.overflow->back();
      slot.overflow->pop_back();
    }
    shard.entries.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  if (slot.overflow == nullptr) return;
  for (size_t i = 0; i < slot.overflow->size(); ++i) {
    if ((*slot.overflow)[i].rid == rid) {
      (*slot.overflow)[i] = slot.overflow->back();
      slot.overflow->pop_back();
      shard.entries.fetch_sub(1, std::memory_order_relaxed);
      return;
    }
  }
}

void HashIndex::OnLeafSetFlags(std::string_view key, const Rid& rid,
                               uint8_t flags) {
  Shard& shard = ShardFor(key);
  sync::WriterMutexLock lock(&shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    // Flag change for an entry the mirror has not seen (population gap).
    // The tree holds the entry, so upserting keeps the mirror a subset of
    // the truth rather than diverging from it.
    shard.map.emplace(std::string(key), Slot{Entry{rid, flags}, nullptr});
    shard.entries.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Slot& slot = it->second;
  if (slot.first.rid == rid) {
    slot.first.flags = flags;
    return;
  }
  if (slot.overflow != nullptr) {
    for (Entry& e : *slot.overflow) {
      if (e.rid == rid) {
        e.flags = flags;
        return;
      }
    }
  } else {
    slot.overflow = std::make_unique<std::vector<Entry>>();
  }
  slot.overflow->push_back(Entry{rid, flags});
  shard.entries.fetch_add(1, std::memory_order_relaxed);
}

void HashIndex::Clear() {
  for (auto& shard : shards_) {
    sync::WriterMutexLock lock(&shard->mu);
    shard->map.clear();
    shard->entries.store(0, std::memory_order_relaxed);
  }
}

uint64_t HashIndex::entry_count() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->entries.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t HashIndex::shard_entry_count(size_t shard) const {
  return shards_[shard]->entries.load(std::memory_order_relaxed);
}

void HashIndex::AttachMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr || metrics_ != nullptr) return;
  metrics_ = registry;
  std::string prefix = "hash.idx" + std::to_string(index_id_) + ".";
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard* shard = shards_[i].get();
    registry->RegisterValueFn(
        prefix + "shard" + std::to_string(i) + ".entries",
        [shard] { return shard->entries.load(std::memory_order_relaxed); },
        this);
  }
}

Status PopulateHashFromTree(BTree* tree, HashIndex* hash) {
  OIB_FAIL_POINT("hash.populate");
  hash->Clear();
  return tree->ScanAll(
      [hash](std::string_view key, const Rid& rid, uint8_t flags) {
        hash->OnLeafInsert(key, rid, flags);
      });
}

}  // namespace oib
