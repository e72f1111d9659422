#include "table.h"

#include <algorithm>
#include <cstdio>

#include "btree/btree_page.h"
#include "common/key.h"
#include "core/schema.h"

namespace perfbench {

uint64_t Mix64(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t Rng::Next() { return Mix64(s_ += 0x9e3779b97f4a7c15ull); }

std::string SecValue(uint64_t seed, uint64_t counter) {
  char buf[kSecWidth + 1];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(Mix64(counter ^ seed)));
  return std::string(buf, kSecWidth);
}

std::string MakeRecord(uint64_t pk, std::string_view sec, Rng* rng) {
  char pkbuf[kPkWidth + 1];
  std::snprintf(pkbuf, sizeof(pkbuf), "%012llu",
                static_cast<unsigned long long>(pk));
  std::string payload(kPayloadWidth, 'a');
  for (char& c : payload) c = static_cast<char>('a' + rng->Uniform(26));
  return oib::Schema::EncodeRecord(
      {std::string(pkbuf, kPkWidth), std::string(sec), payload});
}

// Record layout ([n u16] ([len u16][bytes])*) with fixed-width fields:
// the secondary value sits right after the primary key's field.
std::string_view SecOf(std::string_view record) {
  constexpr size_t kOffset = 2 + 2 + kPkWidth + 2;
  if (record.size() < kOffset + kSecWidth) return {};
  return record.substr(kOffset, kSecWidth);
}

std::string PkKey(uint64_t pk) {
  char buf[kPkWidth + 1];
  std::snprintf(buf, sizeof(buf), "%012llu",
                static_cast<unsigned long long>(pk));
  std::string key;
  oib::keyenc::AppendStringColumn(&key, std::string_view(buf, kPkWidth));
  return key;
}

std::string SecKey(std::string_view sec) {
  std::string key;
  oib::keyenc::AppendStringColumn(&key, sec);
  return key;
}

namespace {

std::string RidStr(const oib::Rid& rid) {
  return std::to_string(rid.page) + ":" + std::to_string(rid.slot);
}

}  // namespace

std::string CheckHeap(oib::Engine* engine, oib::TableId table,
                      const std::vector<const Row*>& rows) {
  oib::HeapFile* heap = engine->catalog()->table(table);
  if (heap == nullptr) return "table missing";
  std::vector<std::pair<oib::Rid, std::string>> heap_rows;
  heap_rows.reserve(rows.size() + 16);
  oib::Status s = heap->ForEach(
      [&](const oib::Rid& rid, std::string_view rec) {
        heap_rows.emplace_back(rid, std::string(rec));
      });
  if (!s.ok()) return "heap scan failed: " + s.ToString();
  std::sort(heap_rows.begin(), heap_rows.end());
  std::vector<const Row*> model = rows;
  std::sort(model.begin(), model.end(),
            [](const Row* a, const Row* b) { return a->rid < b->rid; });
  size_t i = 0, j = 0;
  while (i < heap_rows.size() || j < model.size()) {
    if (j == model.size() ||
        (i < heap_rows.size() && heap_rows[i].first < model[j]->rid)) {
      return "heap holds a row the model lacks at " +
             RidStr(heap_rows[i].first) + " (rolled back or in flight)";
    }
    if (i == heap_rows.size() || model[j]->rid < heap_rows[i].first) {
      return "acknowledged row pk=" + std::to_string(model[j]->pk) +
             " missing from heap at " + RidStr(model[j]->rid);
    }
    if (heap_rows[i].second != model[j]->rec) {
      return "record body differs from the model at " +
             RidStr(model[j]->rid) + " pk=" + std::to_string(model[j]->pk);
    }
    ++i;
    ++j;
  }
  return "";
}

std::string CheckIndex(oib::Engine* engine, oib::IndexId index,
                       const std::vector<const Row*>& rows) {
  oib::BTree* tree = engine->catalog()->index(index);
  if (tree == nullptr) return "index missing";
  std::vector<std::pair<std::string, oib::Rid>> live;
  live.reserve(rows.size() + 16);
  oib::Status s = tree->ScanAll(
      [&](std::string_view key, const oib::Rid& rid, uint8_t flags) {
        if ((flags & oib::kEntryPseudoDeleted) == 0) {
          live.emplace_back(std::string(key), rid);
        }
      });
  if (!s.ok()) return "index scan failed: " + s.ToString();
  std::vector<const Row*> model = rows;
  std::sort(model.begin(), model.end(), [](const Row* a, const Row* b) {
    std::string_view sa = SecOf(a->rec), sb = SecOf(b->rec);
    return sa != sb ? sa < sb : a->rid < b->rid;
  });
  if (live.size() != model.size()) {
    return "index has " + std::to_string(live.size()) +
           " live entries, model has " + std::to_string(model.size()) +
           " rows";
  }
  for (size_t i = 0; i < live.size(); ++i) {
    if (live[i].first != SecKey(SecOf(model[i]->rec)) ||
        !(live[i].second == model[i]->rid)) {
      return "index entry " + std::to_string(i) + " at " +
             RidStr(live[i].second) + " differs from model row pk=" +
             std::to_string(model[i]->pk) + " at " + RidStr(model[i]->rid);
    }
    if (i > 0 && live[i - 1] == live[i]) {
      return "duplicate index entry at " + RidStr(live[i].second);
    }
  }
  return "";
}

std::string CheckRead(const oib::StatusOr<std::string>& got,
                      const std::string* expect) {
  if (expect == nullptr) {
    if (got.ok()) return "read of a deleted or replaced value found a row";
    if (!got.status().IsNotFound()) {
      return "read of a dead value failed: " + got.status().ToString();
    }
    return "";
  }
  if (!got.ok()) return "read failed: " + got.status().ToString();
  if (*got != *expect) return "read returned a wrong record body";
  return "";
}

}  // namespace perfbench
