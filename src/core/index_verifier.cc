#include "core/index_verifier.h"

#include <map>
#include <set>

#include "btree/tree_verifier.h"
#include "core/schema.h"

namespace oib {

namespace {

// The normalized key in hex: it holds NUL bytes, which would cut a
// message printed with %s short of the RID.
std::string HexKey(std::string_view key) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(key.size() * 2);
  for (unsigned char c : key) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

std::string EntryName(const std::pair<std::string, Rid>& kv) {
  return HexKey(kv.first) + "@" + kv.second.ToString();
}

}  // namespace

StatusOr<IndexVerifyReport> IndexVerifier::Verify(TableId table,
                                                  IndexId index) {
  IndexVerifyReport report;
  Catalog* catalog = engine_->catalog();
  HeapFile* heap = catalog->table(table);
  BTree* tree = catalog->index(index);
  if (heap == nullptr || tree == nullptr) {
    return Status::NotFound("table or index missing");
  }
  auto desc = catalog->descriptor(index);
  if (!desc.ok()) return desc.status();

  // Expected key set from the table.
  std::map<std::pair<std::string, Rid>, int> expected;
  Status extract_error = Status::OK();
  OIB_RETURN_IF_ERROR(
      heap->ForEach([&](const Rid& rid, std::string_view rec) {
        auto key = Schema::ExtractKey(rec, desc->key_cols, desc->key_types);
        if (!key.ok()) {
          extract_error = key.status();
          return;
        }
        expected[{std::move(*key), rid}] += 1;
        ++report.table_records;
      }));
  OIB_RETURN_IF_ERROR(extract_error);

  // Walk the index.
  std::map<std::pair<std::string, Rid>, int> live;
  std::set<std::pair<std::string, Rid>> pseudo;
  std::map<std::string, int> live_values;
  OIB_RETURN_IF_ERROR(
      tree->ScanAll([&](std::string_view key, const Rid& rid,
                        uint8_t flags) {
        if ((flags & kEntryPseudoDeleted) != 0) {
          ++report.pseudo_entries;
          pseudo.insert({std::string(key), rid});
        } else {
          ++report.live_entries;
          live[{std::string(key), rid}] += 1;
          live_values[std::string(key)] += 1;
        }
      }));

  auto fail = [&](std::string msg) {
    report.ok = false;
    report.error = std::move(msg);
    return report;
  };

  for (const auto& [kv, count] : live) {
    if (count != 1) {
      return fail("duplicate live entry " + EntryName(kv));
    }
    auto it = expected.find(kv);
    if (it == expected.end()) {
      return fail("index entry without record: " + EntryName(kv));
    }
  }
  for (const auto& [kv, count] : expected) {
    (void)count;
    if (live.find(kv) == live.end()) {
      return fail("record key missing from index: " + EntryName(kv));
    }
  }
  for (const auto& kv : pseudo) {
    if (expected.find(kv) != expected.end()) {
      return fail("pseudo-deleted entry shadows a live record: " +
                  EntryName(kv));
    }
  }
  if (desc->unique) {
    for (const auto& [value, count] : live_values) {
      if (count > 1) {
        return fail("unique index holds " + std::to_string(count) +
                    " live entries for value " + HexKey(value));
      }
    }
  }

  TreeVerifier tv(tree, engine_->pool());
  auto structural = tv.Check();
  if (!structural.ok()) return structural.status();
  if (!structural->ok) {
    return fail("structural: " + structural->error);
  }

  report.ok = true;
  return report;
}

}  // namespace oib
