#include "core/index_builder.h"

#include <map>

#include "common/coding.h"
#include "common/failpoint.h"
#include "core/build_pipeline.h"
#include "core/schema.h"

namespace oib {

std::string BuildMetaKey(TableId table) {
  return "build_t" + std::to_string(table);
}

void PutCounters(std::string* out, const std::vector<uint64_t>& counters) {
  PutFixed32(out, static_cast<uint32_t>(counters.size()));
  for (uint64_t c : counters) PutFixed64(out, c);
}

bool GetCounters(BufferReader* r, std::vector<uint64_t>* counters) {
  uint32_t n;
  if (!r->GetFixed32(&n)) return false;
  counters->clear();
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t c;
    if (!r->GetFixed64(&c)) return false;
    counters->push_back(c);
  }
  return true;
}

// Checkpoint format version.  v2: keys in phase blobs (sorter last-output
// keys, loader high keys, side-file positions) are normalized
// byte-comparable encodings and runs are prefix-compressed; a v1
// checkpoint's raw concatenated keys would silently mis-sort against
// them, so decoding rejects any other version and the build restarts
// from scratch.
inline constexpr uint8_t kBuildMetaVersion = 2;

std::string EncodeBuildMeta(const BuildMeta& meta) {
  std::string blob;
  blob.push_back(static_cast<char>(kBuildMetaVersion));
  blob.push_back(static_cast<char>(meta.algo));
  PutFixed32(&blob, static_cast<uint32_t>(meta.indexes.size()));
  for (IndexId id : meta.indexes) PutFixed32(&blob, id);
  blob.push_back(static_cast<char>(meta.phase));
  PutFixed64(&blob, meta.current_rid);
  PutFixed32(&blob, static_cast<uint32_t>(meta.fences.size()));
  for (const auto& per_index : meta.fences) {
    PutFixed32(&blob, static_cast<uint32_t>(per_index.size()));
    for (const SideFileFence& f : per_index) {
      PutFixed64(&blob, f.before_ordinal);
      PutFixed64(&blob, f.rid_floor);
      PutFixed64(&blob, f.rid_ceiling);
    }
  }
  PutLengthPrefixed(&blob, meta.phase_blob);
  return blob;
}

Status DecodeBuildMeta(const std::string& blob, BuildMeta* meta) {
  BufferReader r(blob);
  uint8_t version, algo, phase;
  uint32_t n_indexes, n_fences;
  if (!r.GetByte(&version)) return Status::Corruption("build meta header");
  if (version != kBuildMetaVersion) {
    return Status::Corruption("build meta version mismatch (key encoding)");
  }
  if (!r.GetByte(&algo) || !r.GetFixed32(&n_indexes)) {
    return Status::Corruption("build meta header");
  }
  meta->algo = static_cast<BuildAlgo>(algo);
  meta->indexes.clear();
  for (uint32_t i = 0; i < n_indexes; ++i) {
    uint32_t id;
    if (!r.GetFixed32(&id)) return Status::Corruption("build meta index");
    meta->indexes.push_back(id);
  }
  if (!r.GetByte(&phase) || !r.GetFixed64(&meta->current_rid) ||
      !r.GetFixed32(&n_fences)) {
    return Status::Corruption("build meta body");
  }
  meta->phase = phase;
  meta->fences.clear();
  for (uint32_t i = 0; i < n_fences; ++i) {
    uint32_t n;
    if (!r.GetFixed32(&n)) return Status::Corruption("build meta fences");
    std::vector<SideFileFence> per_index;
    for (uint32_t j = 0; j < n; ++j) {
      SideFileFence f;
      if (!r.GetFixed64(&f.before_ordinal) || !r.GetFixed64(&f.rid_floor) ||
          !r.GetFixed64(&f.rid_ceiling)) {
        return Status::Corruption("build meta fence");
      }
      per_index.push_back(f);
    }
    meta->fences.push_back(std::move(per_index));
  }
  if (!r.GetLengthPrefixed(&meta->phase_blob)) {
    return Status::Corruption("build meta phase blob");
  }
  return Status::OK();
}

Status SaveBuildMeta(Engine* engine, TableId table, const BuildMeta& meta) {
  // Every builder checkpoint persists through here: an injected failure
  // aborts the build with its last self-consistent checkpoint on disk.
  OIB_FAIL_POINT("build.save_meta");
  return engine->disk()->PutMeta(BuildMetaKey(table), EncodeBuildMeta(meta));
}

StatusOr<BuildMeta> LoadBuildMeta(Engine* engine, TableId table) {
  std::string blob;
  Status s = engine->disk()->GetMeta(BuildMetaKey(table), &blob);
  if (!s.ok()) return s;
  if (blob.empty()) return Status::NotFound("no build in progress");
  BuildMeta meta;
  OIB_RETURN_IF_ERROR(DecodeBuildMeta(blob, &meta));
  return meta;
}

Status ClearBuildMeta(Engine* engine, TableId table) {
  return engine->disk()->PutMeta(BuildMetaKey(table), "");
}

Status VerifyUniqueConflict(Engine* engine, TxnId locker, TableId table,
                            const std::vector<uint32_t>& key_cols,
                            const std::vector<KeyColumnType>& key_types,
                            std::string_view key, const Rid& existing_rid,
                            const Rid& new_rid) {
  // Section 2.2.3: IB locks both records in share mode, then verifies
  // whether the duplicate-key-value condition still exists.
  LockManager* locks = engine->locks();
  LockOptions opt;
  opt.timeout_ms = engine->options().lock_timeout_ms;
  OIB_RETURN_IF_ERROR(locks->Lock(locker, RecordLockId(table, existing_rid),
                                  LockMode::kS, opt));
  OIB_RETURN_IF_ERROR(
      locks->Lock(locker, RecordLockId(table, new_rid), LockMode::kS, opt));

  HeapFile* heap = engine->catalog()->table(table);
  if (heap == nullptr) return Status::NotFound("no such table");

  auto key_of = [&](const Rid& rid) -> StatusOr<std::string> {
    auto rec = heap->Get(rid);
    if (!rec.ok()) return rec.status();  // NotFound: record gone
    return Schema::ExtractKey(*rec, key_cols, key_types);
  };

  Status result = Status::OK();
  auto k1 = key_of(existing_rid);
  auto k2 = key_of(new_rid);
  if (k1.ok() && k2.ok() && *k1 == key && *k2 == key) {
    result = Status::UniqueViolation(
        "duplicate committed key values at " + existing_rid.ToString() +
        " and " + new_rid.ToString());
  } else if (!k1.ok() && !k1.status().IsNotFound()) {
    result = k1.status();
  } else if (!k2.ok() && !k2.status().IsNotFound()) {
    result = k2.status();
  }
  locks->Unlock(locker, RecordLockId(table, existing_rid));
  locks->Unlock(locker, RecordLockId(table, new_rid));
  return result;
}

Status ReattachInterruptedBuilds(Engine* engine) {
  std::map<TableId, std::vector<IndexDescriptor>> by_table;
  for (const IndexDescriptor& d : engine->catalog()->AllIndexes()) {
    if (d.state == IndexState::kBuilding) by_table[d.table].push_back(d);
  }
  for (auto& [table, descs] : by_table) {
    BuildAlgo algo = descs.front().algo;
    if (algo == BuildAlgo::kOffline) {
      // Offline builds hold an X table lock, which died with the crash;
      // resumption is a from-scratch rebuild, so no registration.
      continue;
    }
    std::vector<IndexId> ids;
    ids.reserve(descs.size());
    for (const IndexDescriptor& d : descs) ids.push_back(d.id);
    auto build = engine->catalog()->BeginBuild(table, algo, ids);
    if (!build.ok()) return build.status();
    if (algo == BuildAlgo::kSf) {
      auto meta = LoadBuildMeta(engine, table);
      if (!meta.ok()) {
        if (!meta.status().IsNotFound()) return meta.status();
        // Crash before the first checkpoint: the scan restarts from the
        // beginning; every pre-crash side-file entry is stale.
        BuildMeta fresh;
        fresh.algo = algo;
        fresh.indexes = ids;
        fresh.phase = 1;
        fresh.current_rid = PackRid(Rid::MinusInfinity());
        meta = std::move(fresh);
      }
      (*build)->current_rid.store(meta->current_rid);
      // Restart fences: the resumed scan re-extracts every partition's
      // pages from its last checkpointed position up to its bound, so
      // pre-crash side-file entries for RIDs in those re-scan regions
      // describe changes IB will re-extract and must be skipped during
      // apply.  Entries for already-extracted regions (below a
      // partition's saved position) must NOT be fenced — they are the
      // only record of post-extraction changes (see DESIGN.md).  Once the
      // scan phase is durably complete (phase >= 2) nothing is rescanned
      // and no fence is needed.
      if (meta->fences.size() != meta->indexes.size()) {
        meta->fences.assign(meta->indexes.size(), {});
      }
      if (meta->phase <= 1) {
        std::vector<std::pair<uint64_t, uint64_t>> regions;
        ScanPlan plan;
        if (!meta->phase_blob.empty()) {
          OIB_RETURN_IF_ERROR(DecodeScanPlan(meta->phase_blob, &plan));
        }
        if (!plan.parts.empty()) {
          for (const ScanPartition& part : plan.parts) {
            if (part.next == kInvalidPageId) continue;
            uint64_t lo = PackRid(Rid(part.next, 0));
            uint64_t hi = part.bound == kInvalidPageId
                              ? ~0ull
                              : PackRid(Rid(part.bound, 0));
            if (lo < hi) regions.emplace_back(lo, hi);
          }
        } else {
          // Crash before the first checkpoint: the whole chain is
          // rescanned, so every pre-crash entry is stale.
          regions.emplace_back(0, ~0ull);
        }
        for (size_t i = 0; i < meta->indexes.size(); ++i) {
          SideFile* sf = engine->catalog()->side_file(meta->indexes[i]);
          if (sf == nullptr) return Status::Corruption("missing side file");
          for (const auto& [lo, hi] : regions) {
            SideFileFence fence;
            fence.before_ordinal = sf->entries_appended();
            fence.rid_floor = lo;
            fence.rid_ceiling = hi;
            meta->fences[i].push_back(fence);
          }
        }
      }
      OIB_RETURN_IF_ERROR(SaveBuildMeta(engine, table, *meta));
    }
  }
  return Status::OK();
}

Status CancelBuild(Engine* engine, TableId table) {
  Transaction* txn = engine->Begin();
  LockOptions opt;
  opt.timeout_ms = 60'000;
  Status s = engine->locks()->Lock(txn->id(), TableLockId(table),
                                   LockMode::kS, opt);
  const TableView* view = engine->catalog()->view(table);
  if (s.ok() && (view == nullptr || view->build == nullptr)) {
    s = Status::NotFound("no build in progress");
  }
  if (s.ok()) {
    for (const IndexRef& ix : view->build->indexes) {
      s = engine->catalog()->DropIndex(ix.id);
      if (!s.ok()) break;
    }
  }
  if (s.ok()) s = ClearBuildMeta(engine, table);
  if (!s.ok()) {
    (void)engine->Rollback(txn);
    return s;
  }
  return engine->Commit(txn);
}

}  // namespace oib
