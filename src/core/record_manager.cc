#include "core/record_manager.h"

#include <algorithm>

namespace oib {

namespace {

// Logged-count semantics: the count stored in every data-page log record
// is the number of indexes the transaction maintained *directly* (ready
// indexes plus, for NSF, the indexes under construction).  An SF index
// routed through the side-file is deliberately NOT counted: during
// rollback the uniform rule "compensate every index at ordinal >=
// logged_count" then works across all visibility transitions, including
// forward-op-routed-via-side-file followed by build completion (see
// DESIGN.md for the full case analysis; the paper's Figure 2 count
// comparison is ambiguous for that case).

// The index change one heap change implies: remove `del_key`, then add
// `ins_key` (an update that keeps the key implies neither).
struct KeyDiff {
  bool del = false;
  bool ins = false;
  std::string del_key;
  std::string ins_key;
};

// Derives the key diff of `op` from the record images.  Undo derives the
// inverse change's diff: the inverse op with before and after swapped.
Status DiffKeys(HeapOp op, std::string_view before, std::string_view after,
                const std::vector<uint32_t>& cols,
                const std::vector<KeyColumnType>& types, KeyDiff* diff) {
  switch (op) {
    case HeapOp::kInsert:
      diff->ins = true;
      break;
    case HeapOp::kDelete:
      diff->del = true;
      break;
    case HeapOp::kUpdate:
      diff->del = diff->ins = true;
      break;
    default:
      return Status::Corruption("bad maintenance op");
  }
  if (diff->del) {
    OIB_RETURN_IF_ERROR(
        Schema::ExtractKeyTo(before, cols, types, &diff->del_key));
  }
  if (diff->ins) {
    OIB_RETURN_IF_ERROR(
        Schema::ExtractKeyTo(after, cols, types, &diff->ins_key));
  }
  if (diff->del && diff->ins && diff->del_key == diff->ins_key) {
    diff->del = diff->ins = false;
  }
  return Status::OK();
}

// The one side-file append path, forward and undo alike: appends the
// diff's entries and counts each in records.side_file_appends.
Status AppendSideFile(Transaction* txn, SideFile* side_file,
                      const KeyDiff& diff, const Rid& rid,
                      RecordManagerStats* stats) {
  if (diff.del) {
    OIB_RETURN_IF_ERROR(
        side_file->Append(txn, SideFileOp::kDeleteKey, diff.del_key, rid));
    stats->side_file_appends.fetch_add(1);
  }
  if (diff.ins) {
    OIB_RETURN_IF_ERROR(
        side_file->Append(txn, SideFileOp::kInsertKey, diff.ins_key, rid));
    stats->side_file_appends.fetch_add(1);
  }
  return Status::OK();
}

HeapOp InverseOp(HeapOp op) {
  return op == HeapOp::kInsert   ? HeapOp::kDelete
         : op == HeapOp::kDelete ? HeapOp::kInsert
                                 : op;
}

}  // namespace

RecordManager::~RecordManager() {
  if (metrics_ != nullptr) metrics_->DetachOwner(this);
}

void RecordManager::AttachMetrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  registry->RegisterValueFn(
      "records.side_file_appends",
      [this] { return stats_.side_file_appends.load(); }, this);
  registry->RegisterValueFn(
      "records.nsf_duplicate_inserts",
      [this] { return stats_.nsf_duplicate_inserts.load(); }, this);
  registry->RegisterValueFn(
      "records.tombstone_inserts",
      [this] { return stats_.tombstone_inserts.load(); }, this);
  registry->RegisterValueFn(
      "records.rollback_compensations",
      [this] { return stats_.rollback_compensations.load(); }, this);
  hash_hits_ = registry->GetCounter("hash.hits");
  hash_misses_ = registry->GetCounter("hash.misses");
  hash_fallbacks_ = registry->GetCounter("hash.fallbacks");
}

void RecordManager::AttachHeapRm(HeapRm* heap_rm) {
  heap_rm->SetUndoHook(
      [this](Transaction* txn, TableId table, HeapOp op, Rid rid,
             std::string_view before, std::string_view after,
             uint32_t logged_count) {
        return UndoHook(txn, table, op, rid, before, after, logged_count);
      });
}

// ----------------------------- planning ------------------------------

RecordManager::MaintPlan RecordManager::PlanFor(TableId table,
                                                const Rid& rid) {
  MaintPlan plan;
  plan.view = catalog_->view(table);
  // A published build is entered through its drain gate.  SF publishes
  // its finished build with the gate closed, so a plan that waited at the
  // gate may hold a stale view: reload, and replan when it changed.
  while (plan.view != nullptr && plan.view->build != nullptr) {
    plan.gate = plan.view->build->EnterGateShared();
    const TableView* now = catalog_->view(table);
    if (now == plan.view) break;
    plan.gate.Release();
    plan.view = now;
  }
  if (plan.view == nullptr) return plan;
  plan.visible_count = static_cast<uint32_t>(plan.view->ready.size());
  if (const ActiveBuild* build = plan.view->build.get()) {
    if (build->algo == BuildAlgo::kNsf) {
      plan.visible_count += static_cast<uint32_t>(build->indexes.size());
    } else if (build->algo == BuildAlgo::kSf) {
      plan.sf_visible = PackRid(rid) < build->current_rid.load();
    }
  }
  return plan;
}

// --------------------------- key maintenance -------------------------

Status RecordManager::ResolveUniqueConflict(Transaction* txn, TableId table,
                                            BTree* tree,
                                            std::string_view key,
                                            const Rid& new_rid) {
  for (int attempt = 0; attempt < 16; ++attempt) {
    auto vm = tree->FindKeyValue(key);
    if (!vm.ok()) return vm.status();
    if (!vm->found || vm->rid == new_rid) return Status::OK();
    // Ensure the conflicting key belongs to a finished transaction: its
    // owner holds the record X lock until commit/abort, so acquiring an
    // S lock proves it ended (the paper's committed-ness check; the
    // Commit_LSN shortcut of [Moha90b] would avoid this lock).
    LockOptions opt;
    opt.timeout_ms = options_->lock_timeout_ms;
    OIB_RETURN_IF_ERROR(locks_->Lock(
        txn->id(), RecordLockId(table, vm->rid), LockMode::kS, opt));
    // Recheck the entry now that the owner has finished.
    auto lk = tree->Lookup(key, vm->rid);
    if (!lk.ok()) return lk.status();
    if (!lk->found) continue;  // rolled back; look again
    if (lk->pseudo_deleted) {
      // Committed deletion: the tombstone is dead weight; remove it (the
      // paper resets the flag and replaces the RID — equivalent).
      Status s = tree->GcRemove(key, vm->rid);
      if (!s.ok() && !s.IsNotFound() && !s.IsInvalidArgument()) return s;
      continue;
    }
    return Status::UniqueViolation("key value exists: index " +
                                   std::to_string(tree->index_id()));
  }
  return Status::Busy("unique conflict resolution did not converge");
}

Status RecordManager::InsertKey(Transaction* txn, TableId table, BTree* tree,
                                bool unique, bool nsf_build,
                                std::string_view key, const Rid& rid) {
  if (unique) {
    OIB_RETURN_IF_ERROR(
        ResolveUniqueConflict(txn, table, tree, key, rid));
  }
  auto r = tree->Insert(txn, key, rid);
  if (!r.ok()) return r.status();
  if (*r == BTree::InsertResult::kAlreadyPresent) {
    if (nsf_build) {
      // NSF section 2.1.1: IB physically inserted the key first; the
      // transaction writes an undo-only record so its rollback would
      // delete the key.
      stats_.nsf_duplicate_inserts.fetch_add(1);
      return tree->LogUndoOnlyInsert(txn, key, rid);
    }
    return Status::Corruption("duplicate key in ready index");
  }
  return Status::OK();
}

Status RecordManager::DeleteKey(Transaction* txn, BTree* tree,
                                bool nsf_build, std::string_view key,
                                const Rid& rid) {
  if (nsf_build) {
    // Section 2.2.3 deleter logic: pseudo-delete, leaving a tombstone if
    // the key is absent (IB may insert it later).
    auto r = tree->PseudoDelete(txn, key, rid);
    if (!r.ok()) return r.status();
    if (*r == BTree::DeleteResult::kTombstoneInserted) {
      stats_.tombstone_inserts.fetch_add(1);
    }
    return Status::OK();
  }
  return tree->PhysicalDelete(txn, key, rid);
}

Status RecordManager::Maintain(Transaction* txn, TableId table,
                               const MaintPlan& plan, HeapOp op,
                               const Rid& rid, std::string_view old_rec,
                               std::string_view new_rec) {
  auto maintain_direct = [&](const IndexRef& ix, bool nsf_build) -> Status {
    KeyDiff diff;
    OIB_RETURN_IF_ERROR(
        DiffKeys(op, old_rec, new_rec, ix.key_cols, ix.key_types, &diff));
    if (diff.del) {
      OIB_RETURN_IF_ERROR(
          DeleteKey(txn, ix.tree, nsf_build, diff.del_key, rid));
    }
    if (diff.ins) {
      return InsertKey(txn, table, ix.tree, ix.unique, nsf_build,
                       diff.ins_key, rid);
    }
    return Status::OK();
  };

  for (const IndexRef& ix : plan.view->ready) {
    OIB_RETURN_IF_ERROR(maintain_direct(ix, /*nsf_build=*/false));
  }

  const ActiveBuild* build = plan.view->build.get();
  if (build == nullptr) return Status::OK();

  if (build->algo == BuildAlgo::kNsf) {
    for (const IndexRef& ix : build->indexes) {
      OIB_RETURN_IF_ERROR(maintain_direct(ix, /*nsf_build=*/true));
    }
    return Status::OK();
  }

  // SF: append to the side-file only when the index is visible, i.e. the
  // builder's scan has already passed this RID (Figure 1).
  if (build->algo == BuildAlgo::kSf && plan.sf_visible) {
    for (const IndexRef& ix : build->indexes) {
      KeyDiff diff;
      OIB_RETURN_IF_ERROR(
          DiffKeys(op, old_rec, new_rec, ix.key_cols, ix.key_types, &diff));
      OIB_RETURN_IF_ERROR(AppendSideFile(txn, ix.side_file, diff, rid, &stats_));
    }
  }
  return Status::OK();
}

// --------------------------- record operations -----------------------

StatusOr<Rid> RecordManager::InsertRecord(Transaction* txn, TableId table,
                                          std::string_view record) {
  LockOptions opt;
  opt.timeout_ms = options_->lock_timeout_ms;
  OIB_RETURN_IF_ERROR(
      locks_->Lock(txn->id(), TableLockId(table), LockMode::kIX, opt));
  HeapFile* heap = catalog_->table(table);
  if (heap == nullptr) return Status::NotFound("no such table");

  MaintPlan plan;
  auto rid = heap->Insert(
      txn, record,
      [&](const Rid& r) {
        plan = PlanFor(table, r);
        return plan.visible_count;
      },
      [&](const Rid& r) {
        // Claim the dead slot's lock: denied while its deleter is active.
        LockOptions claim;
        claim.conditional = true;
        return locks_
            ->Lock(txn->id(), RecordLockId(table, r), LockMode::kX, claim)
            .ok();
      });
  if (!rid.ok()) return rid.status();
  OIB_RETURN_IF_ERROR(
      locks_->Lock(txn->id(), RecordLockId(table, *rid), LockMode::kX, opt));
  OIB_RETURN_IF_ERROR(
      Maintain(txn, table, plan, HeapOp::kInsert, *rid, {}, record));
  return *rid;
}

Status RecordManager::InsertRecordAt(Transaction* txn, TableId table,
                                     Rid rid, std::string_view record) {
  LockOptions opt;
  opt.timeout_ms = options_->lock_timeout_ms;
  OIB_RETURN_IF_ERROR(
      locks_->Lock(txn->id(), TableLockId(table), LockMode::kIX, opt));
  OIB_RETURN_IF_ERROR(
      locks_->Lock(txn->id(), RecordLockId(table, rid), LockMode::kX, opt));
  HeapFile* heap = catalog_->table(table);
  if (heap == nullptr) return Status::NotFound("no such table");

  MaintPlan plan;
  OIB_RETURN_IF_ERROR(heap->InsertAt(txn, rid, record, [&](const Rid& r) {
    plan = PlanFor(table, r);
    return plan.visible_count;
  }));
  return Maintain(txn, table, plan, HeapOp::kInsert, rid, {}, record);
}

Status RecordManager::DeleteRecord(Transaction* txn, TableId table,
                                   Rid rid) {
  LockOptions opt;
  opt.timeout_ms = options_->lock_timeout_ms;
  OIB_RETURN_IF_ERROR(
      locks_->Lock(txn->id(), TableLockId(table), LockMode::kIX, opt));
  OIB_RETURN_IF_ERROR(
      locks_->Lock(txn->id(), RecordLockId(table, rid), LockMode::kX, opt));
  HeapFile* heap = catalog_->table(table);
  if (heap == nullptr) return Status::NotFound("no such table");

  MaintPlan plan;
  std::string old_rec;
  OIB_RETURN_IF_ERROR(heap->Delete(
      txn, rid,
      [&](const Rid& r) {
        plan = PlanFor(table, r);
        return plan.visible_count;
      },
      &old_rec));
  return Maintain(txn, table, plan, HeapOp::kDelete, rid, old_rec, {});
}

Status RecordManager::UpdateRecord(Transaction* txn, TableId table, Rid rid,
                                   std::string_view new_record) {
  LockOptions opt;
  opt.timeout_ms = options_->lock_timeout_ms;
  OIB_RETURN_IF_ERROR(
      locks_->Lock(txn->id(), TableLockId(table), LockMode::kIX, opt));
  OIB_RETURN_IF_ERROR(
      locks_->Lock(txn->id(), RecordLockId(table, rid), LockMode::kX, opt));
  HeapFile* heap = catalog_->table(table);
  if (heap == nullptr) return Status::NotFound("no such table");

  MaintPlan plan;
  std::string old_rec;
  OIB_RETURN_IF_ERROR(heap->Update(
      txn, rid, new_record,
      [&](const Rid& r) {
        plan = PlanFor(table, r);
        return plan.visible_count;
      },
      &old_rec));
  return Maintain(txn, table, plan, HeapOp::kUpdate, rid, old_rec,
                  new_record);
}

StatusOr<std::string> RecordManager::ReadRecord(Transaction* txn,
                                                TableId table, Rid rid) {
  LockOptions opt;
  opt.timeout_ms = options_->lock_timeout_ms;
  OIB_RETURN_IF_ERROR(
      locks_->Lock(txn->id(), TableLockId(table), LockMode::kIS, opt));
  OIB_RETURN_IF_ERROR(
      locks_->Lock(txn->id(), RecordLockId(table, rid), LockMode::kS, opt));
  HeapFile* heap = catalog_->table(table);
  if (heap == nullptr) return Status::NotFound("no such table");
  return heap->Get(rid);
}

StatusOr<std::string> RecordManager::ReadRecordByKey(Transaction* txn,
                                                     TableId table,
                                                     IndexId index,
                                                     std::string_view key) {
  LockOptions opt;
  opt.timeout_ms = options_->lock_timeout_ms;
  OIB_RETURN_IF_ERROR(
      locks_->Lock(txn->id(), TableLockId(table), LockMode::kIS, opt));
  const TableView* view = catalog_->view(table);
  if (view == nullptr) return Status::NotFound("no such table");
  auto ix = std::find_if(view->ready.begin(), view->ready.end(),
                         [index](const IndexRef& r) { return r.id == index; });
  if (ix == view->ready.end()) {
    return Status::InvalidArgument("index not readable on this table");
  }
  HeapFile* heap = view->heap;
  BTree* tree = ix->tree;
  HashIndex* hash = ix->hash;

  // Resolve key -> RID, lock, fetch, then verify the fetched record still
  // carries this key (it may have been updated between the index read and
  // the record lock); mismatch retries with fresh index state.
  for (int attempt = 0; attempt < 16; ++attempt) {
    Rid rid;
    bool resolved = false;
    if (hash != nullptr) {
      switch (hash->Probe(key, &rid)) {
        case HashProbe::kHit:
          if (hash_hits_ != nullptr) hash_hits_->Inc();
          resolved = true;
          break;
        case HashProbe::kDeleted:
          // Every entry for the key is pseudo-deleted: a tree descent
          // would surface the same tombstone and answer NotFound.
          if (hash_hits_ != nullptr) hash_hits_->Inc();
          return Status::NotFound("no record with this key");
        case HashProbe::kMiss:
          if (hash_misses_ != nullptr) hash_misses_->Inc();
          break;
        case HashProbe::kFallback:
          if (hash_fallbacks_ != nullptr) hash_fallbacks_->Inc();
          break;
      }
    }
    if (!resolved) {
      auto vm = tree->FindKeyValue(key);
      if (!vm.ok()) return vm.status();
      if (!vm->found || vm->pseudo_deleted) {
        return Status::NotFound("no record with this key");
      }
      rid = vm->rid;
    }
    OIB_RETURN_IF_ERROR(locks_->Lock(txn->id(), RecordLockId(table, rid),
                                     LockMode::kS, opt));
    auto rec = heap->Get(rid);
    if (!rec.ok()) {
      if (rec.status().IsNotFound()) continue;  // deleted after resolution
      return rec.status();
    }
    std::string actual_key;
    OIB_RETURN_IF_ERROR(
        Schema::ExtractKeyTo(*rec, ix->key_cols, ix->key_types, &actual_key));
    if (actual_key == key) return rec;
    // The record moved to a different key under us; resolve again.
  }
  return Status::Busy("point read did not converge");
}

// ------------------------------ Figure 2 -----------------------------

Status RecordManager::UndoHook(Transaction* txn, TableId table,
                               HeapOp original_op, Rid rid,
                               std::string_view before,
                               std::string_view after,
                               uint32_t logged_count) {
  // Runs under the data-page X latch, before the heap CLR.  All actions
  // here are idempotent so a crash mid-undo can safely repeat them.
  MaintPlan plan = PlanFor(table, rid);
  if (plan.view == nullptr) return Status::OK();

  // The inverse change's key diff for one index.
  const HeapOp undo_op = InverseOp(original_op);
  auto undo_diff = [&](const IndexRef& ix, KeyDiff* diff) {
    return DiffKeys(undo_op, after, before, ix.key_cols, ix.key_types, diff);
  };

  // Direct (tree-traversal) compensation, logged redo-only: these actions
  // are themselves undo actions and must never be re-undone.  Both
  // tolerate a crash-repeated compensation (absent / already present).
  auto compensate_direct = [&](const IndexRef& ix) -> Status {
    KeyDiff diff;
    OIB_RETURN_IF_ERROR(undo_diff(ix, &diff));
    if (diff.del) {
      Status s = ix.tree->PhysicalDelete(txn, diff.del_key, rid,
                                         LogRecordType::kRedoOnly);
      if (!s.ok() && !s.IsNotFound()) return s;
    }
    if (diff.ins) {
      return ix.tree
          ->Insert(txn, diff.ins_key, rid, 0, LogRecordType::kRedoOnly)
          .status();
    }
    return Status::OK();
  };

  uint32_t ordinal = 0;
  for (const IndexRef& ix : plan.view->ready) {
    if (ordinal++ < logged_count) continue;
    // Made visible (completed) since the original change: logical undo
    // by traversing the tree (Figure 2).
    OIB_RETURN_IF_ERROR(compensate_direct(ix));
    stats_.rollback_compensations.fetch_add(1);
  }
  const ActiveBuild* build = plan.view->build.get();
  if (build == nullptr) return Status::OK();
  for (const IndexRef& ix : build->indexes) {
    if (ordinal++ < logged_count) continue;
    if (build->algo == BuildAlgo::kSf) {
      if (plan.sf_visible) {
        // Inverse side-file entries: the undo is itself a record
        // modification the builder will not see (Figure 1 applied to the
        // inverse operation).
        KeyDiff diff;
        OIB_RETURN_IF_ERROR(undo_diff(ix, &diff));
        OIB_RETURN_IF_ERROR(
            AppendSideFile(txn, ix.side_file, diff, rid, &stats_));
        stats_.rollback_compensations.fetch_add(1);
      }
      // Invisible: IB will extract the post-undo state; nothing to do.
    } else if (build->algo == BuildAlgo::kNsf) {
      // NSF builds quiesce updates at descriptor creation (2.2.1), so a
      // transaction older than the descriptor cannot exist; kept for
      // safety with a tolerant direct compensation.
      OIB_RETURN_IF_ERROR(compensate_direct(ix));
    }
  }
  return Status::OK();
}

}  // namespace oib
