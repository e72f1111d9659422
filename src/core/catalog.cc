#include "core/catalog.h"

#include <algorithm>

#include "common/coding.h"
#include "common/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace oib {

namespace {
constexpr char kCatalogMetaKey[] = "catalog";
constexpr char kHeapChainsMetaKey[] = "heap_chains";

// Decodes a SnapshotHeapChains blob; absent (no checkpoint yet) = empty.
Status LoadHeapChains(DiskManager* disk,
                      std::map<TableId, HeapFile::ChainSnapshot>* out) {
  std::string blob;
  Status s = disk->GetMeta(kHeapChainsMetaKey, &blob);
  if (s.IsNotFound()) return Status::OK();
  OIB_RETURN_IF_ERROR(s);
  BufferReader r(blob);
  uint32_t n;
  if (!r.GetFixed32(&n)) return Status::Corruption("heap chains blob");
  for (uint32_t i = 0; i < n; ++i) {
    TableId id;
    if (!r.GetFixed32(&id)) return Status::Corruption("heap chains blob");
    OIB_RETURN_IF_ERROR((*out)[id].DecodeFrom(&r));
  }
  return Status::OK();
}

// NSF trees know whether IB is active (BTree::set_ib_active): while it is,
// undoing a key insert pseudo-deletes (section 2.2.3).
void MarkIbActive(const ActiveBuild& build, bool active) {
  if (build.algo != BuildAlgo::kNsf) return;
  for (const IndexRef& ix : build.indexes) ix.tree->set_ib_active(active);
}

}  // namespace

// Lock ordering: the catalog never takes a page latch while holding mu_
// (rank kCatalog > kPageLatch).  Mutators therefore reserve the name/id
// under mu_, release it for the page-latching Create()/Open() work (the
// new object's pages are private to this thread until published), then
// re-acquire mu_ to publish and persist.

StatusOr<TableId> Catalog::CreateTable(const std::string& name) {
  TableId id;
  {
    sync::MutexLock g(&mu_);
    for (const auto& [tid, info] : tables_) {
      if (info.name == name) return Status::InvalidArgument("table exists");
    }
    if (next_table_id_ >= kMaxTables) {
      return Status::InvalidArgument("table limit reached");
    }
    id = next_table_id_++;
  }
  auto heap = std::make_unique<HeapFile>(id, pool_, txns_);
  OIB_RETURN_IF_ERROR(heap->Create());
  sync::MutexLock g(&mu_);
  for (const auto& [tid, info] : tables_) {
    if (info.name == name) return Status::InvalidArgument("table exists");
  }
  TableInfo info{id, name, heap->first_page()};
  tables_[id] = info;
  heaps_[id] = std::move(heap);
  table_indexes_[id];
  OIB_RETURN_IF_ERROR(PersistLocked());
  PublishLocked(id, nullptr);
  return id;
}

HeapFile* Catalog::table(TableId id) const {
  const TableView* v = view(id);
  return v == nullptr ? nullptr : v->heap;
}

const TableView* Catalog::view(TableId table) const {
  if (table >= kMaxTables) return nullptr;
  return views_[table].load(std::memory_order_acquire);
}

IndexRef Catalog::RefLocked(const IndexDescriptor& d) const {
  IndexRef ix;
  ix.id = d.id;
  ix.tree = trees_.at(d.id).get();
  auto sf = side_files_.find(d.id);
  if (sf != side_files_.end()) ix.side_file = sf->second.get();
  auto hash = hashes_.find(d.id);
  if (hash != hashes_.end()) ix.hash = hash->second.get();
  ix.unique = d.unique;
  ix.key_cols = d.key_cols;
  ix.key_types = d.key_types;
  return ix;
}

void Catalog::PublishLocked(TableId table,
                            std::shared_ptr<ActiveBuild> build) {
  auto view = std::make_unique<TableView>();
  view->heap = heaps_.at(table).get();
  for (IndexId id : table_indexes_[table]) {
    const IndexDescriptor& d = indexes_.at(id);
    if (d.state == IndexState::kReady) view->ready.push_back(RefLocked(d));
  }
  view->build = std::move(build);
  const TableView* old =
      views_[table].exchange(view.get(), std::memory_order_acq_rel);
  if (old != nullptr && old->build != nullptr && old->build != view->build) {
    MarkIbActive(*old->build, false);
  }
  published_.push_back(std::move(view));
}

StatusOr<TableId> Catalog::TableByName(const std::string& name) const {
  sync::MutexLock g(&mu_);
  for (const auto& [id, info] : tables_) {
    if (info.name == name) return id;
  }
  return Status::NotFound("no such table");
}

StatusOr<IndexDescriptor> Catalog::CreateIndex(
    const std::string& name, TableId table, bool unique,
    std::vector<uint32_t> key_cols, BuildAlgo algo,
    std::vector<KeyColumnType> key_types) {
  if (!key_types.empty() && key_types.size() != key_cols.size()) {
    return Status::InvalidArgument("key_types/key_cols size mismatch");
  }
  IndexId id;
  {
    sync::MutexLock g(&mu_);
    if (tables_.find(table) == tables_.end()) {
      return Status::NotFound("no such table");
    }
    for (const auto& [iid, d] : indexes_) {
      if (d.name == name) return Status::InvalidArgument("index exists");
    }
    id = next_index_id_++;
  }
  auto tree = std::make_unique<BTree>(id, pool_, txns_, options_);
  OIB_RETURN_IF_ERROR(tree->Create());

  // The hash mirror attaches before the tree is published, so every leaf
  // mutation the tree will ever see is reflected; under NSF that alone
  // keeps the mirror complete (IbInsertBatch notifies), under SF/offline
  // the bulk loader bypasses the tree paths and the builder's consume
  // stage BulkAdds explicitly.
  std::unique_ptr<HashIndex> hash;
  if (options_->enable_hash_index) {
    hash = std::make_unique<HashIndex>(id, options_->hash_index_shards);
    hash->AttachMetrics(&obs::MetricsRegistry::Default());
    tree->set_entry_observer(hash.get());
  }

  IndexDescriptor d;
  d.id = id;
  d.name = name;
  d.table = table;
  d.unique = unique;
  d.key_cols = std::move(key_cols);
  d.key_types = std::move(key_types);
  d.anchor = tree->anchor_page();
  d.state = IndexState::kBuilding;
  d.algo = algo;

  std::unique_ptr<SideFile> sf;
  if (algo == BuildAlgo::kSf) {
    sf = std::make_unique<SideFile>(id, pool_, txns_);
    OIB_RETURN_IF_ERROR(sf->Create());
    d.side_file_first = sf->first_page();
  }

  sync::MutexLock g(&mu_);
  if (tables_.find(table) == tables_.end()) {
    return Status::NotFound("no such table");
  }
  for (const auto& [iid, existing] : indexes_) {
    if (existing.name == name) return Status::InvalidArgument("index exists");
  }
  if (sf != nullptr) side_files_[id] = std::move(sf);
  if (hash != nullptr) hashes_[id] = std::move(hash);
  indexes_[id] = d;
  trees_[id] = std::move(tree);
  table_indexes_[table].push_back(id);
  OIB_RETURN_IF_ERROR(PersistLocked());
  return d;
}

StatusOr<std::shared_ptr<ActiveBuild>> Catalog::BeginBuild(
    TableId table, BuildAlgo algo, const std::vector<IndexId>& ids) {
  sync::MutexLock g(&mu_);
  if (tables_.find(table) == tables_.end()) {
    return Status::NotFound("no such table");
  }
  if (views_[table].load()->build != nullptr) {
    return Status::Busy("the table has an active build");
  }
  if (ids.empty()) return Status::InvalidArgument("a build needs an index");
  auto build = std::make_shared<ActiveBuild>();
  build->algo = algo;
  build->start_ns = obs::MonotonicNanos();
  for (IndexId id : ids) {
    auto it = indexes_.find(id);
    if (it == indexes_.end() || it->second.table != table ||
        it->second.state != IndexState::kBuilding) {
      return Status::InvalidArgument("not a building index of this table");
    }
    build->indexes.push_back(RefLocked(it->second));
  }
  MarkIbActive(*build, true);
  PublishLocked(table, build);
  return build;
}

Status Catalog::FinishBuild(TableId table) {
  sync::MutexLock g(&mu_);
  const TableView* current = view(table);
  if (current == nullptr || current->build == nullptr) {
    return Status::NotFound("no build in progress");
  }
  for (const IndexRef& ix : current->build->indexes) {
    if (ix.hash != nullptr) {
      // Publish the hash fragment together with the index state flip; a
      // crash here leaves the index kBuilding, so the resumed build's
      // repopulation + retry covers the fragment too.
      OIB_FAIL_POINT("hash.commit");
      ix.hash->set_readable(true);
    }
    IndexDescriptor& d = indexes_.at(ix.id);
    d.state = IndexState::kReady;
    d.algo = BuildAlgo::kNone;
  }
  OIB_RETURN_IF_ERROR(PersistLocked());
  PublishLocked(table, nullptr);
  return Status::OK();
}

Status Catalog::DropIndex(IndexId id) {
  sync::MutexLock g(&mu_);
  auto it = indexes_.find(id);
  if (it == indexes_.end()) return Status::NotFound("no such index");
  const TableId table = it->second.table;
  auto& order = table_indexes_[table];
  order.erase(std::remove(order.begin(), order.end(), id), order.end());
  indexes_.erase(it);
  // Publish the view without the index before its objects die.
  std::shared_ptr<ActiveBuild> build = views_[table].load()->build;
  if (build != nullptr &&
      std::any_of(build->indexes.begin(), build->indexes.end(),
                  [id](const IndexRef& ix) { return ix.id == id; })) {
    build = nullptr;
  }
  PublishLocked(table, std::move(build));
  // Detach the hash mirror before the tree or the fragment dies: a
  // cancelled build's fragment must not dangle as the tree's observer.
  auto tit = trees_.find(id);
  if (tit != trees_.end()) tit->second->set_entry_observer(nullptr);
  hashes_.erase(id);
  trees_.erase(id);
  side_files_.erase(id);
  return PersistLocked();
}

BTree* Catalog::index(IndexId id) const {
  sync::MutexLock g(&mu_);
  auto it = trees_.find(id);
  return it == trees_.end() ? nullptr : it->second.get();
}

SideFile* Catalog::side_file(IndexId id) const {
  sync::MutexLock g(&mu_);
  auto it = side_files_.find(id);
  return it == side_files_.end() ? nullptr : it->second.get();
}

HashIndex* Catalog::hash_index(IndexId id) const {
  sync::MutexLock g(&mu_);
  auto it = hashes_.find(id);
  return it == hashes_.end() ? nullptr : it->second.get();
}

StatusOr<IndexDescriptor> Catalog::descriptor(IndexId id) const {
  sync::MutexLock g(&mu_);
  auto it = indexes_.find(id);
  if (it == indexes_.end()) return Status::NotFound("no such index");
  return it->second;
}

std::vector<IndexDescriptor> Catalog::IndexesOf(TableId table) const {
  sync::MutexLock g(&mu_);
  std::vector<IndexDescriptor> out;
  auto it = table_indexes_.find(table);
  if (it == table_indexes_.end()) return out;
  for (IndexId id : it->second) {
    out.push_back(indexes_.at(id));
  }
  return out;
}

std::vector<IndexDescriptor> Catalog::AllIndexes() const {
  sync::MutexLock g(&mu_);
  std::vector<IndexDescriptor> out;
  for (const auto& [id, d] : indexes_) {
    (void)id;
    out.push_back(d);
  }
  return out;
}

Status Catalog::PersistLocked() {
  // The metadata names pages (heap chains, tree anchors, side-files)
  // whose formatting lives in the log; force the log first so a crash
  // right after the meta write never exposes references to unformatted
  // pages.
  OIB_RETURN_IF_ERROR(txns_->log()->FlushAll());
  std::string blob;
  PutFixed32(&blob, next_table_id_);
  PutFixed32(&blob, next_index_id_);
  PutFixed32(&blob, static_cast<uint32_t>(tables_.size()));
  for (const auto& [id, info] : tables_) {
    PutFixed32(&blob, id);
    PutLengthPrefixed(&blob, info.name);
    PutFixed32(&blob, info.first_page);
  }
  PutFixed32(&blob, static_cast<uint32_t>(indexes_.size()));
  for (const auto& [id, d] : indexes_) {
    PutFixed32(&blob, id);
    PutLengthPrefixed(&blob, d.name);
    PutFixed32(&blob, d.table);
    blob.push_back(d.unique ? 1 : 0);
    PutFixed32(&blob, static_cast<uint32_t>(d.key_cols.size()));
    for (uint32_t c : d.key_cols) PutFixed32(&blob, c);
    PutFixed32(&blob, static_cast<uint32_t>(d.key_types.size()));
    for (KeyColumnType t : d.key_types) {
      blob.push_back(static_cast<char>(t));
    }
    PutFixed32(&blob, d.anchor);
    PutFixed32(&blob, d.side_file_first);
    blob.push_back(static_cast<char>(d.state));
    blob.push_back(static_cast<char>(d.algo));
  }
  // Per-table creation order.
  PutFixed32(&blob, static_cast<uint32_t>(table_indexes_.size()));
  for (const auto& [table, order] : table_indexes_) {
    PutFixed32(&blob, table);
    PutFixed32(&blob, static_cast<uint32_t>(order.size()));
    for (IndexId id : order) PutFixed32(&blob, id);
  }
  return disk_->PutMeta(kCatalogMetaKey, blob);
}

std::string Catalog::SnapshotHeapChains() const {
  sync::MutexLock g(&mu_);
  std::string blob;
  PutFixed32(&blob, static_cast<uint32_t>(heaps_.size()));
  for (const auto& [id, heap] : heaps_) {
    PutFixed32(&blob, id);
    heap->TakeChainSnapshot().EncodeTo(&blob);
  }
  return blob;
}

Status Catalog::PersistHeapChains(const std::string& blob) {
  return disk_->PutMeta(kHeapChainsMetaKey, blob);
}

Status Catalog::Load() {
  std::string blob;
  Status s = disk_->GetMeta(kCatalogMetaKey, &blob);
  if (s.IsNotFound()) return Status::OK();  // fresh database
  OIB_RETURN_IF_ERROR(s);

  // Parse and re-open every object into locals first: Open() latches
  // pages, which must not happen under mu_ (see the ordering note above
  // CreateTable).  Load runs during startup before updaters exist, but
  // the mu_ -> page-latch edge would still poison the process-wide lock
  // order.
  std::map<TableId, TableInfo> tables;
  std::map<TableId, std::unique_ptr<HeapFile>> heaps;
  std::map<IndexId, IndexDescriptor> indexes;
  std::map<IndexId, std::unique_ptr<BTree>> trees;
  std::map<IndexId, std::unique_ptr<SideFile>> side_files;
  std::map<IndexId, std::unique_ptr<HashIndex>> hashes;
  std::map<TableId, std::vector<IndexId>> table_indexes;
  std::map<TableId, HeapFile::ChainSnapshot> chains;
  OIB_RETURN_IF_ERROR(LoadHeapChains(disk_, &chains));
  uint32_t next_table_id, next_index_id;

  BufferReader r(blob);
  uint32_t n_tables, n_indexes, n_orders;
  if (!r.GetFixed32(&next_table_id) || !r.GetFixed32(&next_index_id) ||
      !r.GetFixed32(&n_tables)) {
    return Status::Corruption("catalog blob");
  }
  for (uint32_t i = 0; i < n_tables; ++i) {
    TableInfo info;
    if (!r.GetFixed32(&info.id) || !r.GetLengthPrefixed(&info.name) ||
        !r.GetFixed32(&info.first_page) || info.id >= kMaxTables) {
      return Status::Corruption("catalog table entry");
    }
    tables[info.id] = info;
    auto heap = std::make_unique<HeapFile>(info.id, pool_, txns_);
    auto chain = chains.find(info.id);
    OIB_RETURN_IF_ERROR(heap->Open(
        info.first_page, chain == chains.end() ? nullptr : &chain->second));
    heaps[info.id] = std::move(heap);
  }
  if (!r.GetFixed32(&n_indexes)) return Status::Corruption("catalog blob");
  for (uint32_t i = 0; i < n_indexes; ++i) {
    IndexDescriptor d;
    uint8_t unique_byte, state_byte, algo_byte;
    uint32_t n_cols;
    if (!r.GetFixed32(&d.id) || !r.GetLengthPrefixed(&d.name) ||
        !r.GetFixed32(&d.table) || !r.GetByte(&unique_byte) ||
        !r.GetFixed32(&n_cols)) {
      return Status::Corruption("catalog index entry");
    }
    d.unique = unique_byte != 0;
    for (uint32_t c = 0; c < n_cols; ++c) {
      uint32_t col;
      if (!r.GetFixed32(&col)) return Status::Corruption("key col");
      d.key_cols.push_back(col);
    }
    uint32_t n_types;
    if (!r.GetFixed32(&n_types)) return Status::Corruption("key types");
    for (uint32_t c = 0; c < n_types; ++c) {
      uint8_t t;
      if (!r.GetByte(&t)) return Status::Corruption("key type");
      d.key_types.push_back(static_cast<KeyColumnType>(t));
    }
    if (!r.GetFixed32(&d.anchor) || !r.GetFixed32(&d.side_file_first) ||
        !r.GetByte(&state_byte) || !r.GetByte(&algo_byte)) {
      return Status::Corruption("catalog index entry");
    }
    d.state = static_cast<IndexState>(state_byte);
    d.algo = static_cast<BuildAlgo>(algo_byte);

    auto tree = std::make_unique<BTree>(d.id, pool_, txns_, options_);
    OIB_RETURN_IF_ERROR(tree->Open(d.anchor));
    if (options_->enable_hash_index) {
      auto hash =
          std::make_unique<HashIndex>(d.id, options_->hash_index_shards);
      hash->AttachMetrics(&obs::MetricsRegistry::Default());
      tree->set_entry_observer(hash.get());
      // Repopulate from the quiescent tree — restart redo ran before Load,
      // and loser undo (after Load) is mirrored through the observer.  An
      // interrupted SF build is the exception: its loader may hold a torn
      // tail that SfIndexBuilder::Resume truncates, so Resume owns the
      // repopulation for those.
      if (d.state == IndexState::kReady || d.algo != BuildAlgo::kSf) {
        OIB_RETURN_IF_ERROR(PopulateHashFromTree(tree.get(), hash.get()));
      }
      if (d.state == IndexState::kReady) hash->set_readable(true);
      hashes[d.id] = std::move(hash);
    }
    trees[d.id] = std::move(tree);
    if (d.side_file_first != kInvalidPageId) {
      auto sf = std::make_unique<SideFile>(d.id, pool_, txns_);
      OIB_RETURN_IF_ERROR(sf->Open(d.side_file_first));
      side_files[d.id] = std::move(sf);
    }
    indexes[d.id] = std::move(d);
  }
  if (!r.GetFixed32(&n_orders)) return Status::Corruption("catalog blob");
  for (uint32_t i = 0; i < n_orders; ++i) {
    uint32_t table, n;
    if (!r.GetFixed32(&table) || !r.GetFixed32(&n)) {
      return Status::Corruption("catalog order entry");
    }
    std::vector<IndexId>& order = table_indexes[table];
    for (uint32_t j = 0; j < n; ++j) {
      uint32_t id;
      if (!r.GetFixed32(&id)) return Status::Corruption("order id");
      order.push_back(id);
    }
  }

  sync::MutexLock g(&mu_);
  next_table_id_ = next_table_id;
  next_index_id_ = next_index_id;
  tables_ = std::move(tables);
  heaps_ = std::move(heaps);
  indexes_ = std::move(indexes);
  trees_ = std::move(trees);
  side_files_ = std::move(side_files);
  hashes_ = std::move(hashes);
  table_indexes_ = std::move(table_indexes);
  // Interrupted builds are published afterwards, by
  // ReattachInterruptedBuilds.
  for (const auto& [id, info] : tables_) PublishLocked(id, nullptr);
  return Status::OK();
}

}  // namespace oib
