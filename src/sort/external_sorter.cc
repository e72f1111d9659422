#include "sort/external_sorter.h"

#include <algorithm>

#include "common/coding.h"

namespace oib {

// ------------------------------ RunWriter ------------------------------

ExternalSorter::RunWriter::RunWriter(RunStore* store, size_t workspace_keys)
    : store_(store),
      k_(workspace_keys == 0 ? 1 : workspace_keys),
      items_(k_),
      tags_(k_, 0),
      valid_(k_, false),
      tree_(k_, [this](size_t a, size_t b) {
        // Valid sorts before invalid; ties by (tag, key, rid).  Slots at
        // or beyond k_ are power-of-two padding and always invalid.
        bool va = a < k_ && valid_[a];
        bool vb = b < k_ && valid_[b];
        if (!va) return false;
        if (!vb) return true;
        if (tags_[a] != tags_[b]) return tags_[a] < tags_[b];
        return CompareSortItem(items_[a], items_[b]) < 0;
      }) {
  free_.reserve(k_);
  for (size_t i = 0; i < k_; ++i) free_.push_back(k_ - 1 - i);
}

Status ExternalSorter::RunWriter::Output(size_t slot) {
  if (tags_[slot] > current_tag_) {
    // Winner belongs to the next run: close the current one.
    current_tag_ = tags_[slot];
    current_run_ = 0;
  }
  if (current_run_ == 0) {
    current_run_ = store_->CreateRun();
    runs_.push_back(current_run_);
  }
  OIB_RETURN_IF_ERROR(
      store_->Append(current_run_, items_[slot].key, items_[slot].rid));
  // Copy (not steal) into last_output_: the slot keeps its buffer
  // capacity for the item that will replace it.
  last_output_.key.Assign(items_[slot].key);
  last_output_.rid = items_[slot].rid;
  has_last_output_ = true;
  return Status::OK();
}

Status ExternalSorter::RunWriter::Add(KeySlice key, const Rid& rid) {
  uint64_t tag = current_tag_;
  if (has_last_output_ && CompareKeyRid(key, rid, last_output_) < 0) {
    tag = current_tag_ + 1;
  }
  if (!free_.empty()) {
    size_t slot = free_.back();
    free_.pop_back();
    items_[slot].key.Assign(key);
    items_[slot].rid = rid;
    tags_[slot] = tag;
    valid_[slot] = true;
    if (free_.empty()) {
      tree_.Init();
      tree_built_ = true;
    }
    return Status::OK();
  }
  // Workspace full: emit the winner, then take its slot.
  size_t w = tree_.Winner();
  OIB_RETURN_IF_ERROR(Output(w));
  // Recompute the tag: last_output_ just changed.
  tag = current_tag_;
  if (CompareKeyRid(key, rid, last_output_) < 0) tag = current_tag_ + 1;
  items_[w].key.Assign(key);
  items_[w].rid = rid;
  tags_[w] = tag;
  tree_.Update(w);
  return Status::OK();
}

Status ExternalSorter::RunWriter::Drain() {
  if (!tree_built_) {
    // Workspace never filled: sort what's there directly.
    std::vector<size_t> live;
    for (size_t i = 0; i < k_; ++i) {
      if (valid_[i]) live.push_back(i);
    }
    std::sort(live.begin(), live.end(), [this](size_t a, size_t b) {
      if (tags_[a] != tags_[b]) return tags_[a] < tags_[b];
      return CompareSortItem(items_[a], items_[b]) < 0;
    });
    for (size_t slot : live) {
      OIB_RETURN_IF_ERROR(Output(slot));
      valid_[slot] = false;
      free_.push_back(slot);
    }
    return Status::OK();
  }
  for (;;) {
    size_t w = tree_.Winner();
    if (!valid_[w]) break;
    OIB_RETURN_IF_ERROR(Output(w));
    valid_[w] = false;
    free_.push_back(w);
    tree_.Update(w);
  }
  tree_built_ = false;
  return Status::OK();
}

// ---------------------------- MergeCursor ----------------------------

Status MergeCursor::Init(RunStore* store, const std::vector<RunId>& runs,
                         const std::vector<uint64_t>* counters) {
  store_ = store;
  runs_ = runs;
  size_t n = runs.size();
  if (counters != nullptr && counters->size() != n) {
    return Status::InvalidArgument("counter vector size mismatch");
  }
  readers_.clear();
  items_.assign(n, {});
  valid_.assign(n, false);
  out_counts_.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    readers_.push_back(std::make_unique<RunReader>(store, runs[i]));
    if (counters != nullptr) {
      OIB_RETURN_IF_ERROR(readers_[i]->SeekToItem((*counters)[i]));
      out_counts_[i] = (*counters)[i];
    }
    OIB_RETURN_IF_ERROR(Refill(i));
  }
  tree_ = std::make_unique<LoserTree>(
      n == 0 ? 1 : n, [this](size_t a, size_t b) {
        bool va = a < valid_.size() && valid_[a];
        bool vb = b < valid_.size() && valid_[b];
        if (!va) return false;
        if (!vb) return true;
        return CompareSortItem(items_[a], items_[b]) < 0;
      });
  tree_->Init();
  return Status::OK();
}

Status MergeCursor::Refill(size_t slot) {
  auto more = readers_[slot]->Read(&items_[slot]);
  if (!more.ok()) return more.status();
  valid_[slot] = *more;
  return Status::OK();
}

StatusOr<bool> MergeCursor::Next(SortItem* item) {
  if (valid_.empty()) return false;
  size_t w = tree_->Winner();
  if (w >= valid_.size() || !valid_[w]) return false;
  *item = std::move(items_[w]);
  ++out_counts_[w];
  OIB_RETURN_IF_ERROR(Refill(w));
  tree_->Update(w);
  return true;
}

// --------------------------- ExternalSorter ---------------------------

namespace {

// The §5.1 sort-phase checkpoint, one encoding for a RunWriter and for the
// sorter's adopted run list: every run forced and recorded with its size,
// then the open run and the highest key output (a run list has neither).
Status EncodeSortCheckpoint(RunStore* store, const std::vector<RunId>& runs,
                            RunId open_run, const SortItem* last_output,
                            std::string* blob) {
  PutFixed32(blob, static_cast<uint32_t>(runs.size()));
  for (RunId id : runs) {
    OIB_RETURN_IF_ERROR(store->Flush(id));
    auto size = store->Size(id);
    if (!size.ok()) return size.status();
    PutFixed64(blob, id);
    PutFixed64(blob, *size);
  }
  PutFixed64(blob, open_run);
  blob->push_back(last_output != nullptr ? 1 : 0);
  if (last_output != nullptr) {
    PutLengthPrefixed(blob, last_output->key.bytes());
    PutFixed32(blob, last_output->rid.page);
    PutFixed16(blob, last_output->rid.slot);
  }
  return Status::OK();
}

Status DecodeSortCheckpoint(RunStore* store, const std::string& blob,
                            std::vector<RunId>* runs, RunId* open_run,
                            bool* has_last_output, SortItem* last_output) {
  BufferReader r(blob);
  uint32_t n;
  if (!r.GetFixed32(&n)) return Status::Corruption("sort checkpoint blob");
  runs->clear();
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t id, size;
    if (!r.GetFixed64(&id) || !r.GetFixed64(&size)) {
      return Status::Corruption("sort checkpoint run entry");
    }
    // Reposition the stream to its checkpointed end-of-file (5.1).
    OIB_RETURN_IF_ERROR(store->Truncate(id, size));
    runs->push_back(id);
  }
  uint8_t has_last;
  if (!r.GetFixed64(open_run) || !r.GetByte(&has_last)) {
    return Status::Corruption("sort checkpoint tail");
  }
  *has_last_output = has_last != 0;
  if (*has_last_output) {
    uint16_t slot;
    if (!r.GetLengthPrefixed(last_output->key.mutable_bytes()) ||
        !r.GetFixed32(&last_output->rid.page) || !r.GetFixed16(&slot)) {
      return Status::Corruption("sort checkpoint last key");
    }
    last_output->rid.slot = slot;
  }
  return Status::OK();
}

}  // namespace

StatusOr<std::string> ExternalSorter::RunWriter::Checkpoint() {
  OIB_RETURN_IF_ERROR(Drain());
  std::string blob;
  OIB_RETURN_IF_ERROR(EncodeSortCheckpoint(
      store_, runs_, current_run_,
      has_last_output_ ? &last_output_ : nullptr, &blob));
  return blob;
}

Status ExternalSorter::RunWriter::Resume(const std::string& blob) {
  return DecodeSortCheckpoint(store_, blob, &runs_, &current_run_,
                              &has_last_output_, &last_output_);
}

StatusOr<std::string> ExternalSorter::CheckpointSortPhase() {
  std::string blob;
  OIB_RETURN_IF_ERROR(
      EncodeSortCheckpoint(store_, runs_, /*open_run=*/0, nullptr, &blob));
  return blob;
}

Status ExternalSorter::ResumeSortPhase(const std::string& blob) {
  RunId open_run;
  bool has_last_output;
  SortItem last_output;
  return DecodeSortCheckpoint(store_, blob, &runs_, &open_run,
                              &has_last_output, &last_output);
}

Status ExternalSorter::CreateWriters(size_t n) {
  if (n == 0) return Status::InvalidArgument("need at least one run writer");
  if (!writers_.empty()) {
    return Status::InvalidArgument("run writers already created");
  }
  for (size_t i = 0; i < n; ++i) {
    writers_.push_back(std::make_unique<RunWriter>(
        store_, options_->sort_workspace_keys));
  }
  return Status::OK();
}

Status ExternalSorter::FinishWriters() {
  runs_.clear();
  for (auto& w : writers_) {
    OIB_RETURN_IF_ERROR(w->Drain());
    runs_.insert(runs_.end(), w->runs().begin(), w->runs().end());
  }
  writers_.clear();
  return Status::OK();
}

Status ExternalSorter::PrepareMerge() {
  // Merge the oldest fan-in runs into one until we fit a single pass.
  // These passes are not checkpointed (a crash repeats the incomplete
  // pass); the final pass is the restartable one.
  size_t fanin = options_->sort_merge_fanin < 2 ? 2
                                                : options_->sort_merge_fanin;
  while (runs_.size() > fanin) {
    std::vector<RunId> batch(runs_.begin(), runs_.begin() + fanin);
    MergeCursor cursor;
    OIB_RETURN_IF_ERROR(cursor.Init(store_, batch, nullptr));
    RunId merged = store_->CreateRun();
    SortItem item;
    for (;;) {
      auto more = cursor.Next(&item);
      if (!more.ok()) return more.status();
      if (!*more) break;
      OIB_RETURN_IF_ERROR(store_->Append(merged, item.key, item.rid));
    }
    OIB_RETURN_IF_ERROR(store_->Flush(merged));
    for (RunId id : batch) store_->Remove(id);
    runs_.erase(runs_.begin(), runs_.begin() + fanin);
    runs_.insert(runs_.begin(), merged);
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<MergeCursor>> ExternalSorter::OpenMerge(
    const std::vector<uint64_t>* counters) {
  auto cursor = std::make_unique<MergeCursor>();
  OIB_RETURN_IF_ERROR(cursor->Init(store_, runs_, counters));
  return cursor;
}

}  // namespace oib
