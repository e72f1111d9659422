// BulkLoader: bottom-up B+-tree construction for the SF algorithm
// (paper sections 2.3.1 and 3.2.4).
//
// Keys arrive in ascending order (from the sort's final merge pass) and
// are appended to the rightmost leaf; when a leaf reaches the fill factor
// a new one is chained and a separator propagates into the rightmost
// internal page of the level above.  New keys never cause tree traversals,
// latch contention, or key comparisons against interior pages, and — per
// the SF design — *no log records are written*.
//
// Restartability (3.2.4): Checkpoint() flushes every page the loader has
// touched, then records the highest key loaded, the page ids of the
// rightmost branch, the per-level first pages, and the allocated-page
// list.  Resume() truncates the rightmost branch so keys above the
// checkpointed high key disappear, frees pages allocated after the
// checkpoint (those named in a newer in-memory list are gone after a
// crash and are simply abandoned — see DESIGN.md), and re-opens the
// branch for appending.

#ifndef OIB_BTREE_BULK_LOADER_H_
#define OIB_BTREE_BULK_LOADER_H_

#include <set>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "common/options.h"
#include "common/status.h"
#include "storage/buffer_pool.h"

namespace oib {

class BulkLoader {
 public:
  BulkLoader(BTree* tree, BufferPool* pool, const Options* options)
      : tree_(tree), pool_(pool), options_(options) {}

  BulkLoader(const BulkLoader&) = delete;
  BulkLoader& operator=(const BulkLoader&) = delete;

  // Starts loading into the tree's (empty) root leaf.
  Status Begin();

  // Appends one key; keys must arrive in strictly ascending (key, rid)
  // order, and the caller checks uniqueness.  Admission is physically
  // exact (EntryGrowth), so leaves whose keys compress well pack more
  // entries per page; separators pushed into internal levels are
  // suffix-truncated.  The tree's entry observer (the hash mirror) hears
  // of each key under the leaf X latch; failpoint `hash.populate` fires
  // once per key it is told of.
  Status Add(KeySlice key, const Rid& rid);

  // Completes internal levels and publishes the new root (anchor update is
  // the only logged action).
  Status Finish();

  // Section 3.2.4 checkpoint: flush + serialize loader state.  The caller
  // embeds its own state (e.g. merge counters) via `caller_state`.
  StatusOr<std::string> Checkpoint(const std::string& caller_state);
  // Restores from a checkpoint blob, truncating keys above the
  // checkpointed high key.  Returns the embedded caller state.
  StatusOr<std::string> Resume(const std::string& blob);

  // Restart with no checkpoint: wipe the root leaf and start over.
  Status ResetToEmpty();

  // Drops every open page guard (latch + pin) without finishing the
  // load.  A failed build MUST call this before transaction-level
  // cleanup: rollback paths acquire txn/lock-manager mutexes and latch
  // other pages, none of which may happen under the loader's latches.
  void Abandon() { guards_.clear(); }

  uint64_t keys_loaded() const { return keys_loaded_; }
  bool has_high_key() const { return keys_loaded_ > 0; }
  const std::string& high_key() const { return high_key_; }
  const Rid& high_rid() const { return high_rid_; }

 private:
  struct Level {
    PageId cur = kInvalidPageId;
    PageId first = kInvalidPageId;
  };

  // Propagates separator (key, rid) -> right_child into level `i`.
  Status AddToLevel(size_t i, KeySlice key, const Rid& rid,
                    PageId right_child);
  StatusOr<PageId> AllocPage(bool leaf, uint8_t level);
  size_t SoftCapacity() const;
  Status ReleaseGuards();
  Status ReacquireGuards();

  BTree* tree_;
  BufferPool* pool_;
  const Options* options_;

  std::vector<Level> levels_;  // [0] = leaf level
  // One open X guard per level's rightmost page, aligned with levels_.
  std::vector<WritePageGuard> guards_;
  std::vector<PageId> allocated_;  // pages this loader allocated
  std::set<PageId> dirty_;         // pages modified since last checkpoint
  uint64_t keys_loaded_ = 0;
  std::string high_key_;
  Rid high_rid_;
};

}  // namespace oib

#endif  // OIB_BTREE_BULK_LOADER_H_
