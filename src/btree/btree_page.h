// BTreePage: sorted slotted layout for B+-tree nodes, viewed over a raw
// page buffer.
//
// Keys are <key value, RID> pairs (paper section 1.1); the RID acts as a
// tie-breaker so non-unique indexes store duplicates as distinct keys.
// Every leaf entry carries a flags byte whose low bit is the *pseudo-delete*
// flag ("a 1-bit flag is associated with every key in the index to indicate
// whether the key is pseudo deleted or not", section 2.1.2).
//
// Keys are normalized byte strings (common/key.h): all ordering is raw
// memcmp.  Each page stores the common prefix of its keys ONCE (at the top
// of the page) and every entry stores only its suffix past that prefix —
// classic prefix truncation.  The prefix only ever shrinks: inserting a key
// that shares less with the prefix re-encodes the resident entries with
// correspondingly longer suffixes.  Comparisons run against the
// (prefix, suffix) pair without materializing full keys.
//
// Layout (offsets within the page):
//   [0..8)    page LSN
//   [8]       page type (kBtreeLeaf / kBtreeInternal)
//   [9]       level (0 = leaf)
//   [10..12)  entry count
//   [12..14)  free_end — lowest byte offset used by entry data
//   [14..18)  next page id (leaf right-sibling chain)
//   [18..22)  leftmost child (internal pages only)
//   [22..24)  prefix length
//   [24..)    offset array, 2 bytes per entry, in key order
//   ...       free space
//   [free_end..page_size-prefix_len)  entry data, growing downward
//   [page_size-prefix_len..page_size) shared key prefix
//
// Entry encodings (suffix = key bytes past the page prefix):
//   leaf:     [flags u8][rid_page u32][rid_slot u16][slen u16][suffix]
//   internal: [child u32][rid_page u32][rid_slot u16][slen u16][suffix]
//
// Internal-node routing: child pointers are leftmost_child, child_0, ...,
// child_{n-1}; an entry (key_i, child_i) routes keys >= key_i and
// < key_{i+1}.
//
// Space accounting is dual.  *Physical* (FreeBytes/EntryGrowth) is exact
// under compression and is what admission on the bulk-load path uses, so
// compressed leaves hold more entries.  *Logical* (LogicalFreeBytes)
// prices every entry at its uncompressed size; the insert path's
// safe-node and admission checks use it so the pre-compression split
// invariants (kSafeNodeFreeBytes margins) stay valid: HasSpaceFor demands
// logical room plus prefix_len, which provably covers the worst physical
// expansion a prefix shrink can cause.

#ifndef OIB_BTREE_BTREE_PAGE_H_
#define OIB_BTREE_BTREE_PAGE_H_

#include <string>
#include <string_view>

#include "common/coding.h"
#include "common/key.h"
#include "common/status.h"
#include "common/types.h"
#include "heap/slotted_page.h"  // PageType

namespace oib {

// Pseudo-delete flag bit (paper section 2.1.2).
inline constexpr uint8_t kEntryPseudoDeleted = 0x1;

// Three-way comparison of full index keys <key value, RID>.  Keys are
// normalized byte strings: memcmp order.
int CompareIndexKey(std::string_view a_key, const Rid& a_rid,
                    std::string_view b_key, const Rid& b_rid);

// The full-key entry blob: the one encoding of an entry list, carried by
// split records (the moved entries) and IB batch records (the inserted
// ones):
//   [n u16] then n x ([len u16][header][klen u16][key])
// `header` is what a page stores before an entry's key — leaf: flags u8 +
// RID; internal: child u32 + RID — so the RID is its last six bytes.  Keys
// are full, independent of any page's prefix, so a blob replays into any
// page.
inline constexpr size_t kLeafEntryHeader = 1 + 6;
inline constexpr size_t kInternalEntryHeader = 4 + 6;

struct BlobEntry {
  std::string_view header;
  std::string_view key;
  uint8_t flags() const { return static_cast<uint8_t>(header[0]); }  // leaf
  Rid rid() const;
};

// Makes *blob an empty blob (n = 0).
void InitEntryBlob(std::string* blob);
// Appends an entry whose key is key_prefix + key_suffix and bumps n.
void AppendBlobEntry(std::string* blob, std::string_view header,
                     std::string_view key_prefix,
                     std::string_view key_suffix = {});
void AppendLeafBlobEntry(std::string* blob, uint8_t flags, const Rid& rid,
                         std::string_view key);
// n of a well-formed blob (0 if it is too short to hold one).
uint16_t EntryBlobCount(std::string_view blob);
// Calls fn(const BlobEntry&) -> Status for each entry in order, stopping
// at the first error; entries must carry `header_size`-byte headers.
template <typename Fn>
Status ForEachBlobEntry(std::string_view blob, size_t header_size, Fn&& fn);

class BTreePage {
 public:
  BTreePage(char* data, size_t page_size)
      : data_(data), page_size_(page_size) {}

  void Init(bool leaf, uint8_t level);

  bool is_leaf() const;
  uint8_t level() const;
  uint16_t count() const;
  PageId next() const;
  void set_next(PageId id);
  PageId leftmost_child() const;
  void set_leftmost_child(PageId id);

  // Page-wide shared key prefix.
  size_t prefix_len() const;
  std::string_view prefix() const;
  // Suffix stored by entry i (full key = prefix + suffix).
  std::string_view SuffixAt(int i) const;

  // Materializes entry i's full key (prefix + suffix).  Hot paths compare
  // via CompareEntryAt instead.
  std::string KeyAt(int i) const;
  Rid RidAt(int i) const;
  uint8_t FlagsAt(int i) const;        // leaf only
  void SetFlagsAt(int i, uint8_t f);   // leaf only
  PageId ChildAt(int i) const;         // internal; i == -1 -> leftmost

  // Three-way comparison of entry i against (key, rid) without
  // materializing the entry's key.
  int CompareEntryAt(int i, std::string_view key, const Rid& rid) const;

  // First index whose entry >= (key, rid); count() if none.
  int LowerBound(std::string_view key, const Rid& rid) const;
  // Index of the exact entry (key, rid), or -1.
  int FindExact(std::string_view key, const Rid& rid) const;
  // Internal routing: child to descend into for (key, rid).
  PageId Route(std::string_view key, const Rid& rid) const;

  // Exact physical bytes inserting `key` would consume: entry + offset
  // slot + the expansion of resident suffixes if the prefix shrinks.
  size_t EntryGrowth(KeySlice key) const;
  // Conservative logical-space admission (insert path): logical room for
  // the uncompressed entry plus prefix_len, which always covers the
  // physical cost of the worst prefix shrink `key` can cause.
  bool HasSpaceFor(KeySlice key) const;
  // Physical free bytes (offset directory through entry data + prefix).
  size_t FreeBytes() const;
  // Free bytes if every entry were priced at its uncompressed size —
  // FreeBytes() minus the savings (count-1)*prefix_len.  The insert
  // path's safe-node checks use this so pre-compression thresholds hold.
  size_t LogicalFreeBytes() const;
  size_t UsedEntryBytes() const;

  Status InsertLeafAt(int i, std::string_view key, const Rid& rid,
                      uint8_t flags);
  Status InsertInternalAt(int i, std::string_view key, const Rid& rid,
                          PageId child);
  void RemoveAt(int i);

  // Serializes entries [from, to) as a full-key entry blob, and appends a
  // blob's entries in order, re-encoded under this page's prefix.
  std::string SerializeEntries(int from, int to) const;
  Status AppendSerialized(std::string_view blob);
  // Removes entries [from, count()); nothing to do if from == count().
  void TruncateFrom(int from);

 private:
  static constexpr size_t kTypeOff = 8;
  static constexpr size_t kLevelOff = 9;
  static constexpr size_t kCountOff = 10;
  static constexpr size_t kFreeEndOff = 12;
  static constexpr size_t kNextOff = 14;
  static constexpr size_t kLeftmostOff = 18;
  static constexpr size_t kPrefixLenOff = 22;
  static constexpr size_t kOffsetsOff = 24;

  size_t EntryHeaderSize() const;  // bytes before slen+suffix
  uint16_t entry_offset(int i) const;
  void set_entry_offset(int i, uint16_t off);
  uint16_t free_end() const;
  void set_free_end(uint16_t v);
  void set_count(uint16_t v);
  void set_prefix_len(uint16_t v);

  // count()==0: install `key` as the whole-page prefix.
  void ResetPrefix(KeySlice key);
  // Re-encodes every entry with the prefix cut to new_len (suffixes grow
  // by the cut bytes).  new_len <= prefix_len().
  void ShrinkPrefix(size_t new_len);
  // ResetPrefix/ShrinkPrefix as needed so `key` shares the page prefix.
  void AdjustPrefixFor(KeySlice key);
  // Shared insert path: space check, prefix adjust, suffix encode.
  Status InsertFullAt(int i, std::string_view key, std::string_view header);

  size_t ContiguousFree() const;
  void Compact();
  // Writes entry bytes into data area; returns offset.  Caller ensures
  // space (after Compact if needed).
  uint16_t WriteEntry(std::string_view raw);
  std::string_view RawEntry(int i) const;
  Status InsertRawAt(int i, std::string_view raw);

  char* data_;
  size_t page_size_;
};

template <typename Fn>
Status ForEachBlobEntry(std::string_view blob, size_t header_size, Fn&& fn) {
  if (blob.size() < 2) return Status::Corruption("entry blob");
  const uint16_t n = EntryBlobCount(blob);
  size_t off = 2;
  for (uint16_t i = 0; i < n; ++i) {
    if (blob.size() - off < 2) return Status::Corruption("entry blob len");
    const size_t len = DecodeFixed16(blob.data() + off);
    off += 2;
    if (blob.size() - off < len || len < header_size + 2 ||
        DecodeFixed16(blob.data() + off + header_size) + header_size + 2 !=
            len) {
      return Status::Corruption("entry blob entry");
    }
    OIB_RETURN_IF_ERROR(fn(BlobEntry{blob.substr(off, header_size),
                                     blob.substr(off + header_size + 2,
                                                 len - header_size - 2)}));
    off += len;
  }
  return Status::OK();
}

}  // namespace oib

#endif  // OIB_BTREE_BTREE_PAGE_H_
