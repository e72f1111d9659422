#include "btree/btree_page.h"

#include <cassert>
#include <cstring>
#include <vector>

#include "common/coding.h"

namespace oib {

int CompareIndexKey(std::string_view a_key, const Rid& a_rid,
                    std::string_view b_key, const Rid& b_rid) {
  int c = KeySlice(a_key).Compare(KeySlice(b_key));
  if (c != 0) return c;
  if (a_rid < b_rid) return -1;
  if (b_rid < a_rid) return 1;
  return 0;
}

Rid BlobEntry::rid() const {
  const char* p = header.data() + header.size() - 6;
  return Rid(DecodeFixed32(p), DecodeFixed16(p + 4));
}

void InitEntryBlob(std::string* blob) {
  blob->clear();
  PutFixed16(blob, 0);
}

void AppendBlobEntry(std::string* blob, std::string_view header,
                     std::string_view key_prefix,
                     std::string_view key_suffix) {
  const size_t klen = key_prefix.size() + key_suffix.size();
  PutFixed16(blob, static_cast<uint16_t>(header.size() + 2 + klen));
  blob->append(header);
  PutFixed16(blob, static_cast<uint16_t>(klen));
  blob->append(key_prefix);
  blob->append(key_suffix);
  EncodeFixed16(blob->data(),
                static_cast<uint16_t>(EntryBlobCount(*blob) + 1));
}

void AppendLeafBlobEntry(std::string* blob, uint8_t flags, const Rid& rid,
                         std::string_view key) {
  char header[kLeafEntryHeader];
  header[0] = static_cast<char>(flags);
  EncodeFixed32(header + 1, rid.page);
  EncodeFixed16(header + 5, rid.slot);
  AppendBlobEntry(blob, std::string_view(header, sizeof(header)), key);
}

uint16_t EntryBlobCount(std::string_view blob) {
  return blob.size() < 2 ? 0 : DecodeFixed16(blob.data());
}

void BTreePage::Init(bool leaf, uint8_t level) {
  data_[kTypeOff] = static_cast<char>(leaf ? PageType::kBtreeLeaf
                                           : PageType::kBtreeInternal);
  data_[kLevelOff] = static_cast<char>(level);
  set_count(0);
  set_prefix_len(0);
  set_free_end(static_cast<uint16_t>(page_size_));
  set_next(kInvalidPageId);
  set_leftmost_child(kInvalidPageId);
}

bool BTreePage::is_leaf() const {
  return static_cast<PageType>(static_cast<uint8_t>(data_[kTypeOff])) ==
         PageType::kBtreeLeaf;
}

uint8_t BTreePage::level() const {
  return static_cast<uint8_t>(data_[kLevelOff]);
}

uint16_t BTreePage::count() const { return DecodeFixed16(data_ + kCountOff); }
void BTreePage::set_count(uint16_t v) { EncodeFixed16(data_ + kCountOff, v); }

PageId BTreePage::next() const { return DecodeFixed32(data_ + kNextOff); }
void BTreePage::set_next(PageId id) { EncodeFixed32(data_ + kNextOff, id); }

PageId BTreePage::leftmost_child() const {
  return DecodeFixed32(data_ + kLeftmostOff);
}
void BTreePage::set_leftmost_child(PageId id) {
  EncodeFixed32(data_ + kLeftmostOff, id);
}

size_t BTreePage::prefix_len() const {
  return DecodeFixed16(data_ + kPrefixLenOff);
}
void BTreePage::set_prefix_len(uint16_t v) {
  EncodeFixed16(data_ + kPrefixLenOff, v);
}

std::string_view BTreePage::prefix() const {
  size_t pl = prefix_len();
  return std::string_view(data_ + page_size_ - pl, pl);
}

uint16_t BTreePage::free_end() const {
  return DecodeFixed16(data_ + kFreeEndOff);
}
void BTreePage::set_free_end(uint16_t v) {
  EncodeFixed16(data_ + kFreeEndOff, v);
}

uint16_t BTreePage::entry_offset(int i) const {
  return DecodeFixed16(data_ + kOffsetsOff + 2 * i);
}
void BTreePage::set_entry_offset(int i, uint16_t off) {
  EncodeFixed16(data_ + kOffsetsOff + 2 * i, off);
}

size_t BTreePage::EntryHeaderSize() const {
  return is_leaf() ? kLeafEntryHeader : kInternalEntryHeader;
}

std::string_view BTreePage::RawEntry(int i) const {
  uint16_t off = entry_offset(i);
  size_t hdr = EntryHeaderSize();
  uint16_t slen = DecodeFixed16(data_ + off + hdr);
  return std::string_view(data_ + off, hdr + 2 + slen);
}

std::string_view BTreePage::SuffixAt(int i) const {
  uint16_t off = entry_offset(i);
  size_t hdr = EntryHeaderSize();
  uint16_t slen = DecodeFixed16(data_ + off + hdr);
  return std::string_view(data_ + off + hdr + 2, slen);
}

std::string BTreePage::KeyAt(int i) const {
  std::string_view pfx = prefix();
  std::string_view sfx = SuffixAt(i);
  std::string key;
  key.reserve(pfx.size() + sfx.size());
  key.append(pfx);
  key.append(sfx);
  return key;
}

Rid BTreePage::RidAt(int i) const {
  uint16_t off = entry_offset(i);
  size_t rid_off = is_leaf() ? 1 : 4;
  PageId page = DecodeFixed32(data_ + off + rid_off);
  SlotId slot = DecodeFixed16(data_ + off + rid_off + 4);
  return Rid(page, slot);
}

uint8_t BTreePage::FlagsAt(int i) const {
  assert(is_leaf());
  return static_cast<uint8_t>(data_[entry_offset(i)]);
}

void BTreePage::SetFlagsAt(int i, uint8_t f) {
  assert(is_leaf());
  data_[entry_offset(i)] = static_cast<char>(f);
}

PageId BTreePage::ChildAt(int i) const {
  assert(!is_leaf());
  if (i < 0) return leftmost_child();
  return DecodeFixed32(data_ + entry_offset(i));
}

int BTreePage::CompareEntryAt(int i, std::string_view key,
                              const Rid& rid) const {
  int c = ComparePrefixedKey(KeySlice(prefix()), KeySlice(SuffixAt(i)),
                             KeySlice(key));
  if (c != 0) return c;
  Rid r = RidAt(i);
  if (r < rid) return -1;
  if (rid < r) return 1;
  return 0;
}

int BTreePage::LowerBound(std::string_view key, const Rid& rid) const {
  int lo = 0, hi = count();
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (CompareEntryAt(mid, key, rid) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

int BTreePage::FindExact(std::string_view key, const Rid& rid) const {
  int i = LowerBound(key, rid);
  if (i < count() && CompareEntryAt(i, key, rid) == 0) {
    return i;
  }
  return -1;
}

PageId BTreePage::Route(std::string_view key, const Rid& rid) const {
  assert(!is_leaf());
  // Largest entry <= (key, rid); LowerBound gives first >=.
  int i = LowerBound(key, rid);
  if (i < count() && CompareEntryAt(i, key, rid) == 0) {
    return ChildAt(i);
  }
  return ChildAt(i - 1);
}

size_t BTreePage::ContiguousFree() const {
  size_t dir_end = kOffsetsOff + 2 * count();
  uint16_t fe = free_end();
  return fe > dir_end ? fe - dir_end : 0;
}

size_t BTreePage::UsedEntryBytes() const {
  size_t used = 0;
  for (int i = 0; i < count(); ++i) used += RawEntry(i).size();
  return used;
}

size_t BTreePage::FreeBytes() const {
  size_t dir_end = kOffsetsOff + 2 * count();
  return page_size_ - dir_end - UsedEntryBytes() - prefix_len();
}

size_t BTreePage::LogicalFreeBytes() const {
  size_t f = FreeBytes();
  size_t pl = prefix_len();
  if (count() == 0) return f + pl;
  size_t savings = static_cast<size_t>(count() - 1) * pl;
  return f > savings ? f - savings : 0;
}

size_t BTreePage::EntryGrowth(KeySlice key) const {
  size_t fixed = EntryHeaderSize() + 2 /* slen */ + 2 /* offset slot */;
  size_t pl = prefix_len();
  if (count() == 0) {
    // The key becomes the new whole-page prefix (replacing the old one).
    size_t prefix_growth = key.size() > pl ? key.size() - pl : 0;
    return fixed + prefix_growth;
  }
  size_t p = CommonPrefixLen(KeySlice(prefix()), key);
  // A shrink to p widens every resident suffix by (pl - p) but also frees
  // the (pl - p) cut bytes of the stored prefix, hence count() - 1.
  return fixed + (key.size() - p) + (pl - p) * (count() - 1);
}

bool BTreePage::HasSpaceFor(KeySlice key) const {
  // Logical admission with a prefix_len reserve.  If the insert shrinks
  // the prefix from L to p over n entries, the physical cost exceeds the
  // logical cost by L - p*(n+1) <= L, so logical_free >= logical_need + L
  // guarantees the physical fit.
  size_t logical_need = EntryHeaderSize() + 2 + key.size() + 2;
  return LogicalFreeBytes() >= logical_need + prefix_len();
}

void BTreePage::ResetPrefix(KeySlice key) {
  assert(count() == 0);
  uint16_t pl = static_cast<uint16_t>(key.size());
  set_prefix_len(pl);
  std::memcpy(data_ + page_size_ - pl, key.data(), pl);
  set_free_end(static_cast<uint16_t>(page_size_ - pl));
}

void BTreePage::ShrinkPrefix(size_t new_len) {
  assert(new_len <= prefix_len());
  if (new_len == prefix_len()) return;
  int n = count();
  size_t hdr = EntryHeaderSize();
  std::string_view pfx = prefix();
  // Bytes migrating from the shared prefix into every entry's suffix.
  std::string ext(pfx.substr(new_len));
  std::vector<std::string> raws;
  raws.reserve(n);
  for (int i = 0; i < n; ++i) {
    std::string_view raw = RawEntry(i);
    uint16_t slen = DecodeFixed16(raw.data() + hdr);
    std::string widened;
    widened.reserve(raw.size() + ext.size());
    widened.append(raw.substr(0, hdr));
    PutFixed16(&widened, static_cast<uint16_t>(ext.size() + slen));
    widened.append(ext);
    widened.append(raw.substr(hdr + 2, slen));
    raws.push_back(std::move(widened));
  }
  std::string kept(pfx.substr(0, new_len));
  set_prefix_len(static_cast<uint16_t>(new_len));
  std::memcpy(data_ + page_size_ - new_len, kept.data(), new_len);
  uint16_t fe = static_cast<uint16_t>(page_size_ - new_len);
  for (int i = 0; i < n; ++i) {
    fe = static_cast<uint16_t>(fe - raws[i].size());
    std::memcpy(data_ + fe, raws[i].data(), raws[i].size());
    set_entry_offset(i, fe);
  }
  set_free_end(fe);
}

void BTreePage::AdjustPrefixFor(KeySlice key) {
  if (count() == 0) {
    ResetPrefix(key);
    return;
  }
  size_t p = CommonPrefixLen(KeySlice(prefix()), key);
  if (p < prefix_len()) ShrinkPrefix(p);
}

void BTreePage::Compact() {
  std::vector<std::string> raws;
  int n = count();
  raws.reserve(n);
  for (int i = 0; i < n; ++i) {
    raws.emplace_back(RawEntry(i));
  }
  uint16_t fe = static_cast<uint16_t>(page_size_ - prefix_len());
  for (int i = 0; i < n; ++i) {
    fe = static_cast<uint16_t>(fe - raws[i].size());
    std::memcpy(data_ + fe, raws[i].data(), raws[i].size());
    set_entry_offset(i, fe);
  }
  set_free_end(fe);
}

uint16_t BTreePage::WriteEntry(std::string_view raw) {
  uint16_t fe = static_cast<uint16_t>(free_end() - raw.size());
  std::memcpy(data_ + fe, raw.data(), raw.size());
  set_free_end(fe);
  return fe;
}

Status BTreePage::InsertRawAt(int i, std::string_view raw) {
  size_t need = raw.size() + 2;
  if (FreeBytes() < need) return Status::Busy("btree page full");
  if (ContiguousFree() < need) Compact();
  uint16_t off = WriteEntry(raw);
  // Shift offset array right.
  int n = count();
  std::memmove(data_ + kOffsetsOff + 2 * (i + 1),
               data_ + kOffsetsOff + 2 * i, 2 * (n - i));
  set_entry_offset(i, off);
  set_count(static_cast<uint16_t>(n + 1));
  return Status::OK();
}

Status BTreePage::InsertFullAt(int i, std::string_view key,
                               std::string_view header) {
  if (FreeBytes() < EntryGrowth(KeySlice(key))) {
    return Status::Busy("btree page full");
  }
  AdjustPrefixFor(KeySlice(key));
  size_t pl = prefix_len();
  std::string raw;
  raw.reserve(header.size() + 2 + key.size() - pl);
  raw.append(header);
  PutFixed16(&raw, static_cast<uint16_t>(key.size() - pl));
  raw.append(key.substr(pl));
  return InsertRawAt(i, raw);
}

Status BTreePage::InsertLeafAt(int i, std::string_view key, const Rid& rid,
                               uint8_t flags) {
  assert(is_leaf());
  std::string header;
  header.push_back(static_cast<char>(flags));
  PutFixed32(&header, rid.page);
  PutFixed16(&header, rid.slot);
  return InsertFullAt(i, key, header);
}

Status BTreePage::InsertInternalAt(int i, std::string_view key,
                                   const Rid& rid, PageId child) {
  assert(!is_leaf());
  std::string header;
  PutFixed32(&header, child);
  PutFixed32(&header, rid.page);
  PutFixed16(&header, rid.slot);
  return InsertFullAt(i, key, header);
}

void BTreePage::RemoveAt(int i) {
  int n = count();
  std::memmove(data_ + kOffsetsOff + 2 * i,
               data_ + kOffsetsOff + 2 * (i + 1), 2 * (n - i - 1));
  set_count(static_cast<uint16_t>(n - 1));
  // Entry bytes become garbage, reclaimed by Compact.  The prefix stays:
  // it remains a common prefix of any subset.
}

std::string BTreePage::SerializeEntries(int from, int to) const {
  std::string blob;
  InitEntryBlob(&blob);
  std::string_view pfx = prefix();
  size_t hdr = EntryHeaderSize();
  for (int i = from; i < to; ++i) {
    std::string_view raw = RawEntry(i);
    AppendBlobEntry(&blob, raw.substr(0, hdr), pfx, raw.substr(hdr + 2));
  }
  return blob;
}

Status BTreePage::AppendSerialized(std::string_view blob) {
  return ForEachBlobEntry(blob, EntryHeaderSize(), [&](const BlobEntry& e) {
    return InsertFullAt(count(), e.key, e.header);
  });
}

void BTreePage::TruncateFrom(int from) {
  if (from >= count()) return;
  set_count(static_cast<uint16_t>(from));
  Compact();
}

}  // namespace oib
