// Normalized, byte-comparable index keys.
//
// Every key that travels the build path — scan extraction, replacement-
// selection sort, run storage, merge, bulk load, B+-tree pages, side-file
// entries, WAL key payloads — is a *normalized* byte string: a schema-
// driven encoding of the key columns such that plain memcmp over the
// encoded bytes orders keys exactly like the column-wise comparison of the
// decoded tuples (MongoDB's KeyString is the best-known production
// example of the idiom).  Normalization happens once, at extraction time;
// nothing on the build or lookup path ever decodes a key.
//
// Column encodings (appended in key-column order):
//   string  each byte copied; 0x00 escaped as 0x00 0xFF; column terminated
//           by 0x00 0x00.  The terminator sorts below every escaped or
//           literal byte, so ("ab","c") > ("a","bc") just as tuple order
//           demands, and embedded NULs are preserved.
//   int64   sign bit flipped, then the 8 bytes big-endian.  Fixed width,
//           so no terminator is needed; negative values sort below
//           positive ones.
//
// Two vocabulary types replace the former std::string plumbing:
//   KeySlice       non-owning pointer+length view (memcmp comparisons)
//   NormalizedKey  owning buffer with capacity reuse (Assign never shrinks)

#ifndef OIB_COMMON_KEY_H_
#define OIB_COMMON_KEY_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace oib {

// Non-owning view over normalized key bytes.  Converts implicitly to and
// from std::string_view so it interoperates with existing interfaces; all
// ordering goes through Compare(), which is raw memcmp.
class KeySlice {
 public:
  constexpr KeySlice() = default;
  constexpr KeySlice(const char* data, size_t size)
      : data_(data), size_(size) {}
  KeySlice(std::string_view v) : data_(v.data()), size_(v.size()) {}
  KeySlice(const std::string& s) : data_(s.data()), size_(s.size()) {}

  const char* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::string_view view() const { return std::string_view(data_, size_); }
  operator std::string_view() const { return view(); }
  std::string ToString() const { return std::string(data_, size_); }
  KeySlice Prefix(size_t n) const {
    return KeySlice(data_, n < size_ ? n : size_);
  }

  // memcmp over the shared length, then shorter-sorts-first.
  int Compare(KeySlice o) const {
    size_t n = size_ < o.size_ ? size_ : o.size_;
    int c = n == 0 ? 0 : std::memcmp(data_, o.data_, n);
    if (c != 0) return c < 0 ? -1 : 1;
    if (size_ == o.size_) return 0;
    return size_ < o.size_ ? -1 : 1;
  }

 private:
  const char* data_ = nullptr;
  size_t size_ = 0;
};

inline bool operator==(KeySlice a, KeySlice b) { return a.Compare(b) == 0; }
inline bool operator!=(KeySlice a, KeySlice b) { return a.Compare(b) != 0; }
inline bool operator<(KeySlice a, KeySlice b) { return a.Compare(b) < 0; }

// Owning buffer of normalized key bytes.  Assign() reuses capacity, which
// is what lets the sorter's workspace slots and run readers run without a
// per-key allocation in steady state.
class NormalizedKey {
 public:
  NormalizedKey() = default;
  explicit NormalizedKey(std::string bytes) : bytes_(std::move(bytes)) {}

  void Assign(KeySlice s) { bytes_.assign(s.data(), s.size()); }
  void Assign(const char* data, size_t size) { bytes_.assign(data, size); }
  void clear() { bytes_.clear(); }

  KeySlice slice() const { return KeySlice(bytes_.data(), bytes_.size()); }
  std::string_view view() const { return bytes_; }
  operator KeySlice() const { return slice(); }
  const std::string& bytes() const { return bytes_; }
  // Direct buffer access for codecs that append/reconstruct in place.
  std::string* mutable_bytes() { return &bytes_; }
  // Moves the bytes out, leaving the key empty (consumers that adopt the
  // buffer, e.g. NSF's insert batches).
  std::string TakeBytes() { return std::move(bytes_); }

  const char* data() const { return bytes_.data(); }
  size_t size() const { return bytes_.size(); }
  bool empty() const { return bytes_.empty(); }

  int Compare(KeySlice o) const { return slice().Compare(o); }

 private:
  std::string bytes_;
};

inline bool operator==(const NormalizedKey& a, const NormalizedKey& b) {
  return a.Compare(b.slice()) == 0;
}

// Length of the longest common prefix of a and b.
size_t CommonPrefixLen(KeySlice a, KeySlice b);

// Compares the logical concatenation prefix+suffix against probe without
// materializing it.  Used by B+-tree pages, whose entries store only the
// suffix past the page's common prefix.
int ComparePrefixedKey(KeySlice prefix, KeySlice suffix, KeySlice probe);

// Separator suffix (tail) truncation: the shortest prefix of `right_first`
// that still sorts strictly above `left_max`.  Returns true and fills
// *sep when such a proper prefix exists; returns false when the full key
// is needed (right_first <= left_max column-wise, i.e. equal keys that
// only a RID tie-break separates).  Requires left_max <= right_first.
bool TruncateSeparator(KeySlice left_max, KeySlice right_first,
                       std::string* sep);

// ---- normalized column codec ----

enum class KeyColumnType : uint8_t {
  kString = 0,
  kInt64 = 1,
};

namespace keyenc {

// Appends one column's normalized encoding (see file header).
void AppendStringColumn(std::string* out, std::string_view value);
void AppendInt64Column(std::string* out, int64_t value);

}  // namespace keyenc

// Decodes a normalized key column by column; for tests, verification and
// diagnostics only — the engine never decodes keys.
class KeyDecoder {
 public:
  explicit KeyDecoder(KeySlice key) : data_(key.data()), size_(key.size()) {}

  bool DecodeString(std::string* out);
  bool DecodeInt64(int64_t* out);
  bool done() const { return pos_ == size_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace oib

#endif  // OIB_COMMON_KEY_H_
