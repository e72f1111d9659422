// Property tests for the normalized key codec: memcmp over the encoded
// bytes must order keys exactly like column-wise comparison of the
// decoded tuples, for every tuple the schema can produce — empty
// strings, embedded NULs, 0xFF bytes, negative and extreme integers.

#include "common/key.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "common/random.h"

namespace oib {
namespace {

// One row of the test schema (string, int64, string).
struct Tuple {
  std::string s0;
  int64_t i1 = 0;
  std::string s2;

  // Column-wise tuple order.  std::string comparison is memcmp-like
  // (char_traits compares as unsigned char), which is the order the
  // paper's "concatenation of the values of the columns" implies.
  bool operator<(const Tuple& o) const {
    return std::tie(s0, i1, s2) < std::tie(o.s0, o.i1, o.s2);
  }
  bool operator==(const Tuple& o) const {
    return std::tie(s0, i1, s2) == std::tie(o.s0, o.i1, o.s2);
  }
};

std::string Encode(const Tuple& t) {
  std::string k;
  keyenc::AppendStringColumn(&k, t.s0);
  keyenc::AppendInt64Column(&k, t.i1);
  keyenc::AppendStringColumn(&k, t.s2);
  return k;
}

// Strings over a tiny alphabet that includes the two bytes the codec
// treats specially (0x00 is escaped, 0xFF is the escape's second byte),
// so collisions and shared prefixes are common.
std::string HostileString(Random* rng) {
  static const char kAlphabet[] = {'\x00', '\xff', 'a', 'b'};
  std::string s(rng->Uniform(6), '\0');
  for (char& c : s) c = kAlphabet[rng->Uniform(4)];
  return s;
}

int64_t HostileInt(Random* rng) {
  switch (rng->Uniform(6)) {
    case 0: return 0;
    case 1: return -1;
    case 2: return INT64_MIN;
    case 3: return INT64_MAX;
    case 4: return -static_cast<int64_t>(rng->Uniform(1000));
    default: return static_cast<int64_t>(rng->Uniform(1000));
  }
}

TEST(KeyCodecPropertyTest, NormalizedOrderMatchesTupleOrder) {
  Random rng(20260808);
  std::vector<Tuple> tuples;
  for (int i = 0; i < 300; ++i) {
    tuples.push_back({HostileString(&rng), HostileInt(&rng),
                      HostileString(&rng)});
  }
  std::vector<std::string> keys;
  keys.reserve(tuples.size());
  for (const Tuple& t : tuples) keys.push_back(Encode(t));

  for (size_t i = 0; i < tuples.size(); ++i) {
    for (size_t j = i + 1; j < tuples.size(); ++j) {
      int tuple_order = tuples[i] < tuples[j]   ? -1
                        : tuples[j] < tuples[i] ? 1
                                                : 0;
      int key_order = KeySlice(keys[i]).Compare(KeySlice(keys[j]));
      ASSERT_EQ(key_order, tuple_order)
          << "tuple (" << testing::PrintToString(tuples[i].s0) << ", "
          << tuples[i].i1 << ", " << testing::PrintToString(tuples[i].s2)
          << ") vs (" << testing::PrintToString(tuples[j].s0) << ", "
          << tuples[j].i1 << ", " << testing::PrintToString(tuples[j].s2)
          << ")";
    }
  }
}

TEST(KeyCodecPropertyTest, DecodeRoundTripsEveryTuple) {
  Random rng(7);
  for (int i = 0; i < 500; ++i) {
    Tuple t{HostileString(&rng), HostileInt(&rng), HostileString(&rng)};
    std::string k = Encode(t);
    KeyDecoder dec((KeySlice(k)));
    Tuple out;
    ASSERT_TRUE(dec.DecodeString(&out.s0));
    ASSERT_TRUE(dec.DecodeInt64(&out.i1));
    ASSERT_TRUE(dec.DecodeString(&out.s2));
    EXPECT_TRUE(dec.done());
    EXPECT_TRUE(t == out);
  }
}

TEST(KeyCodecPropertyTest, CommonPrefixLenIsExact) {
  Random rng(11);
  for (int i = 0; i < 500; ++i) {
    std::string a = HostileString(&rng) + HostileString(&rng);
    std::string b = a;
    // Mutate b past a random point.
    size_t cut = rng.Uniform(a.size() + 1);
    b.resize(cut);
    b += HostileString(&rng);
    size_t n = CommonPrefixLen(KeySlice(a), KeySlice(b));
    ASSERT_LE(n, std::min(a.size(), b.size()));
    EXPECT_EQ(a.compare(0, n, b, 0, n), 0);
    if (n < a.size() && n < b.size()) {
      EXPECT_NE(a[n], b[n]);
    }
  }
}

TEST(KeyCodecPropertyTest, ComparePrefixedKeyAgreesWithMaterialized) {
  Random rng(13);
  for (int i = 0; i < 1000; ++i) {
    std::string full = HostileString(&rng) + HostileString(&rng);
    size_t split = rng.Uniform(full.size() + 1);
    KeySlice prefix(full.data(), split);
    KeySlice suffix(full.data() + split, full.size() - split);
    std::string probe = (rng.Uniform(3) == 0) ? full : HostileString(&rng);
    int via_parts = ComparePrefixedKey(prefix, suffix, KeySlice(probe));
    int via_full = KeySlice(full).Compare(KeySlice(probe));
    EXPECT_EQ(via_parts < 0, via_full < 0);
    EXPECT_EQ(via_parts > 0, via_full > 0);
  }
}

TEST(KeyCodecPropertyTest, TruncateSeparatorBounds) {
  Random rng(17);
  int truncated = 0;
  for (int i = 0; i < 1000; ++i) {
    std::string a = HostileString(&rng);
    std::string b = HostileString(&rng);
    if (KeySlice(b) < KeySlice(a)) std::swap(a, b);
    if (KeySlice(a) == KeySlice(b)) {
      std::string sep;
      EXPECT_FALSE(TruncateSeparator(KeySlice(a), KeySlice(b), &sep));
      continue;
    }
    std::string sep;
    if (TruncateSeparator(KeySlice(a), KeySlice(b), &sep)) {
      ++truncated;
      // sep is a proper prefix of b that still sorts strictly above a,
      // so it routes left_max left and right_first right.
      EXPECT_LT(sep.size(), b.size());
      EXPECT_EQ(b.compare(0, sep.size(), sep), 0);
      EXPECT_LT(KeySlice(a).Compare(KeySlice(sep)), 0);
      EXPECT_LE(KeySlice(sep).Compare(KeySlice(b)), 0);
    } else {
      // Full key required: b itself is the shortest separator.
      EXPECT_LT(KeySlice(a).Compare(KeySlice(b)), 0);
    }
  }
  // The hostile alphabet shares prefixes constantly; truncation must
  // actually fire or the test is vacuous.
  EXPECT_GT(truncated, 50);
}

TEST(KeyCodecPropertyTest, StringColumnTerminatorSortsBelowContent) {
  // ("a", "bc") < ("ab", "c"): the first column's terminator must sort
  // below every content byte, including escaped NUL.
  std::string k1, k2;
  keyenc::AppendStringColumn(&k1, "a");
  keyenc::AppendStringColumn(&k1, "bc");
  keyenc::AppendStringColumn(&k2, "ab");
  keyenc::AppendStringColumn(&k2, "c");
  EXPECT_LT(KeySlice(k1).Compare(KeySlice(k2)), 0);

  std::string nul1, nul2;
  keyenc::AppendStringColumn(&nul1, std::string("a", 1));
  keyenc::AppendStringColumn(&nul2, std::string("a\0", 2));
  EXPECT_LT(KeySlice(nul1).Compare(KeySlice(nul2)), 0);
}

}  // namespace
}  // namespace oib
