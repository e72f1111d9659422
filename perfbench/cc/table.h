// The benchmark table and its independent checker.
//
// Every row is three string fields:
//   0  primary key   12 decimal digits, assigned in ascending order
//   1  secondary     16 hex digits, a bijective hash of a counter, so
//                    values are distinct and arrive in random order
//   2  payload       32 random lowercase letters
//
// The checker compares the engine against the benchmark's own model of
// committed rows (updated only when Commit returns OK) using nothing but
// public reads: a heap scan, BTree::ScanAll and ReadRecordByKey.

#ifndef PERFBENCH_TABLE_H_
#define PERFBENCH_TABLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/engine.h"

namespace perfbench {

constexpr size_t kPkWidth = 12;
constexpr size_t kSecWidth = 16;
constexpr size_t kPayloadWidth = 32;
constexpr uint32_t kPkCol = 0;
constexpr uint32_t kSecCol = 1;

// splitmix64: the benchmark's only source of randomness.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next();
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  double Unit() { return (Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t s_;
};

// Bijective 64-bit mix (the splitmix64 finalizer).
uint64_t Mix64(uint64_t x);

std::string SecValue(uint64_t seed, uint64_t counter);
std::string MakeRecord(uint64_t pk, std::string_view sec, Rng* rng);
std::string_view SecOf(std::string_view record);
std::string PkKey(uint64_t pk);            // normalized index key
std::string SecKey(std::string_view sec);  // normalized index key

struct Row {
  uint64_t pk = 0;
  oib::Rid rid;
  std::string rec;
};

// Each check returns an empty string when the engine agrees with the
// model, otherwise a description of the first disagreement.

// The heap holds exactly `rows`: same RIDs, same bytes, nothing else.
std::string CheckHeap(oib::Engine* engine, oib::TableId table,
                      const std::vector<const Row*>& rows);

// The index's live entries are exactly {(SecKey(sec), rid)} over `rows`,
// without duplicates, in ascending order of the raw secondary values.
std::string CheckIndex(oib::Engine* engine, oib::IndexId index,
                       const std::vector<const Row*>& rows);

// A point read's outcome against the model: `expect` is the row's
// committed bytes, or null when the value was deleted or replaced and
// the read must return NotFound.
std::string CheckRead(const oib::StatusOr<std::string>& got,
                      const std::string* expect);

}  // namespace perfbench

#endif  // PERFBENCH_TABLE_H_
