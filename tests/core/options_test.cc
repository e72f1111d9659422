// ValidateOptions: malformed engine options must be rejected at
// construction with InvalidArgument, not discovered as corruption or
// division-by-zero deep inside a build.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "tests/test_util.h"

namespace oib {
namespace {

class OptionsTest : public ::testing::Test {
 protected:
  // Opens an engine with `options` over a fresh in-memory env and returns
  // the construction status.
  Status TryOpen(const Options& options) {
    auto env = Env::InMemory(options);
    auto engine = Engine::Open(options, env.get());
    return engine.status();
  }
};

TEST_F(OptionsTest, DefaultsAreValid) {
  Options options;
  EXPECT_OK(ValidateOptions(options));
  EXPECT_OK(TryOpen(options));
}

TEST_F(OptionsTest, RejectsZeroBuildThreads) {
  Options options;
  options.build_threads = 0;
  Status s = TryOpen(options);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST_F(OptionsTest, RejectsZeroSortWorkspace) {
  Options options;
  options.sort_workspace_keys = 0;
  Status s = ValidateOptions(options);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST_F(OptionsTest, RejectsTinyPageSize) {
  Options options;
  options.page_size = 64;
  Status s = ValidateOptions(options);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

// Slotted pages address at most 32 KiB; a larger page would corrupt the
// heap (a segfault or a double free under Workload::Populate) instead of
// failing at Open.
TEST_F(OptionsTest, RejectsOversizedPageSize) {
  Options options;
  options.page_size = 32768;
  EXPECT_OK(ValidateOptions(options));
  for (size_t page_size : {40960ul, 65536ul}) {
    options.page_size = page_size;
    Status s = TryOpen(options);
    EXPECT_TRUE(s.IsInvalidArgument()) << page_size << ": " << s.ToString();
    EXPECT_NE(s.ToString().find("page_size"), std::string::npos)
        << s.ToString();
  }
}

TEST_F(OptionsTest, RejectsBadFanin) {
  Options options;
  options.sort_merge_fanin = 1;
  Status s = ValidateOptions(options);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST_F(OptionsTest, RejectsBadFillFactor) {
  Options options;
  options.leaf_fill_factor = 0.0;
  EXPECT_TRUE(ValidateOptions(options).IsInvalidArgument());
  options.leaf_fill_factor = 1.5;
  EXPECT_TRUE(ValidateOptions(options).IsInvalidArgument());
}

TEST_F(OptionsTest, RejectsNonPowerOfTwoShards) {
  Options options;
  options.hash_index_shards = 3;
  Status s = ValidateOptions(options);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  options.hash_index_shards = 8;
  EXPECT_OK(ValidateOptions(options));
  options.hash_index_shards = 0;  // auto
  EXPECT_OK(ValidateOptions(options));
}

TEST_F(OptionsTest, ValidationFailureNamesTheField) {
  Options options;
  options.build_threads = 0;
  Status s = ValidateOptions(options);
  EXPECT_NE(s.ToString().find("build_threads"), std::string::npos)
      << s.ToString();
}

}  // namespace
}  // namespace oib
