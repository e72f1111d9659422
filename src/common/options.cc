#include "common/options.h"

#include "common/status.h"

namespace oib {

Status ValidateOptions(const Options& options) {
  auto bad = [](const char* what) {
    return Status::InvalidArgument(std::string("options: ") + what);
  };
  auto power_of_two = [](size_t v) { return v != 0 && (v & (v - 1)) == 0; };
  if (options.page_size < 256) return bad("page_size must be >= 256");
  // Slotted pages keep record offsets in 15 bits (the top bit marks a
  // dead slot), so no byte past 32 KiB is addressable.
  if (options.page_size > 32768) return bad("page_size must be <= 32768");
  if (options.buffer_pool_pages < 4) {
    return bad("buffer_pool_pages must be >= 4");
  }
  if (options.sort_workspace_keys == 0) {
    return bad("sort_workspace_keys must be > 0");
  }
  if (options.sort_merge_fanin < 2) return bad("sort_merge_fanin must be >= 2");
  if (options.leaf_fill_factor <= 0.0 || options.leaf_fill_factor > 1.0) {
    return bad("leaf_fill_factor must be in (0, 1]");
  }
  if (options.ib_keys_per_call == 0) return bad("ib_keys_per_call must be > 0");
  if (options.sf_apply_batch == 0) return bad("sf_apply_batch must be > 0");
  if (options.build_threads == 0) return bad("build_threads must be >= 1");
  if (options.hash_index_shards != 0 &&
      !power_of_two(options.hash_index_shards)) {
    return bad("hash_index_shards must be 0 (auto) or a power of two");
  }
  return Status::OK();
}

}  // namespace oib
