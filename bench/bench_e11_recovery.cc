// E11 — Restart recovery: wall-clock vs log length, serial vs parallel
// redo (ROADMAP "parallel restart redo"; paper section 5 motivation —
// a build interrupted by a crash must come back quickly enough that
// "not all the so-far-accomplished work is lost").
//
// Builds a crashed durable state once per log size on real files (no
// checkpoint, so restart replays the whole history), then restarts
// fresh copies of that state with 1, 2, and 4 redo threads.  Claim
// checked: partitioned-by-page redo beats the serial forward pass on
// the same log, and recovers byte-identical row counts.
//
// A third state checkpoints after the bulk load, so only the committed
// tail is replayed: restart then reads the log suffix after the
// checkpoint and the heap pages linked since, not the whole log and
// table.  Every row splits restart_ms into its stages (open, analysis,
// redo, catalog load, build reattach, undo); attributed_pct is their sum
// as a share of restart_ms.

#include <cstdio>
#include <filesystem>
#include <string>

#include "bench/bench_util.h"

namespace oib {
namespace bench {
namespace {

const uint64_t kRowsSmall = BenchRows(10000);
const uint64_t kRowsLarge = BenchRows(40000);

std::string BenchDir(const std::string& leaf) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / leaf;
  std::error_code ec;
  fs::remove_all(dir, ec);
  return dir.string();
}

// Populates `rows` records plus `rows / 4` committed single-row update
// transactions on a file-backed engine, then crashes it.  Without
// `checkpoint` the WAL carries the entire history and restart must redo
// all of it; with it, a checkpoint after the populate bounds restart to
// the tail.  Returns the directory holding the crashed state.
std::string MakeCrashedState(uint64_t rows, const Options& options,
                             bool checkpoint, uint64_t* wal_bytes) {
  std::string dir = BenchDir("oib_bench_e11_seed");
  auto env = Env::OnFiles(dir, options);
  if (!env.ok()) std::abort();
  auto engine = Engine::Open(options, env->get());
  if (!engine.ok()) std::abort();
  auto table = (*engine)->catalog()->CreateTable("t");
  if (!table.ok()) std::abort();
  WorkloadOptions wo;
  wo.seed = 42;
  auto rids = Workload::Populate(engine->get(), *table, rows, wo);
  if (!rids.ok()) std::abort();
  if (checkpoint && !(*engine)->Checkpoint().ok()) std::abort();
  // A tail of small committed transactions: distinct txns exercise the
  // analysis pass (txn table) as well as redo.
  for (uint64_t i = 0; i < rows / 4; ++i) {
    Transaction* txn = (*engine)->Begin();
    auto st = (*engine)
                  ->records()
                  ->InsertRecord(txn, *table,
                                 Schema::EncodeRecord(
                                     {"tail" + std::to_string(i), "p"}))
                  .status();
    if (!st.ok() || !(*engine)->Commit(txn).ok()) std::abort();
  }
  if (!(*engine)->log()->FlushAll().ok()) std::abort();
  if (!(*engine)->SimulateCrash().ok()) std::abort();
  engine->reset();
  env->reset();
  std::error_code ec;
  auto sz = std::filesystem::file_size(std::filesystem::path(dir) / "wal",
                                       ec);
  *wal_bytes = ec ? 0 : static_cast<uint64_t>(sz);
  return dir;
}

double RunOne(const std::string& seed_dir, uint64_t rows, const char* size,
              size_t threads, double serial_ms, BenchReport* report) {
  namespace fs = std::filesystem;
  Options options = DefaultBenchOptions();
  options.recovery_threads = threads;
  std::string dir = BenchDir("oib_bench_e11_run");
  std::error_code ec;
  fs::copy(seed_dir, dir, fs::copy_options::recursive, ec);
  if (ec) std::abort();

  auto env = Env::OnFiles(dir, options);
  if (!env.ok()) std::abort();
  RecoveryStats stats;
  double t0 = NowMs();
  auto engine = Engine::Restart(options, env->get(), &stats);
  double restart_ms = NowMs() - t0;
  if (!engine.ok()) {
    std::fprintf(stderr, "restart failed: %s\n",
                 engine.status().ToString().c_str());
    std::abort();
  }
  // Recovered state must be complete regardless of parallelism.
  auto table = (*engine)->catalog()->TableByName("t");
  if (!table.ok()) std::abort();
  uint64_t n = 0;
  if (!(*engine)
           ->catalog()
           ->table(*table)
           ->ForEach([&](const Rid&, std::string_view) { ++n; })
           .ok()) {
    std::abort();
  }
  uint64_t expect = rows + rows / 4;
  if (n != expect) {
    std::fprintf(stderr, "row count after recovery: %llu, expected %llu\n",
                 (unsigned long long)n, (unsigned long long)expect);
    std::abort();
  }
  engine->reset();
  env->reset();
  fs::remove_all(dir, ec);

  double speedup = serial_ms > 0 ? serial_ms / restart_ms : 1.0;
  double attributed_ms =
      (stats.open_ns + stats.analysis_ns + stats.redo_ns +
       stats.catalog_load_ns + stats.reattach_ns + stats.undo_ns) /
      1e6;
  double attributed_pct = 100.0 * attributed_ms / restart_ms;
  std::printf(
      "%-10s %7llu %7zu %10.1f %9llu %7.1f %7.1f %7.1f %7.1f %7.1f %7.1f "
      "%6.1f%% %7.2fx\n",
      size, (unsigned long long)rows, stats.redo_threads, restart_ms,
      (unsigned long long)stats.records_redone, stats.open_ns / 1e6,
      stats.analysis_ns / 1e6, stats.redo_ns / 1e6,
      stats.catalog_load_ns / 1e6, stats.reattach_ns / 1e6,
      stats.undo_ns / 1e6, attributed_pct, speedup);
  report->AddRow(std::string(size) + "/threads=" + std::to_string(threads),
                 {{"rows", static_cast<double>(rows)},
                  {"redo_threads", static_cast<double>(stats.redo_threads)},
                  {"restart_ms", restart_ms},
                  {"records_redone", static_cast<double>(stats.records_redone)},
                  {"open_ms", stats.open_ns / 1e6},
                  {"analysis_ms", stats.analysis_ns / 1e6},
                  {"redo_ms", stats.redo_ns / 1e6},
                  {"catalog_load_ms", stats.catalog_load_ns / 1e6},
                  {"reattach_ms", stats.reattach_ns / 1e6},
                  {"undo_ms", stats.undo_ns / 1e6},
                  {"attributed_pct", attributed_pct},
                  {"speedup_vs_serial", speedup}});
  return restart_ms;
}

void Run() {
  PrintHeader(
      "E11: restart recovery time vs log length, serial vs parallel redo",
      "partitioned-by-page redo recovers the same state faster than the "
      "serial forward pass; recovery cost scales with the un-checkpointed "
      "log tail, and the restart stages add up to restart_ms");
  std::printf(
      "%-10s %7s %7s %10s %9s %7s %7s %7s %7s %7s %7s %7s %8s\n", "size",
      "rows", "threads", "restart_ms", "redone", "open", "ana_ms",
      "redo_ms", "catalog", "reattach", "undo_ms", "attrib", "speedup");
  BenchReport report("e11");
  namespace fs = std::filesystem;
  Options options = DefaultBenchOptions();
  struct State {
    const char* size;
    uint64_t rows;
    bool checkpoint;
  };
  for (const State& st : {State{"small", kRowsSmall, false},
                          State{"large", kRowsLarge, false},
                          State{"large_ckpt", kRowsLarge, true}}) {
    uint64_t wal_bytes = 0;
    std::string seed_dir =
        MakeCrashedState(st.rows, options, st.checkpoint, &wal_bytes);
    std::printf("--- %s: wal=%.1f MiB ---\n", st.size,
                wal_bytes / (1024.0 * 1024.0));
    // Serial baseline first; later rows report speedup against it.  The
    // checkpointed state replays too little for redo threads to matter.
    double serial_ms = RunOne(seed_dir, st.rows, st.size, 1, 0.0, &report);
    if (!st.checkpoint) {
      for (size_t threads : {2ul, 4ul}) {
        RunOne(seed_dir, st.rows, st.size, threads, serial_ms, &report);
      }
    }
    std::error_code ec;
    fs::remove_all(seed_dir, ec);
  }
  report.Write();
}

}  // namespace
}  // namespace bench
}  // namespace oib

int main(int argc, char** argv) {
  oib::bench::InitBenchObs(&argc, argv);
  oib::bench::Run();
  return 0;
}
