// E11 — Restart recovery: wall-clock vs log length (paper section 5
// motivation — a build interrupted by a crash must come back quickly
// enough that "not all the so-far-accomplished work is lost").
//
// Builds a crashed durable state once per log size on real files (no
// checkpoint, so restart replays the whole history), then restarts fresh
// copies of that state --reps=N times (default 3) through the single
// forward analysis+redo pass.  Claim checked: recovery cost scales with
// the un-checkpointed log tail, and every restart recovers the exact row
// count.
//
// A third state checkpoints after the bulk load, so only the committed
// tail is replayed: restart then reads the log suffix after the
// checkpoint and the heap pages linked since, not the whole log and
// table.  Every row splits restart_ms into its stages (open, analysis
// with redo, catalog load, build reattach, undo) and reports the median
// and min/max across reps of restart_ms and of each stage;
// attributed_pct is the median over reps of the stages' sum as a share
// of restart_ms.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

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

// One restart's wall-clock and its stages, in ms.
struct Sample {
  double restart = 0, open = 0, analysis = 0, catalog = 0, reattach = 0,
         undo = 0;
  double attributed_pct = 0;  // the stages' sum as a share of restart
  uint64_t records_redone = 0;
};

Sample RestartOnce(const std::string& seed_dir, uint64_t rows) {
  namespace fs = std::filesystem;
  Options options = DefaultBenchOptions();
  std::string dir = BenchDir("oib_bench_e11_run");
  std::error_code ec;
  fs::copy(seed_dir, dir, fs::copy_options::recursive, ec);
  if (ec) std::abort();

  auto env = Env::OnFiles(dir, options);
  if (!env.ok()) std::abort();
  RecoveryStats stats;
  double t0 = NowMs();
  auto engine = Engine::Restart(options, env->get(), &stats);
  Sample out;
  out.restart = NowMs() - t0;
  if (!engine.ok()) {
    std::fprintf(stderr, "restart failed: %s\n",
                 engine.status().ToString().c_str());
    std::abort();
  }
  // Every rep must recover the complete state.
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

  out.open = stats.open_ns / 1e6;
  out.analysis = stats.analysis_ns / 1e6;
  out.catalog = stats.catalog_load_ns / 1e6;
  out.reattach = stats.reattach_ns / 1e6;
  out.undo = stats.undo_ns / 1e6;
  out.attributed_pct = 100.0 *
                       (out.open + out.analysis + out.catalog + out.reattach +
                        out.undo) /
                       out.restart;
  out.records_redone = stats.records_redone;
  return out;
}

struct Spread {
  double median, min, max;
};

Spread SpreadOf(const std::vector<Sample>& samples, double Sample::*field) {
  std::vector<double> v;
  for (const Sample& s : samples) v.push_back(s.*field);
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  double median = n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  return {median, v.front(), v.back()};
}

void Report(const char* state, uint64_t rows,
            const std::vector<Sample>& samples, BenchReport* report) {
  std::vector<std::pair<std::string, double>> cols = {
      {"rows", static_cast<double>(rows)},
      {"reps", static_cast<double>(samples.size())},
      {"records_redone", static_cast<double>(samples[0].records_redone)}};
  struct Stage {
    const char* name;
    double Sample::*field;
  };
  const Stage stages[] = {{"restart_ms", &Sample::restart},
                          {"open_ms", &Sample::open},
                          {"analysis_ms", &Sample::analysis},
                          {"catalog_load_ms", &Sample::catalog},
                          {"reattach_ms", &Sample::reattach},
                          {"undo_ms", &Sample::undo}};
  std::printf("%-10s %7llu %9llu", state, (unsigned long long)rows,
              (unsigned long long)samples[0].records_redone);
  for (const Stage& st : stages) {
    Spread sp = SpreadOf(samples, st.field);
    cols.push_back({st.name, sp.median});
    cols.push_back({std::string(st.name) + "_min", sp.min});
    cols.push_back({std::string(st.name) + "_max", sp.max});
    std::printf(" %7.1f [%5.1f,%5.1f]", sp.median, sp.min, sp.max);
  }
  double attributed_pct =
      SpreadOf(samples, &Sample::attributed_pct).median;
  std::printf(" %6.1f%%\n", attributed_pct);
  cols.push_back({"attributed_pct", attributed_pct});
  report->AddRow(state, cols);
}

void Run(int reps) {
  PrintHeader(
      "E11: restart recovery time vs log length",
      "recovery cost scales with the un-checkpointed log tail, and the "
      "restart stages add up to restart_ms (median [min,max] over reps)");
  std::printf("%-10s %7s %9s %21s %21s %21s %21s %21s %21s %7s\n", "state",
              "rows", "redone", "restart_ms", "open", "analysis+redo",
              "catalog", "reattach", "undo", "attrib");
  BenchReport report("e11");
  namespace fs = std::filesystem;
  Options options = DefaultBenchOptions();
  struct State {
    const char* name;
    uint64_t rows;
    bool checkpoint;
  };
  for (const State& st : {State{"small", kRowsSmall, false},
                          State{"large", kRowsLarge, false},
                          State{"large_ckpt", kRowsLarge, true}}) {
    uint64_t wal_bytes = 0;
    std::string seed_dir =
        MakeCrashedState(st.rows, options, st.checkpoint, &wal_bytes);
    std::printf("--- %s: wal=%.1f MiB ---\n", st.name,
                wal_bytes / (1024.0 * 1024.0));
    std::vector<Sample> samples;
    for (int rep = 0; rep < reps; ++rep) {
      samples.push_back(RestartOnce(seed_dir, st.rows));
    }
    Report(st.name, st.rows, samples, &report);
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
  int reps = 3;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      reps = std::atoi(argv[i] + 7);
    } else {
      std::fprintf(stderr, "usage: %s [--reps=N]\n", argv[0]);
      return 2;
    }
  }
  if (reps < 1) return 2;
  oib::bench::Run(reps);
  return 0;
}
