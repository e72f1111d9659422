// E2 — Availability during index build (paper sections 1, 2.2.1, 4).
//
// Claim: offline builds block every update for the whole build ("current
// DBMSs do not allow updates... thereby decreasing availability"); NSF
// quiesces updates only while the descriptor is created; SF blocks them
// only at the drain gate, while it applies the side-file residual and
// flips the Index_Build flag.  We run a fixed update workload while each
// builder works and report sustained transaction throughput plus the
// measured update-blocked window.

#include <cstdlib>
#include <cstring>

#include "bench/bench_util.h"

namespace oib {
namespace bench {
namespace {

const uint64_t kRows = BenchRows(30000);
// The read-heavy serving scenario wants the table (and its index) to
// dwarf the buffer pool, so it runs at twice the availability size.
const uint64_t kReadHeavyRows = BenchRows(60000);

// Point-read share of the read-heavy scenario (--read-pct).
double g_read_pct = 0.9;

struct Result {
  double build_ms = 0;
  double quiesce_ms = 0;
  double txn_per_sec_during_build = 0;
  uint64_t aborts = 0;
  uint64_t commits = 0;
  // Update latency observed *during* the build, from the
  // workload.update_ns histogram (reset right before the build starts).
  double upd_p50_us = 0;
  double upd_p95_us = 0;
  double upd_p99_us = 0;
  double upd_max_us = 0;
};

Result RunOne(const std::string& algo) {
  World w = MakeWorld(kRows);
  WorkloadOptions wo;
  wo.threads = 2;
  // Lock waits must survive an offline build that takes seconds.
  Options opts = w.options;

  Workload workload(w.engine.get(), w.table, wo);
  workload.Seed(w.rids, kRows);
  workload.Start();
  while (workload.ops_done() < 50) std::this_thread::yield();

  // Scope the latency histograms to the build window: everything recorded
  // from here until the build returns happened while the builder ran.
  obs::MetricsRegistry::Default().ResetAll();

  BuildParams params = KeyIndexParams(w.table, "idx");
  BuildStats stats;
  IndexId index = kInvalidIndexId;
  uint64_t ops_before = workload.ops_done();
  double t0 = NowMs();
  Status s;
  if (algo == "offline") {
    OfflineIndexBuilder builder(w.engine.get());
    s = builder.Build(params, &index, &stats);
  } else if (algo == "nsf") {
    NsfIndexBuilder builder(w.engine.get());
    s = builder.Build(params, &index, &stats);
  } else {
    SfIndexBuilder builder(w.engine.get());
    s = builder.Build(params, &index, &stats);
  }
  double build_ms = NowMs() - t0;
  uint64_t ops_during = workload.ops_done() - ops_before;
  // Snapshot the update histogram before stopping the workload so the
  // percentiles cover (almost) exclusively the in-build window.
  obs::HistogramSnapshot upd =
      obs::MetricsRegistry::Default()
          .GetHistogram("workload.update_ns")
          ->Snapshot();
  WorkloadStats wstats = workload.Stop();
  if (!s.ok()) {
    std::fprintf(stderr, "%s build failed: %s\n", algo.c_str(),
                 s.ToString().c_str());
    std::abort();
  }
  MustBeConsistent(w.engine.get(), w.table, index);
  (void)opts;

  Result r;
  r.build_ms = build_ms;
  r.quiesce_ms = stats.quiesce_ms;
  r.txn_per_sec_during_build = 1000.0 * ops_during / build_ms;
  r.aborts = wstats.aborts;
  r.commits = wstats.commits;
  r.upd_p50_us = static_cast<double>(upd.Percentile(50)) / 1000.0;
  r.upd_p95_us = static_cast<double>(upd.Percentile(95)) / 1000.0;
  r.upd_p99_us = static_cast<double>(upd.Percentile(99)) / 1000.0;
  r.upd_max_us = static_cast<double>(upd.max) / 1000.0;
  return r;
}

// Read-heavy serving scenario (Griffin fusion): a 90/10 point-read mix
// resolves through a ready index — the hash fast path when
// enable_hash_index is set, a full tree descent otherwise — first at
// steady state, then while an SF build of a second index is in flight.
// Reads are zipfian-skewed so the hot ranks exercise cache behavior.
struct ReadHeavyResult {
  double build_ms = 0;
  double quiesce_ms = 0;
  double ops_per_sec_during_build = 0;
  double read_p50_steady_us = 0;
  double read_p99_steady_us = 0;
  double read_p50_build_us = 0;
  double read_p99_build_us = 0;
  double upd_p99_us = 0;
  double upd_per_sec = 0;
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t hash_hits = 0;
  uint64_t hash_misses = 0;
  uint64_t hash_fallbacks = 0;
};

ReadHeavyResult RunReadHeavy(bool with_hash) {
  Options options = DefaultBenchOptions();
  options.enable_hash_index = with_hash;
  // The paper's setting is I/O-bound; reproduce it as E8 does, with a
  // small pool and a per-page read latency.  A tree point read then
  // pays a leaf-page miss on top of the heap-page miss every read pays
  // — and its leaf fetches evict data pages (index probes polluting
  // the pool) — while a hash probe resolves key → RID without touching
  // index pages at all.
  options.buffer_pool_pages = 128;
  World w = MakeWorld(kReadHeavyRows, options);
  static_cast<InMemoryDisk*>(w.env->disk.get())->set_read_delay_us(30);

  // The serving index every point read resolves through.
  OfflineIndexBuilder serving_builder(w.engine.get());
  IndexId serving = kInvalidIndexId;
  Status bs = serving_builder.Build(KeyIndexParams(w.table, "serving"),
                                    &serving);
  if (!bs.ok()) {
    std::fprintf(stderr, "serving build failed: %s\n",
                 bs.ToString().c_str());
    std::abort();
  }

  WorkloadOptions wo;
  wo.threads = 2;
  // read share = g_read_pct; the remainder keeps the default 3:2:3
  // insert:delete:update proportions.
  double rest = 1.0 - g_read_pct;
  wo.insert_pct = rest * 0.375;
  wo.delete_pct = rest * 0.25;
  wo.update_pct = rest * 0.375;
  wo.read_index = serving;
  // Uniform, not zipfian: a skewed read set collapses into the pool and
  // the regime degenerates to the in-memory one bench_micro measures.
  wo.read_dist = ReadKeyDist::kUniform;

  Workload workload(w.engine.get(), w.table, wo);
  workload.Seed(w.rids, kReadHeavyRows);
  workload.Start();
  while (workload.ops_done() < 50) std::this_thread::yield();

  // Steady-state window: no builder running.
  obs::MetricsRegistry::Default().ResetAll();
  uint64_t steady_target = workload.ops_done() + kReadHeavyRows / 8 + 500;
  double steady_deadline = NowMs() + 3000;
  while (workload.ops_done() < steady_target && NowMs() < steady_deadline) {
    std::this_thread::yield();
  }
  obs::HistogramSnapshot read_steady =
      obs::MetricsRegistry::Default()
          .GetHistogram("workload.read_ns")
          ->Snapshot();

  // Build window: SF build of a second index under the same traffic.
  obs::MetricsRegistry::Default().ResetAll();
  BuildStats stats;
  IndexId built = kInvalidIndexId;
  uint64_t ops_before = workload.ops_done();
  double t0 = NowMs();
  SfIndexBuilder builder(w.engine.get());
  Status s = builder.Build(KeyIndexParams(w.table, "built_under_reads"),
                           &built, &stats);
  double build_ms = NowMs() - t0;
  uint64_t ops_during = workload.ops_done() - ops_before;
  obs::HistogramSnapshot read_build =
      obs::MetricsRegistry::Default()
          .GetHistogram("workload.read_ns")
          ->Snapshot();
  obs::HistogramSnapshot upd =
      obs::MetricsRegistry::Default()
          .GetHistogram("workload.update_ns")
          ->Snapshot();
  obs::MetricsSnapshot snap = obs::MetricsRegistry::Default().TakeSnapshot();
  WorkloadStats wstats = workload.Stop();
  if (!s.ok()) {
    std::fprintf(stderr, "sf build (read-heavy) failed: %s\n",
                 s.ToString().c_str());
    std::abort();
  }
  MustBeConsistent(w.engine.get(), w.table, serving);
  MustBeConsistent(w.engine.get(), w.table, built);

  auto counter = [&snap](const char* name) -> uint64_t {
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  ReadHeavyResult r;
  r.build_ms = build_ms;
  r.quiesce_ms = stats.quiesce_ms;
  r.ops_per_sec_during_build = 1000.0 * ops_during / build_ms;
  r.read_p50_steady_us =
      static_cast<double>(read_steady.Percentile(50)) / 1000.0;
  r.read_p99_steady_us =
      static_cast<double>(read_steady.Percentile(99)) / 1000.0;
  r.read_p50_build_us =
      static_cast<double>(read_build.Percentile(50)) / 1000.0;
  r.read_p99_build_us =
      static_cast<double>(read_build.Percentile(99)) / 1000.0;
  r.upd_p99_us = static_cast<double>(upd.Percentile(99)) / 1000.0;
  r.upd_per_sec = 1000.0 * static_cast<double>(upd.count) / build_ms;
  r.commits = wstats.commits;
  r.aborts = wstats.aborts;
  r.hash_hits = counter("hash.hits");
  r.hash_misses = counter("hash.misses");
  r.hash_fallbacks = counter("hash.fallbacks");
  return r;
}

void Run() {
  PrintHeader("E2: transaction availability during the build",
              "offline: updates blocked for the whole build; NSF: blocked "
              "only during descriptor creation; SF: blocked only at the "
              "drain gate (the residual side-file apply)");
  BenchReport report("e2");
  std::printf("%-8s %10s %12s %16s %9s %9s %9s %9s %9s %10s\n", "algo",
              "build_ms", "blocked_ms", "ops/sec(build)", "commits",
              "aborts", "upd_p50us", "upd_p95us", "upd_p99us", "upd_maxus");
  for (const std::string algo : {"offline", "nsf", "sf"}) {
    Result r = RunOne(algo);
    std::printf("%-8s %10.1f %12.2f %16.1f %9llu %9llu %9.1f %9.1f %9.1f "
                "%10.1f\n",
                algo.c_str(), r.build_ms, r.quiesce_ms,
                r.txn_per_sec_during_build, (unsigned long long)r.commits,
                (unsigned long long)r.aborts, r.upd_p50_us, r.upd_p95_us,
                r.upd_p99_us, r.upd_max_us);
    report.AddRow(algo,
                  {{"build_ms", r.build_ms},
                   {"blocked_ms", r.quiesce_ms},
                   {"ops_per_sec_during_build", r.txn_per_sec_during_build},
                   {"commits", static_cast<double>(r.commits)},
                   {"aborts", static_cast<double>(r.aborts)},
                   {"update_p50_us", r.upd_p50_us},
                   {"update_p95_us", r.upd_p95_us},
                   {"update_p99_us", r.upd_p99_us},
                   {"update_max_us", r.upd_max_us}});
  }

  std::printf("\nread-heavy serving (%d%% uniform point reads, I/O-bound "
              "pool, SF build in flight):\n",
              static_cast<int>(g_read_pct * 100));
  std::printf("%-14s %10s %16s %11s %11s %11s %11s %10s %10s\n", "path",
              "build_ms", "ops/sec(build)", "rd_p50(ss)", "rd_p99(ss)",
              "rd_p50(bld)", "rd_p99(bld)", "upd_p99us", "upd/sec");
  for (bool with_hash : {false, true}) {
    ReadHeavyResult r = RunReadHeavy(with_hash);
    const char* label = with_hash ? "read_heavy_hash_on"
                                  : "read_heavy_hash_off";
    std::printf("%-14s %10.1f %16.1f %11.2f %11.2f %11.2f %11.2f %10.1f "
                "%10.1f\n",
                with_hash ? "hash_on" : "hash_off", r.build_ms,
                r.ops_per_sec_during_build, r.read_p50_steady_us,
                r.read_p99_steady_us, r.read_p50_build_us,
                r.read_p99_build_us, r.upd_p99_us, r.upd_per_sec);
    if (with_hash) {
      std::printf("               hash: hits=%llu misses=%llu "
                  "fallbacks=%llu (build window)\n",
                  (unsigned long long)r.hash_hits,
                  (unsigned long long)r.hash_misses,
                  (unsigned long long)r.hash_fallbacks);
    }
    report.AddRow(label,
                  {{"build_ms", r.build_ms},
                   {"blocked_ms", r.quiesce_ms},
                   {"ops_per_sec_during_build", r.ops_per_sec_during_build},
                   {"read_pct", g_read_pct},
                   {"read_p50_steady_us", r.read_p50_steady_us},
                   {"read_p99_steady_us", r.read_p99_steady_us},
                   {"read_p50_build_us", r.read_p50_build_us},
                   {"read_p99_build_us", r.read_p99_build_us},
                   {"update_p99_us", r.upd_p99_us},
                   {"update_ops_per_sec", r.upd_per_sec},
                   {"commits", static_cast<double>(r.commits)},
                   {"aborts", static_cast<double>(r.aborts)},
                   {"hash_hits", static_cast<double>(r.hash_hits)},
                   {"hash_misses", static_cast<double>(r.hash_misses)},
                   {"hash_fallbacks",
                    static_cast<double>(r.hash_fallbacks)}});
  }
  report.Write();
}

}  // namespace
}  // namespace bench
}  // namespace oib

int main(int argc, char** argv) {
  oib::bench::InitBenchObs(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--read-pct=", 11) == 0) {
      double v = std::atof(argv[i] + 11);
      if (v < 0.0 || v >= 1.0) {
        std::fprintf(stderr, "--read-pct must be in [0, 1)\n");
        return 2;
      }
      oib::bench::g_read_pct = v;
    } else {
      std::fprintf(stderr, "usage: %s [--read-pct=0.9]\n", argv[0]);
      return 2;
    }
  }
  oib::bench::Run();
  return 0;
}
