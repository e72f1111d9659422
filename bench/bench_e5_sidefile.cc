// E5 — Side-file volume and catch-up cost (paper section 3.2.5).
//
// Claims: the side-file accumulates exactly the updates made behind the
// scan; IB catches up by applying it (logged, committed in batches).  We
// sweep concurrent update intensity.  The paper's optional sorted
// application is not implemented: sorting the residual can put
// Insert(k, rB) before Delete(k, rA), and the unique check would then
// lock a record whose owner waits on the drain gate (see EXPERIMENTS.md).

#include "bench/bench_util.h"

namespace oib {
namespace bench {
namespace {

const uint64_t kRows = BenchRows(30000);

void RunOne(uint32_t update_threads, BenchReport* report) {
  Options options = DefaultBenchOptions();
  World w = MakeWorld(kRows, options);
  WorkloadOptions wo;
  wo.threads = update_threads == 0 ? 1 : update_threads;
  wo.update_changes_key = 1.0;
  std::unique_ptr<Workload> workload;
  if (update_threads > 0) {
    workload = std::make_unique<Workload>(w.engine.get(), w.table, wo);
    workload->Seed(w.rids, kRows);
    workload->Start();
    while (workload->ops_done() < 20) std::this_thread::yield();
  }
  BuildParams params = KeyIndexParams(w.table, "idx");
  BuildStats stats;
  IndexId index;
  SfIndexBuilder builder(w.engine.get());
  Status s = builder.Build(params, &index, &stats);
  if (workload) workload->Stop();
  if (!s.ok()) {
    std::fprintf(stderr, "build failed: %s\n", s.ToString().c_str());
    std::abort();
  }
  MustBeConsistent(w.engine.get(), w.table, index);
  std::printf("%8u %12llu %10.1f %10.1f %10.1f %9.2f %9llu\n",
              update_threads, (unsigned long long)stats.side_file_applied,
              stats.scan_ms, stats.load_ms, stats.apply_ms, stats.quiesce_ms,
              (unsigned long long)stats.commits);
  report->AddRow(
      "threads=" + std::to_string(update_threads),
      {{"update_threads", static_cast<double>(update_threads)},
       {"side_file_applied", static_cast<double>(stats.side_file_applied)},
       {"scan_ms", stats.scan_ms},
       {"load_ms", stats.load_ms},
       {"apply_ms", stats.apply_ms},
       {"gate_ms", stats.quiesce_ms},
       {"commits", static_cast<double>(stats.commits)}});
}

void Run() {
  PrintHeader("E5: side-file accumulation and catch-up",
              "side-file entries grow with update intensity behind the "
              "scan and are applied in logged, committed batches");
  std::printf("%8s %12s %10s %10s %10s %9s %9s\n", "upd_thr", "sf_applied",
              "scan_ms", "load_ms", "apply_ms", "gate_ms", "commits");
  // NOTE: on a single core, update intensities beyond ~2 threads outpace
  // the catch-up entirely (the side-file grows faster than IB drains it
  // and the build never converges) — a starvation regime the paper does
  // not discuss; see EXPERIMENTS.md.
  BenchReport report("e5");
  for (uint32_t threads : {0u, 1u, 2u}) RunOne(threads, &report);
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
