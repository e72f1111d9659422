// Crash harness: randomized kill-point testing of index builds over real
// files.
//
// Each iteration runs a complete build lifecycle in forked children over
// a file-backed Env:
//
//   1. A worker child populates a table and checkpoints, arms one
//      seed-chosen kill failpoint (kAbort = SIGKILL at the site, or
//      kTornWrite = scramble the I/O tail then SIGKILL), starts concurrent
//      update traffic, and runs an NSF or SF build, with one more engine
//      checkpoint at a seed-chosen delay into the build.  The kill strikes
//      at a randomized point — during the scan, the sort spill, a WAL
//      flush, a page write-back, a build or engine checkpoint persist
//      (including between the chain-snapshot and master-LSN writes), or
//      the commit edges.
//   2. The parent reaps the corpse and forks another worker, which
//      re-attaches the Env from the on-disk files (torn-tail repair),
//      runs restart recovery, and resumes the build — itself under a
//      fresh randomized kill.  Repeat until a worker finishes.
//   3. A verify child restarts once more with no failpoints armed and
//      checks every index against the table with IndexVerifier.  Any
//      violation fails the iteration, whose files are kept in
//      <dir>.iter<N> (the path is printed).
//
// Every random choice derives from --seed, so a failing iteration is
// replayed exactly by the REPRO line the harness prints.
//
// Exit status: 0 if every iteration verified clean, 1 otherwise.

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "core/engine.h"
#include "core/index_builder.h"
#include "core/index_verifier.h"
#include "core/workload.h"

namespace oib {
namespace {

struct HarnessOptions {
  uint64_t iters = 20;
  uint64_t seed = 1;
  std::string algo = "both";  // nsf | sf | both (alternates)
  std::string site;           // restrict kill sites to this name prefix
  uint64_t rows = 1500;
  uint32_t update_threads = 2;
  std::string dir;
  int max_restarts = 60;
  int child_timeout_s = 180;
  bool verbose = false;
};

uint64_t SplitMix64(uint64_t* s) {
  uint64_t z = (*s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Kill sites: whether the site honours kTornWrite (scramble + die), and
// the countdown range, scaled to how often the site is evaluated per
// build (a commit edge fires once, so only countdown 0 can ever hit it).
struct KillSite {
  const char* name;
  bool torn;
  bool sf_only;
  bool nsf_only;
  int max_countdown;
};

constexpr KillSite kKillSites[] = {
    {"filedisk.write", true, false, false, 64},
    {"filedisk.sync", false, false, false, 8},
    {"filedisk.meta", false, false, false, 8},
    {"wal.flush", true, false, false, 48},
    {"wal.fsync", false, false, false, 48},
    {"runstore.flush", true, false, false, 4},
    {"bufferpool.writeback", false, false, false, 32},
    {"build.save_meta", false, false, false, 6},
    {"nsf.scan", false, false, true, 24},
    {"nsf.insert_batch", false, false, true, 24},
    {"nsf.commit", false, false, true, 1},
    {"sf.scan", false, true, false, 24},
    {"sf.load", false, true, false, 32},
    {"sf.apply", false, true, false, 16},
    {"sf.finalize", false, true, false, 1},
    {"sf.commit", false, true, false, 1},
    // Hash fast-path sites: populate fires per key during the SF phase-2
    // consume (and on resume repopulation); commit fires once when the
    // descriptor flips to ready (both algorithms).
    {"hash.populate", false, true, false, 32},
    {"hash.commit", false, false, false, 1},
};

struct KillChoice {
  std::string name;
  FailPointPolicy policy;
  bool before_restart = false;  // arm before recovery runs, not after
  // Delay from the build's start to the engine checkpoint that races it.
  uint32_t checkpoint_after_ms = 0;
};

KillChoice PickKill(uint64_t* rng, bool sf, const std::string& site_prefix) {
  std::vector<const KillSite*> eligible;
  for (const KillSite& s : kKillSites) {
    if (s.sf_only && !sf) continue;
    if (s.nsf_only && sf) continue;
    if (!site_prefix.empty() &&
        std::strncmp(s.name, site_prefix.c_str(), site_prefix.size()) != 0) {
      continue;
    }
    eligible.push_back(&s);
  }
  if (eligible.empty()) {
    // --site excluded everything for this algorithm (e.g. an sf_only
    // prefix on an nsf iteration): fall back to the full set so the
    // iteration still makes progress.
    for (const KillSite& s : kKillSites) {
      if (s.sf_only && !sf) continue;
      if (s.nsf_only && sf) continue;
      eligible.push_back(&s);
    }
  }
  const KillSite* site = eligible[SplitMix64(rng) % eligible.size()];
  KillChoice choice;
  choice.name = site->name;
  choice.policy.countdown =
      int(SplitMix64(rng) % uint64_t(site->max_countdown));
  choice.policy.max_fires = 1;
  bool torn = site->torn && SplitMix64(rng) % 10 < 3;
  choice.policy.action =
      torn ? FailPointAction::kTornWrite : FailPointAction::kAbort;
  if (torn) choice.policy.arg = uint32_t(SplitMix64(rng) % 64);
  choice.before_restart = SplitMix64(rng) % 2 == 0;
  return choice;
}

Options EngineOptions() {
  Options o;
  o.buffer_pool_pages = 512;  // small pool: evictions (write-backs) happen
  o.sort_workspace_keys = 512;
  o.ib_keys_per_call = 32;
  o.ib_checkpoint_every_keys = 300;
  o.sort_checkpoint_every_keys = 300;
  o.sf_apply_batch = 64;
  // The hash fast path rides along so its populate/commit kill sites and
  // restart repopulation get the same randomized coverage as the tree.
  o.enable_hash_index = true;
  o.hash_index_shards = 4;
  return o;
}

BuildParams MakeParams(TableId table) {
  BuildParams p;
  p.name = "idx";
  p.table = table;
  p.unique = false;
  p.key_cols = {0};
  return p;
}

// Exit codes a worker child can produce (besides dying by signal).
constexpr int kExitDone = 0;
constexpr int kExitInjected = 42;  // graceful abort, state recoverable
constexpr int kExitError = 43;    // unexpected error: fails the iteration

void Fail(const char* what, const Status& s) {
  std::fprintf(stderr, "  child error at %s: %s\n", what,
               s.ToString().c_str());
  std::exit(kExitError);
}

// Worker child body: never returns.
void RunWorker(const HarnessOptions& opts, bool sf, int attempt,
               const KillChoice& kill) {
  alarm(uint32_t(opts.child_timeout_s));  // a hang is a failure, not a wait
  Options options = EngineOptions();
  FailPointRegistry& reg = FailPointRegistry::Instance();
  auto arm = [&] { reg.ArmPolicy(kill.name, kill.policy); };

  auto env_or = Env::OnFiles(opts.dir, options);
  if (!env_or.ok()) Fail("Env::OnFiles", env_or.status());
  std::unique_ptr<Env> env = std::move(*env_or);

  std::unique_ptr<Engine> engine;
  TableId table = 0;
  if (attempt == 0) {
    auto e = Engine::Open(options, env.get());
    if (!e.ok()) Fail("Engine::Open", e.status());
    engine = std::move(*e);
    auto t = engine->catalog()->CreateTable("t");
    if (!t.ok()) Fail("CreateTable", t.status());
    table = *t;
    WorkloadOptions wo;
    auto rids = Workload::Populate(engine.get(), table, opts.rows, wo);
    if (!rids.ok()) Fail("Populate", rids.status());
    if (Status s = engine->FlushAll(); !s.ok()) Fail("FlushAll", s);
    if (Status s = engine->Checkpoint(); !s.ok()) Fail("Checkpoint", s);
  } else {
    // Kills armed "before restart" strike during recovery itself.
    if (kill.before_restart) arm();
    auto e = Engine::Restart(options, env.get());
    if (!e.ok()) Fail("Engine::Restart", e.status());
    engine = std::move(*e);
    auto t = engine->catalog()->TableByName("t");
    if (!t.ok()) Fail("TableByName", t.status());
    table = *t;
  }

  // Concurrent update traffic while the build runs — the scenario the
  // paper's algorithms exist for.
  std::unique_ptr<Workload> workload;
  if (opts.update_threads > 0) {
    WorkloadOptions wo;
    wo.threads = opts.update_threads;
    workload = std::make_unique<Workload>(engine.get(), table, wo);
    std::vector<Rid> live;
    if (Status s = engine->catalog()->table(table)->ForEach(
            [&](const Rid& rid, std::string_view) { live.push_back(rid); });
        !s.ok()) {
      Fail("ForEach", s);
    }
    workload->Seed(live, 1000000 + uint64_t(attempt) * 1000000);
    workload->Start();
  }

  if (attempt == 0 || !kill.before_restart) arm();

  // An engine checkpoint racing the updaters and the builder: every later
  // restart opens the heap from its chain snapshot.
  std::thread checkpointer([&] {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(kill.checkpoint_after_ms));
    if (Status s = engine->Checkpoint(); !s.ok()) Fail("Checkpoint", s);
  });

  Status s;
  auto descs = engine->catalog()->IndexesOf(table);
  bool ready = !descs.empty() && descs[0].state == IndexState::kReady;
  if (ready) {
    // Build committed just before the previous kill; nothing to resume.
  } else if (sf) {
    SfIndexBuilder builder(engine.get());
    if (descs.empty()) {
      IndexId index;
      s = builder.Build(MakeParams(table), &index);
    } else {
      s = builder.Resume(table, nullptr);
    }
  } else {
    NsfIndexBuilder builder(engine.get());
    IndexId index;
    if (descs.empty()) {
      s = builder.Build(MakeParams(table), &index);
    } else {
      s = builder.Resume(table, &index, nullptr);
    }
  }
  checkpointer.join();
  if (workload) workload->Stop();
  if (s.ok()) std::exit(kExitDone);
  if (s.IsInjected()) std::exit(kExitInjected);
  Fail("Build/Resume", s);
}

// Verify child body: never returns.
void RunVerify(const HarnessOptions& opts, bool sf) {
  alarm(uint32_t(opts.child_timeout_s));
  Options options = EngineOptions();
  auto env_or = Env::OnFiles(opts.dir, options);
  if (!env_or.ok()) Fail("verify Env::OnFiles", env_or.status());
  std::unique_ptr<Env> env = std::move(*env_or);
  auto e = Engine::Restart(options, env.get());
  if (!e.ok()) Fail("verify Restart", e.status());
  std::unique_ptr<Engine> engine = std::move(*e);
  auto t = engine->catalog()->TableByName("t");
  if (!t.ok()) Fail("verify TableByName", t.status());
  TableId table = *t;

  auto descs = engine->catalog()->IndexesOf(table);
  if (descs.empty()) Fail("verify", Status::Corruption("index lost"));
  if (descs[0].state != IndexState::kReady) {
    Fail("verify", Status::Corruption("index not ready after completion"));
  }
  (void)sf;
  IndexVerifier verifier(engine.get());
  for (const IndexDescriptor& d : descs) {
    auto report = verifier.Verify(table, d.id);
    if (!report.ok()) Fail("verifier", report.status());
    if (!report->ok) {
      std::fprintf(stderr,
                   "  CONSISTENCY VIOLATION index %u: %s (records=%" PRIu64
                   " live=%" PRIu64 " pseudo=%" PRIu64 ")\n",
                   d.id, report->error.c_str(), report->table_records,
                   report->live_entries, report->pseudo_entries);
      std::exit(kExitError);
    }
  }
  std::exit(kExitDone);
}

// Forks `body`; returns the child's wait status.
template <typename Fn>
int ForkAndWait(Fn body) {
  pid_t pid = fork();
  if (pid == 0) {
    body();
    _exit(kExitError);  // body must exit itself
  }
  int wstatus = 0;
  waitpid(pid, &wstatus, 0);
  return wstatus;
}

int Run(const HarnessOptions& opts) {
  uint64_t failures = 0;
  uint64_t total_kills = 0;
  for (uint64_t iter = 0; iter < opts.iters; ++iter) {
    // Per-iteration RNG stream: replaying iteration i needs only the
    // base seed (REPRO lines pass the derived value with --iters=1).
    uint64_t iter_seed = opts.seed + iter * 0x9e3779b97f4a7c15ULL;
    uint64_t rng = iter_seed;
    // Checkpoint delays come from their own stream, so the kill schedule
    // a seed draws from `rng` does not depend on them.
    uint64_t checkpoint_rng = iter_seed ^ 0x636b70745f726e67ULL;
    bool sf = opts.algo == "sf" || (opts.algo == "both" && iter % 2 == 1);
    std::error_code ec;
    std::filesystem::remove_all(opts.dir, ec);

    std::string kill_log;
    bool iteration_failed = false;
    int attempt = 0;
    for (; attempt <= opts.max_restarts; ++attempt) {
      // --site pins only the FIRST kill.  Restart attempts draw from the
      // full set: convergence relies on an attempt eventually picking a
      // kill the resumed build never reaches, and a narrow filter (e.g. a
      // commit-edge site, which fires on every resume) would loop until
      // max_restarts.
      KillChoice kill =
          PickKill(&rng, sf, attempt == 0 ? opts.site : std::string());
      kill.checkpoint_after_ms = uint32_t(SplitMix64(&checkpoint_rng) % 40);
      if (opts.verbose) {
        std::fprintf(stderr, "  iter %" PRIu64 " attempt %d: %s@%d %s%s\n",
                     iter, attempt, kill.name.c_str(),
                     kill.policy.countdown,
                     kill.policy.action == FailPointAction::kTornWrite
                         ? "torn"
                         : "kill",
                     kill.before_restart ? " (during recovery)" : "");
      }
      int ws = ForkAndWait(
          [&] { RunWorker(opts, sf, attempt, kill); });
      if (WIFEXITED(ws) && WEXITSTATUS(ws) == kExitDone) break;
      if (WIFSIGNALED(ws) && WTERMSIG(ws) == SIGKILL) {
        ++total_kills;
        kill_log += (kill_log.empty() ? "" : ",") + kill.name;
        continue;  // expected death: restart and resume
      }
      if (WIFEXITED(ws) && WEXITSTATUS(ws) == kExitInjected) continue;
      std::fprintf(stderr,
                   "iter %" PRIu64 ": worker failed unexpectedly "
                   "(status 0x%x)\n",
                   iter, ws);
      iteration_failed = true;
      break;
    }
    if (!iteration_failed && attempt > opts.max_restarts) {
      std::fprintf(stderr,
                   "iter %" PRIu64 ": build did not complete in %d restarts\n",
                   iter, opts.max_restarts);
      iteration_failed = true;
    }
    if (!iteration_failed) {
      int ws = ForkAndWait([&] { RunVerify(opts, sf); });
      if (!WIFEXITED(ws) || WEXITSTATUS(ws) != kExitDone) {
        std::fprintf(stderr, "iter %" PRIu64 ": VERIFY FAILED (status 0x%x)\n",
                     iter, ws);
        iteration_failed = true;
      }
    }
    if (iteration_failed) {
      ++failures;
      std::fprintf(stderr,
                   "REPRO: crash_harness --iters=1 --seed=%" PRIu64
                   " --algo=%s --rows=%" PRIu64 " --updates=%u%s%s\n",
                   iter_seed, sf ? "sf" : "nsf", opts.rows,
                   opts.update_threads, opts.site.empty() ? "" : " --site=",
                   opts.site.c_str());
      // Keep the failing state for inspection: the next iteration starts
      // from an empty directory.
      const std::string kept = opts.dir + ".iter" + std::to_string(iter);
      std::filesystem::remove_all(kept, ec);
      std::filesystem::rename(opts.dir, kept, ec);
      std::fprintf(stderr, "  files kept in %s%s\n", kept.c_str(),
                   ec ? " (rename failed)" : "");
    } else if (opts.verbose || (iter + 1) % 10 == 0 ||
               iter + 1 == opts.iters) {
      std::fprintf(stderr,
                   "iter %" PRIu64 "/%" PRIu64 " ok: algo=%s attempts=%d "
                   "kills=[%s]\n",
                   iter + 1, opts.iters, sf ? "sf" : "nsf", attempt,
                   kill_log.c_str());
    }
  }
  std::fprintf(stderr,
               "crash_harness: %" PRIu64 "/%" PRIu64
               " iterations clean, %" PRIu64 " kills injected, seed=%" PRIu64
               "\n",
               opts.iters - failures, opts.iters, total_kills, opts.seed);
  std::filesystem::remove_all(opts.dir);
  return failures == 0 ? 0 : 1;
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

}  // namespace
}  // namespace oib

int main(int argc, char** argv) {
  oib::HarnessOptions opts;
  opts.dir = (std::filesystem::temp_directory_path() /
              ("oib_crash_harness_" + std::to_string(getpid())))
                 .string();
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (oib::ParseFlag(argv[i], "--iters", &v)) {
      opts.iters = std::strtoull(v.c_str(), nullptr, 10);
    } else if (oib::ParseFlag(argv[i], "--seed", &v)) {
      opts.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (oib::ParseFlag(argv[i], "--algo", &v)) {
      opts.algo = v;
    } else if (oib::ParseFlag(argv[i], "--site", &v)) {
      opts.site = v;
    } else if (oib::ParseFlag(argv[i], "--rows", &v)) {
      opts.rows = std::strtoull(v.c_str(), nullptr, 10);
    } else if (oib::ParseFlag(argv[i], "--updates", &v)) {
      opts.update_threads = uint32_t(std::strtoul(v.c_str(), nullptr, 10));
    } else if (oib::ParseFlag(argv[i], "--dir", &v)) {
      opts.dir = v;
    } else if (oib::ParseFlag(argv[i], "--max-restarts", &v)) {
      opts.max_restarts = int(std::strtol(v.c_str(), nullptr, 10));
    } else if (oib::ParseFlag(argv[i], "--timeout", &v)) {
      opts.child_timeout_s = int(std::strtol(v.c_str(), nullptr, 10));
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      opts.verbose = true;
    } else {
      std::fprintf(stderr,
                   "usage: crash_harness [--iters=N] [--seed=S] "
                   "[--algo=nsf|sf|both] [--site=PREFIX] [--rows=N] "
                   "[--updates=T] [--dir=PATH] [--max-restarts=N] "
                   "[--timeout=SECS] [--verbose]\n");
      return 2;
    }
  }
  if (opts.algo != "nsf" && opts.algo != "sf" && opts.algo != "both") {
    std::fprintf(stderr, "bad --algo: %s\n", opts.algo.c_str());
    return 2;
  }
  if (!opts.site.empty()) {
    bool any = false;
    for (const oib::KillSite& s : oib::kKillSites) {
      if (std::strncmp(s.name, opts.site.c_str(), opts.site.size()) == 0) {
        any = true;
        break;
      }
    }
    if (!any) {
      std::fprintf(stderr, "bad --site: no kill site matches prefix %s\n",
                   opts.site.c_str());
      return 2;
    }
  }
  return oib::Run(opts);
}
