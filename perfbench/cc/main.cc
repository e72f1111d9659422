// oib_perfbench: runs one benchmark workload in this process and prints
// its metrics as one JSON line.  run.py builds this binary and calls it;
// README.md describes the workloads and metrics.
//
//   oib_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--out <dir>] [--smoke]
//
// A run is a fixed number of rounds (seconds / the workload's nominal
// round length).  Every round builds a fresh in-memory database:
//   setup     insert the rows in committed batches, build the primary
//             index offline, take a checkpoint             -> setup_s
//   build     start the client stream, build the secondary index online
//             (SF or NSF)                                  -> build_s,
//                                                             txn_p50_us
//   crash     park every client inside an open transaction, SimulateCrash
//   restart   Engine::Restart                              -> restart_s
//   (crash_resume: the build was stopped by a failpoint before the crash;
//    Resume finishes it under the stream               -> build_s)
//   serve     one reader thread, closed loop, point reads through the
//             new index                                    -> read_p50_us
// The independent checks run after every restart and at the end of the
// round; any disagreement makes the run incorrect (exit code 1).

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "btree/tree_verifier.h"
#include "client.h"
#include "core/engine.h"
#include "core/index_builder.h"
#include "obs/lock_profile.h"
#include "storage/disk_manager.h"
#include "spans.h"
#include "table.h"

namespace perfbench {
namespace {

using oib::Status;

struct WorkloadSpec {
  std::string name;
  oib::BuildAlgo algo = oib::BuildAlgo::kSf;
  uint64_t rows = 0;
  size_t pool_pages = 0;
  uint32_t read_delay_us = 0;
  ClientConfig clients;
  // NSF insert batches the build completes before the failpoint stops
  // it (crash_resume); 0 = the build runs to its end.
  int fail_after_batches = 0;
  int serve_reads = 0;
  double round_s = 0;  // nominal length of one round
};

std::vector<WorkloadSpec> Workloads() {
  std::vector<WorkloadSpec> out;
  {
    WorkloadSpec w;
    w.name = "sf_build_hot";
    w.algo = oib::BuildAlgo::kSf;
    w.rows = 130'000;
    w.pool_pages = 8'192;  // table + both indexes + side-file fit
    w.clients.rate = 4000;
    w.serve_reads = 20'000;
    w.round_s = 1.5;
    out.push_back(w);
  }
  {
    WorkloadSpec w;
    w.name = "nsf_build_cold";
    w.algo = oib::BuildAlgo::kNsf;
    w.rows = 124'000;
    w.pool_pages = 560;  // about a quarter of the data pages
    w.read_delay_us = 20;
    w.clients.rate = 400;
    w.clients.read_txn_share = 0.75;
    w.serve_reads = 8'000;
    w.round_s = 2.0;
    out.push_back(w);
  }
  {
    WorkloadSpec w;
    w.name = "crash_resume";
    w.algo = oib::BuildAlgo::kNsf;
    w.rows = 225'000;
    w.pool_pages = 16'384;
    w.clients.rate = 1000;
    // 600 insert batches of 64 keys: before the first IB checkpoint, so
    // restart undoes them and Resume inserts every key again.
    w.fail_after_batches = 600;
    w.serve_reads = 20'000;
    w.round_s = 3.0;
    out.push_back(w);
  }
  return out;
}

// Smoke size: the same phases on a small table, for a quick check.
void MakeSmoke(WorkloadSpec* w) {
  w->rows = 6'000;
  w->pool_pages = std::min<size_t>(w->pool_pages, 4'096);
  if (w->read_delay_us > 0) w->pool_pages = 40;
  w->clients.rate = std::min(w->clients.rate, 1000.0);
  if (w->fail_after_batches > 0) w->fail_after_batches = 40;
  w->serve_reads = 500;
}

constexpr uint64_t kLoadBatch = 1000;
constexpr int kWarmupMs = 100;
constexpr size_t kDeadProbes = 1000;
constexpr double kMiB = 1024.0 * 1024.0;
// Log sizes at which the WAL's in-memory backing string doubled its
// capacity (stalling every appender while it copies), as measured on a
// fresh Env with this benchmark's load pattern; see README.md.
constexpr double kWalGrowthStepsMiB[] = {14.29, 28.46, 56.80, 113.60, 227.08};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  return (*std::max_element(v.begin(), v.begin() + mid) + hi) / 2;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  size_t k = std::min(v.size() - 1, static_cast<size_t>(q * v.size()));
  std::nth_element(v.begin(), v.begin() + k, v.end());
  return v[k];
}

struct Window {
  uint64_t begin_ns;
  uint64_t end_ns;
  bool contains(uint64_t t) const { return t >= begin_ns && t < end_ns; }
};

// The in-memory disk with a fixed wait per page read.  The wait spins on
// the steady clock instead of sleeping: InMemoryDisk's own delay sleeps,
// and on a virtual machine a 20 us sleep cost 27 to 36 us on average,
// varying from minute to minute with how fast the host woke the CPU up,
// which a build of thousands of misses adds up.  With the threads pinned
// (see PinThread) the reading thread has its CPU to itself, so the spin
// takes nothing from another thread.
class FixedDelayDisk : public oib::DiskManager {
 public:
  explicit FixedDelayDisk(std::unique_ptr<oib::DiskManager> inner)
      : inner_(std::move(inner)) {}

  void set_read_delay_us(uint32_t us) {
    delay_ns_.store(uint64_t{us} * 1000, std::memory_order_relaxed);
  }

  Status ReadPage(oib::PageId page_id, char* out) override {
    uint64_t until = NowNs() + delay_ns_.load(std::memory_order_relaxed);
    Status s = inner_->ReadPage(page_id, out);
    while (NowNs() < until) {
    }
    return s;
  }
  Status WritePage(oib::PageId page_id, const char* data) override {
    return inner_->WritePage(page_id, data);
  }
  oib::StatusOr<oib::PageId> AllocatePage() override {
    return inner_->AllocatePage();
  }
  oib::StatusOr<oib::PageId> AllocatePageNoReuse() override {
    return inner_->AllocatePageNoReuse();
  }
  Status FreePage(oib::PageId page_id) override {
    return inner_->FreePage(page_id);
  }
  oib::PageId PageCount() const override { return inner_->PageCount(); }
  Status PutMeta(const std::string& key, const std::string& value) override {
    return inner_->PutMeta(key, value);
  }
  Status GetMeta(const std::string& key, std::string* value) override {
    return inner_->GetMeta(key, value);
  }
  Status Sync() override { return inner_->Sync(); }
  size_t page_size() const override { return inner_->page_size(); }
  uint64_t reads() const override { return inner_->reads(); }
  uint64_t writes() const override { return inner_->writes(); }

 private:
  std::unique_ptr<oib::DiskManager> inner_;
  std::atomic<uint64_t> delay_ns_{0};
};

// Program counters at one instant.
struct Probe {
  uint64_t log_end = 0;  // LogManager::next_lsn(): bytes of log so far
  uint64_t wal_bytes = 0;
  uint64_t bp_hits = 0;
  uint64_t bp_misses = 0;
  uint64_t disk_reads = 0;
  uint64_t disk_writes = 0;
  uint64_t sf_appends = 0;
  uint64_t lock_wait_ns = 0;
};

Probe TakeProbe(oib::Engine* engine) {
  oib::obs::MetricsSnapshot snap = engine->metrics()->TakeSnapshot();
  auto counter = [&](const char* name) -> uint64_t {
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  Probe p;
  p.log_end = engine->log()->next_lsn();
  p.wal_bytes = engine->log()->stats().bytes;
  p.bp_hits = counter("bufferpool.hits");
  p.bp_misses = counter("bufferpool.misses");
  p.disk_reads = engine->disk()->reads();
  p.disk_writes = engine->disk()->writes();
  p.sf_appends = counter("records.side_file_appends");
  auto h = snap.histograms.find("lock.wait_ns");
  if (h != snap.histograms.end()) p.lock_wait_ns = h->second.sum;
  return p;
}

// Lock-profiler wait time by rank name, accumulated over build windows.
void AddLockProfile(std::map<std::string, double>* wait_ms) {
  for (const auto& r : oib::obs::CollectLockProfile()) {
    (*wait_ms)[r.name] += r.wait_ns.sum / 1e6;
  }
  oib::obs::ResetLockProfile();
}

struct RoundResult {
  double setup_s = 0;
  double build_s = 0;
  double restart_s = 0;
  double bytes_per_entry = 0;
  std::vector<double> txn_us;   // latency from due time, build windows
  std::vector<double> lag_us;   // generator lateness, build windows
  std::vector<double> read_us;  // serving reads
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string error;
  std::map<std::string, double> layers;  // traced runs
  std::vector<SpanRec> spans;
};

class Round {
 public:
  Round(const WorkloadSpec& w, uint64_t seed, bool trace)
      : w_(w), seed_(seed), trace_(trace), clients_(ClientsFor(w, seed)) {}

  RoundResult Run() {
    if (Setup() && Build() && CrashAndRestart() && ResumeIfCrashed() &&
        Serve()) {
      Measure();
    }
    clients_.Finish();
    for (const Client& c : clients_.clients()) {
      r_.attempted += c.attempted;
      r_.failed += c.failed;
      if (r_.error.empty() && !c.error.empty()) r_.error = c.error;
      for (const TxnSample& s : c.samples) {
        for (const Window& win : windows_) {
          if (win.contains(s.due_ns)) {
            r_.txn_us.push_back(s.latency_ns / 1e3);
            r_.lag_us.push_back(s.lag_ns / 1e3);
          }
        }
      }
    }
    Summary();
    if (trace_) {
      std::vector<SpanRec> rest = TakeSpans();
      r_.spans.insert(r_.spans.end(), rest.begin(), rest.end());
      Diagnostics();
    }
    engine_.reset();
    env_.reset();
    return std::move(r_);
  }

 private:
  static ClientConfig ClientsFor(const WorkloadSpec& w, uint64_t seed) {
    ClientConfig c = w.clients;
    c.seed = seed;
    c.first_new_pk = w.rows;
    return c;
  }

  bool Fail(const std::string& what) {
    if (r_.error.empty()) r_.error = what;
    return false;
  }
  bool Check(const std::string& where, const std::string& err) {
    return err.empty() ? true : Fail(where + ": " + err);
  }
  FixedDelayDisk* disk() {
    return static_cast<FixedDelayDisk*>(env_->disk.get());
  }

  bool Setup() {
    oib::Options opt;
    opt.buffer_pool_pages = w_.pool_pages;
    opt.obs_lock_profile = trace_;
    if (w_.fail_after_batches > 0) {
      opt.failpoints = "nsf.insert_batch=error:count=" +
                       std::to_string(w_.fail_after_batches);
    }
    options_ = opt;
    // The rows are generated before the clock starts: setup_s times the
    // engine, not the generator.
    std::vector<Row> rows(w_.rows);
    Rng rng(Mix64(seed_));
    for (uint64_t pk = 0; pk < w_.rows; ++pk) {
      rows[pk].pk = pk;
      rows[pk].rec = MakeRecord(pk, SecValue(seed_, pk), &rng);
    }
    uint64_t t0 = NowNs();
    Span span("bench.setup");
    env_ = oib::Env::InMemory(opt);
    env_->disk = std::make_unique<FixedDelayDisk>(std::move(env_->disk));
    auto engine = oib::Engine::Open(opt, env_.get());
    if (!engine.ok()) return Fail("open: " + engine.status().ToString());
    engine_ = std::move(*engine);
    auto table = engine_->catalog()->CreateTable("t");
    if (!table.ok()) return Fail("create table: " + table.status().ToString());
    table_ = *table;
    for (uint64_t pk = 0; pk < w_.rows; pk += kLoadBatch) {
      oib::Transaction* txn = engine_->Begin();
      for (uint64_t i = pk; i < std::min(w_.rows, pk + kLoadBatch); ++i) {
        auto rid = engine_->records()->InsertRecord(txn, table_, rows[i].rec);
        if (!rid.ok()) return Fail("load: " + rid.status().ToString());
        rows[i].rid = *rid;
      }
      Status s = engine_->Commit(txn);
      if (!s.ok()) return Fail("load commit: " + s.ToString());
    }
    oib::BuildParams pk;
    pk.name = "pk";
    pk.table = table_;
    pk.unique = true;
    pk.key_cols = {kPkCol};
    Status s = oib::OfflineIndexBuilder(engine_.get()).Build(pk, &pk_index_);
    if (!s.ok()) return Fail("primary index: " + s.ToString());
    s = engine_->Checkpoint();
    if (!s.ok()) return Fail("checkpoint: " + s.ToString());
    r_.setup_s = (NowNs() - t0) / 1e9;
    for (Row& row : rows) clients_.AddLoadedRow(std::move(row));
    setup_probe_ = TakeProbe(engine_.get());
    disk()->set_read_delay_us(w_.read_delay_us);
    return true;
  }

  // Starts the stream and lets it run briefly before a build window.
  void StartClients() {
    if (windows_.empty()) {
      warmup_ = Window{NowNs(), 0};
      warmup_wal_bytes_ = engine_->log()->stats().bytes;
    }
    clients_.Start(engine_.get(), table_, pk_index_);
    std::this_thread::sleep_for(std::chrono::milliseconds(kWarmupMs));
    if (trace_) oib::obs::ResetLockProfile();
  }

  template <typename Fn>
  Status BuildWindow(const char* name, oib::BuildStats* stats, Fn&& fn) {
    Probe before = TakeProbe(engine_.get());
    uint64_t t0 = NowNs();
    if (windows_.empty()) {
      warmup_.end_ns = t0;
      warmup_wal_bytes_ = before.wal_bytes - warmup_wal_bytes_;
    }
    Status s;
    {
      Span span(name);
      s = fn(stats);
    }
    uint64_t t1 = NowNs();
    windows_.push_back(Window{t0, t1});
    r_.build_s = (t1 - t0) / 1e9;
    Probe after = TakeProbe(engine_.get());
    window_probe_.push_back({before, after});
    if (trace_) AddLockProfile(&lock_wait_ms_);
    r_.attempted++;
    return s;
  }

  bool Build() {
    StartClients();
    oib::BuildParams params;
    params.name = "sec";
    params.table = table_;
    params.key_cols = {kSecCol};
    Status s = BuildWindow("builder.build", &build_stats_,
                           [&](oib::BuildStats* st) {
                             if (w_.algo == oib::BuildAlgo::kSf) {
                               return oib::SfIndexBuilder(engine_.get())
                                   .Build(params, &sec_index_, st);
                             }
                             return oib::NsfIndexBuilder(engine_.get())
                                 .Build(params, &sec_index_, st);
                           });
    if (w_.fail_after_batches > 0 && s.ok()) {
      return Fail("the nsf.insert_batch failpoint did not fire");
    }
    // Only the planned failpoint stop is not a failure.
    if (!s.ok() && !(w_.fail_after_batches > 0 && s.IsInjected())) {
      r_.failed++;
      return Fail("build: " + s.ToString());
    }
    oib::BTree* tree = engine_->catalog()->index(sec_index_);
    if (tree != nullptr) splits_ += tree->split_count();
    return true;
  }

  bool CrashAndRestart() {
    clients_.Park();
    Status s = engine_->SimulateCrash();
    if (!s.ok()) return Fail("crash: " + s.ToString());
    engine_.reset();
    oib::Options opt = options_;
    opt.failpoints.clear();
    uint64_t t0 = NowNs();
    {
      Span span("engine.restart");
      auto engine = oib::Engine::Restart(opt, env_.get(), &recovery_);
      r_.attempted++;
      if (!engine.ok()) {
        r_.failed++;
        return Fail("restart: " + engine.status().ToString());
      }
      engine_ = std::move(*engine);
    }
    r_.restart_s = (NowNs() - t0) / 1e9;
    disk()->set_read_delay_us(0);
    bool ok = Check("after restart, heap",
                    CheckHeap(engine_.get(), table_, clients_.Model()));
    if (ok && w_.fail_after_batches == 0) {
      ok = Check("after restart, index",
                 CheckIndex(engine_.get(), sec_index_, clients_.Model()));
    }
    disk()->set_read_delay_us(w_.read_delay_us);
    return ok;
  }

  bool ResumeIfCrashed() {
    if (w_.fail_after_batches == 0) return true;
    StartClients();
    oib::BuildStats st;
    Status s = BuildWindow("builder.resume", &st, [&](oib::BuildStats* out) {
      return oib::NsfIndexBuilder(engine_.get())
          .Resume(table_, &sec_index_, out);
    });
    clients_.Finish();
    if (!s.ok()) {
      r_.failed++;
      return Fail("resume: " + s.ToString());
    }
    resume_stats_ = st;
    oib::BTree* tree = engine_->catalog()->index(sec_index_);
    if (tree != nullptr) splits_ += tree->split_count();
    disk()->set_read_delay_us(0);
    bool ok = Check("after resume, heap",
                    CheckHeap(engine_.get(), table_, clients_.Model())) &&
              Check("after resume, index",
                    CheckIndex(engine_.get(), sec_index_, clients_.Model()));
    disk()->set_read_delay_us(w_.read_delay_us);
    return ok;
  }

  // Closed-loop point reads through the new index on one reader thread,
  // then reads of values that were deleted or replaced.
  bool Serve() {
    std::vector<const Row*> model = clients_.Model();
    std::vector<std::string> dead;
    for (const Client& c : clients_.clients()) {
      for (const std::string& v : c.dead) {
        if (dead.size() < kDeadProbes) dead.push_back(v);
      }
    }
    serve_before_ = TakeProbe(engine_.get());
    std::string err;
    uint64_t failed = 0;
    std::thread reader([&] {
      SetPreciseTimerSlack();
      PinThread(kBuilderSlot);
      Rng rng(Mix64(seed_ ^ 0x5e4e));
      oib::RecordManager* rm = engine_->records();
      r_.read_us.reserve(w_.serve_reads);
      for (int i = 0; i < w_.serve_reads; ++i) {
        const Row* row = model[rng.Uniform(model.size())];
        std::string key = SecKey(SecOf(row->rec));
        oib::Transaction* txn = engine_->Begin();
        uint64_t t0 = NowNs();
        oib::StatusOr<std::string> got = std::string();
        {
          Span span("rm.read_by_sec", txn->id());
          got = rm->ReadRecordByKey(txn, table_, sec_index_, key);
        }
        r_.read_us.push_back((NowNs() - t0) / 1e3);
        if (!engine_->Commit(txn).ok() ||
            (!got.ok() && !got.status().IsNotFound())) {
          failed++;
        } else if (err.empty()) {
          err = CheckRead(got, &row->rec);
        }
      }
      for (const std::string& v : dead) {
        oib::Transaction* txn = engine_->Begin();
        auto got = rm->ReadRecordByKey(txn, table_, sec_index_, SecKey(v));
        if (!engine_->Commit(txn).ok()) failed++;
        if (err.empty()) err = CheckRead(got, nullptr);
      }
    });
    reader.join();
    serve_after_ = TakeProbe(engine_.get());
    r_.attempted += w_.serve_reads + dead.size();
    r_.failed += failed;
    return Check("serving read", err);
  }

  void Measure() {
    disk()->set_read_delay_us(0);
    oib::BTree* tree = engine_->catalog()->index(sec_index_);
    if (tree == nullptr) {
      Fail("the new index is missing");
      return;
    }
    auto report = oib::TreeVerifier(tree, engine_->pool()).Check();
    if (!report.ok() || !report->ok) {
      Fail("index structure: " + (report.ok() ? report->error
                                              : report.status().ToString()));
      return;
    }
    uint64_t live = report->entries - report->pseudo_deleted;
    uint64_t pages = report->leaf_pages + report->internal_pages;
    r_.bytes_per_entry =
        live == 0 ? 0 : double(pages) * options_.page_size / live;
    if (trace_) Layers(*report);
  }

  // Per-layer metrics of a traced round (see README.md for each one).
  void Layers(const oib::TreeCheckReport& tree) {
    std::map<std::string, double>& m = r_.layers;
    std::vector<SpanRec> spans = TakeSpans();
    auto p50_us = [&](const char* name, bool in_windows) {
      std::vector<double> d;
      for (const SpanRec& s : spans) {
        if (std::strcmp(s.name, name) != 0) continue;
        bool in = !in_windows;
        for (const Window& w : windows_) in = in || w.contains(s.start_ns);
        if (in) d.push_back((s.end_ns - s.start_ns) / 1e3);
      }
      return Median(d);
    };
    double max_commit_ns = 0;
    for (const SpanRec& s : spans) {
      if (std::strcmp(s.name, "txn.commit") != 0) continue;
      for (const Window& w : windows_) {
        if (w.contains(s.start_ns)) {
          max_commit_ns = std::max<double>(max_commit_ns,
                                           s.end_ns - s.start_ns);
        }
      }
    }
    m["rm.insert_us"] = p50_us("rm.insert", true);
    m["rm.delete_us"] = p50_us("rm.delete", true);
    m["rm.update_us"] = p50_us("rm.update", true);
    m["rm.read_by_key_us"] = p50_us("rm.read_by_sec", false);
    m["txn.commit_us"] = p50_us("txn.commit", true);
    m["wal.max_commit_ms"] = max_commit_ns / 1e6;

    uint64_t win_wal = 0, win_lock_ns = 0, win_sf = 0;
    uint64_t win_hits = 0, win_misses = 0;
    for (const auto& [a, b] : window_probe_) {
      win_wal += b.wal_bytes - a.wal_bytes;
      win_lock_ns += b.lock_wait_ns - a.lock_wait_ns;
      win_sf += b.sf_appends - a.sf_appends;
      win_hits += b.bp_hits - a.bp_hits;
      win_misses += b.bp_misses - a.bp_misses;
    }
    // WAL bytes per client transaction, from the warm-up before the
    // first build window (clients only); the rest of a window's log is
    // the build's.
    uint64_t warm_txns = 0, win_txns = 0;
    for (const Client& c : clients_.clients()) {
      for (const TxnSample& s : c.samples) {
        if (warmup_.contains(s.due_ns)) warm_txns++;
        for (const Window& w : windows_) win_txns += w.contains(s.due_ns);
      }
    }
    double per_txn =
        warm_txns == 0 ? 0 : double(warmup_wal_bytes_) / warm_txns;
    m["wal.bytes_per_txn"] = per_txn;
    m["wal.build_bytes"] = std::max(0.0, win_wal - per_txn * win_txns);
    m["lock.table_wait_ms"] = win_lock_ns / 1e6;
    m["wal.flush_wait_ms"] = lock_wait_ms_["WalFlush"];
    m["bp.latch_wait_ms"] = lock_wait_ms_["PageLatch"];
    m["sf.drain_gate_wait_ms"] = lock_wait_ms_["DrainGate"];
    m["bp.hit_ratio"] =
        win_hits + win_misses == 0
            ? 0
            : double(win_hits) / double(win_hits + win_misses);
    m["bp.misses_per_read"] =
        double(serve_after_.bp_misses - serve_before_.bp_misses) /
        std::max(1, w_.serve_reads);
    m["disk.reads"] = serve_after_.disk_reads - setup_probe_.disk_reads;
    m["disk.writes"] = serve_after_.disk_writes - setup_probe_.disk_writes;

    oib::BuildStats b = build_stats_;
    const oib::BuildStats& r = resume_stats_;
    m["build.scan_ms"] = b.scan_ms + r.scan_ms;
    m["build.merge_ms"] = b.merge_ms + r.merge_ms;
    m["build.load_ms"] = b.load_ms + r.load_ms;
    m["build.apply_ms"] = b.apply_ms + r.apply_ms;
    m["build.quiesce_ms"] = b.quiesce_ms + r.quiesce_ms;
    m["build.checkpoints"] = b.checkpoints + r.checkpoints;
    m["sort.runs"] = b.sort_runs + r.sort_runs;
    uint64_t moved = b.key_bytes_moved + r.key_bytes_moved;
    m["sort.key_bytes_ratio"] =
        moved == 0 ? 0
                   : double(b.key_bytes_stored + r.key_bytes_stored) / moved;
    m["sf.appended"] = win_sf;
    m["sf.applied"] = b.side_file_applied + r.side_file_applied;
    m["resume.keys_redone"] =
        r.ib.inserted + r.ib.skipped_duplicates + r.ib.skipped_tombstones;

    m["btree.leaf_pages"] = tree.leaf_pages;
    m["btree.entries_per_leaf"] =
        tree.leaf_pages == 0 ? 0 : double(tree.entries) / tree.leaf_pages;
    m["btree.splits"] = splits_;

    const oib::RecoveryStats& rs = recovery_;
    m["recovery.records_scanned"] = rs.records_scanned;
    m["recovery.records_redone"] = rs.records_redone;
    m["recovery.loser_txns"] = rs.loser_txns;
    m["recovery.analysis_ms"] = rs.analysis_ns / 1e6;
    m["recovery.redo_ms"] = rs.redo_ns / 1e6;
    m["recovery.undo_ms"] = rs.undo_ns / 1e6;
    m["recovery.unattributed_ms"] =
        r_.restart_s * 1e3 -
        (rs.analysis_ns + rs.redo_ns + rs.undo_ns) / 1e6;
    r_.spans = std::move(spans);
  }

  // One line per round on stderr: phase times and where each build
  // window sits in the log, against the WAL's capacity doublings.
  void Summary() const {
    std::fprintf(stderr, "round: setup %.3fs build %.3fs restart %.3fs",
                 r_.setup_s, r_.build_s, r_.restart_s);
    for (const auto& [a, b] : window_probe_) {
      int steps = 0;
      for (double mib : kWalGrowthStepsMiB) {
        steps += a.log_end < mib * kMiB && b.log_end >= mib * kMiB;
      }
      std::fprintf(stderr, " | window log %.2f..%.2f MiB, %d growth step(s)",
                   a.log_end / kMiB, b.log_end / kMiB, steps);
    }
    std::fprintf(stderr, "\n");
  }

  // Client-side diagnostics of a traced round (not gated).
  void Diagnostics() {
    std::map<std::string, double>& m = r_.layers;
    m["client.txn_p99_us"] = Quantile(r_.txn_us, 0.99);
    m["client.max_late_ms"] =
        r_.lag_us.empty()
            ? 0
            : *std::max_element(r_.lag_us.begin(), r_.lag_us.end()) / 1e3;
    m["client.generator_lag_us"] = Median(r_.lag_us);
  }

  const WorkloadSpec& w_;
  uint64_t seed_;
  bool trace_;
  ClientPool clients_;
  RoundResult r_;
  oib::Options options_;
  std::unique_ptr<oib::Env> env_;
  std::unique_ptr<oib::Engine> engine_;
  oib::TableId table_ = 0;
  oib::IndexId pk_index_ = 0;
  oib::IndexId sec_index_ = 0;
  std::vector<Window> windows_;
  std::vector<std::pair<Probe, Probe>> window_probe_;
  Window warmup_{0, 0};
  uint64_t warmup_wal_bytes_ = 0;
  Probe setup_probe_;
  Probe serve_before_;
  Probe serve_after_;
  std::map<std::string, double> lock_wait_ms_;
  oib::BuildStats build_stats_;
  oib::BuildStats resume_stats_;
  oib::RecoveryStats recovery_;
  uint64_t splits_ = 0;
};

void Usage() {
  std::fprintf(stderr,
               "usage: oib_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>] [--smoke]\n");
}

}  // namespace
}  // namespace perfbench

namespace perfbench {
namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric a traced run reports (BENCHMARK.json lists the
// same names), with its unit.
const LayerMetric kLayerMetrics[] = {
    {"rm.insert_us", "us"},
    {"rm.delete_us", "us"},
    {"rm.update_us", "us"},
    {"rm.read_by_key_us", "us"},
    {"txn.commit_us", "us"},
    {"lock.table_wait_ms", "ms"},
    {"wal.bytes_per_txn", "B"},
    {"wal.build_bytes", "B"},
    {"wal.flush_wait_ms", "ms"},
    {"wal.max_commit_ms", "ms"},
    {"bp.hit_ratio", "ratio"},
    {"bp.misses_per_read", "count"},
    {"disk.reads", "count"},
    {"disk.writes", "count"},
    {"bp.latch_wait_ms", "ms"},
    {"build.scan_ms", "ms"},
    {"build.merge_ms", "ms"},
    {"sort.runs", "count"},
    {"sort.key_bytes_ratio", "ratio"},
    {"build.load_ms", "ms"},
    {"btree.leaf_pages", "count"},
    {"btree.entries_per_leaf", "count"},
    {"btree.splits", "count"},
    {"sf.appended", "count"},
    {"sf.applied", "count"},
    {"build.apply_ms", "ms"},
    {"sf.drain_gate_wait_ms", "ms"},
    {"recovery.records_scanned", "count"},
    {"recovery.records_redone", "count"},
    {"recovery.loser_txns", "count"},
    {"recovery.analysis_ms", "ms"},
    {"recovery.redo_ms", "ms"},
    {"recovery.undo_ms", "ms"},
    {"recovery.unattributed_ms", "ms"},
    {"build.quiesce_ms", "ms"},
    {"build.checkpoints", "count"},
    {"resume.keys_redone", "count"},
    {"client.txn_p99_us", "us"},
    {"client.max_late_ms", "ms"},
    {"client.generator_lag_us", "us"},
    {"process.cpu_s", "s"},
};

void PutMetric(std::string* out, const char* name, double value,
               const char* unit) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.10g,\"unit\":\"%s\"}",
                out->back() == '{' ? "" : ",", name, value, unit);
  *out += buf;
}

int Main(int argc, char** argv) {
  std::string workload, out_dir;
  uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--smoke") {
      smoke = true;


    } else if (v == nullptr) {
      Usage();
      return 2;
    } else if (a == "--workload") {
      workload = v, ++i;
    } else if (a == "--seed") {
      seed = std::strtoull(v, nullptr, 10), ++i;
    } else if (a == "--seconds") {
      seconds = std::strtod(v, nullptr), ++i;
    } else if (a == "--trace") {
      trace = std::atoi(v), ++i;
    } else if (a == "--out") {
      out_dir = v, ++i;
    } else {
      Usage();
      return 2;
    }
  }
  const WorkloadSpec* spec = nullptr;
  std::vector<WorkloadSpec> all = Workloads();
  for (const WorkloadSpec& w : all) {
    if (w.name == workload) spec = &w;
  }
  if (spec == nullptr || seconds <= 0 || (trace != 0 && trace != 1)) {
    Usage();
    return 2;
  }
  WorkloadSpec w = *spec;
  if (smoke) MakeSmoke(&w);
  SetPreciseTimerSlack();
  PinThread(kBuilderSlot);
  g_tracing.store(trace == 1);

  const int rounds =
      std::max(1, static_cast<int>(std::lround(seconds / w.round_s)));
  std::vector<double> setup_s, build_s, restart_s, bytes_per_entry;
  std::vector<double> txn_us, read_us;
  std::map<std::string, std::vector<double>> layers;
  uint64_t attempted = 0, failed = 0;
  std::string error;
  for (int i = 0; i < rounds && error.empty(); ++i) {
    RoundResult r = Round(w, Mix64(seed * 1'000'003 + i), trace == 1).Run();
    // Hand the round's memory back, so every round starts from the same
    // heap instead of from the previous round's fragments.
    malloc_trim(0);
    attempted += r.attempted;
    failed += r.failed;
    error = r.error;
    setup_s.push_back(r.setup_s);
    build_s.push_back(r.build_s);
    restart_s.push_back(r.restart_s);
    bytes_per_entry.push_back(r.bytes_per_entry);
    txn_us.insert(txn_us.end(), r.txn_us.begin(), r.txn_us.end());
    read_us.insert(read_us.end(), r.read_us.begin(), r.read_us.end());
    for (const auto& [k, v] : r.layers) layers[k].push_back(v);
    if (trace == 1 && i == 0 && !out_dir.empty()) {
      std::string base = out_dir + "/" + w.name + "_" + std::to_string(seed);
      if (!WriteChromeTrace(base + "_trace.json", r.spans)) {
        std::fprintf(stderr, "cannot write %s_trace.json\n", base.c_str());
      }
      std::FILE* f = std::fopen((base + "_spans.txt").c_str(), "w");
      if (f != nullptr) {
        std::fprintf(f, "%-20s %10s %12s %12s\n", "span", "count",
                     "total_ms", "self_ms");
        for (const auto& [name, a] : AggregateSpans(r.spans)) {
          std::fprintf(f, "%-20s %10llu %12.3f %12.3f\n", name.c_str(),
                       static_cast<unsigned long long>(a.count),
                       a.total_ns / 1e6, a.self_ns / 1e6);
        }
        std::fclose(f);
      }
    }
  }
  if (!error.empty()) {
    std::fprintf(stderr, "CHECK FAILED (%s): %s\n", w.name.c_str(),
                 error.c_str());
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::string e2e = "{";
  PutMetric(&e2e, "setup_s", Median(setup_s), "s");
  PutMetric(&e2e, "build_s", Median(build_s), "s");
  PutMetric(&e2e, "txn_p50_us", Median(txn_us), "us");
  PutMetric(&e2e, "read_p50_us", Median(read_us), "us");
  PutMetric(&e2e, "restart_s", Median(restart_s), "s");
  PutMetric(&e2e, "index_bytes_per_entry", Median(bytes_per_entry), "B");
  PutMetric(&e2e, "peak_rss_mb", ru.ru_maxrss / 1024.0, "MB");
  e2e += "}";
  std::string per_layer = "{";
  if (trace == 1) {
    layers["process.cpu_s"] = {ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6 +
                               ru.ru_stime.tv_sec + ru.ru_stime.tv_usec / 1e6};
    for (const LayerMetric& m : kLayerMetrics) {
      PutMetric(&per_layer, m.name, Median(layers[m.name]), m.unit);
    }
  }
  per_layer += "}";
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"rounds\":%d,"
      "\"metrics\":%s,\"layers\":%s}\n",
      error.empty() ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), rounds, e2e.c_str(),
      per_layer.c_str());
  return error.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
