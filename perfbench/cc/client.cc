#include "client.h"

#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>

#include <chrono>
#include <cstdio>
#include <cstring>

#include "spans.h"

namespace perfbench {

namespace {

// Counter space of secondary values written by clients; loaded rows use
// their primary key as the counter.
constexpr uint64_t kNewSecBase = uint64_t{1} << 48;
// Sleep no closer to the due time than this, then spin.
constexpr uint64_t kSpinNs = 60'000;
// Longest single sleep, so a stop request is seen promptly.
constexpr uint64_t kMaxSleepNs = 2'000'000;
constexpr size_t kMaxDead = 4096;
constexpr int kThreads = 2;
constexpr int kReadsPerReadTxn = 4;
constexpr double kRollbackShare = 0.05;  // write transactions rolled back

// The CPUs this process may run on, read once, before any thread is
// pinned (a pinned thread's mask is inherited by the threads it starts).
const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) out.push_back(cpu);
      }
    }
    return out;
  }();
  return cpus;
}

void WarnUnpinned(const std::string& why) {
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true)) {
    std::fprintf(stderr, "perfbench: threads not pinned: %s\n", why.c_str());
  }
}

// A read of one of the client's own committed rows must return its
// bytes; NotFound is a lost row.  Other errors count as failed operations.
void NoteRead(Client* c, const oib::StatusOr<std::string>& got,
              const std::string& expect) {
  if (!got.ok() && !got.status().IsNotFound()) return;
  std::string err = CheckRead(got, &expect);
  if (!err.empty() && c->error.empty()) c->error = err;
}

}  // namespace

void SetPreciseTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

void PinThread(int slot) {
  const std::vector<int>& cpus = AllowedCpus();
  if (cpus.size() < kFirstClientSlot + kThreads) {
    WarnUnpinned("only " + std::to_string(cpus.size()) +
                 " CPUs allowed, 4 needed");
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[slot], &set);
  int err = pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
  if (err != 0) {
    WarnUnpinned("pthread_setaffinity_np(CPU " + std::to_string(cpus[slot]) +
                 "): " + std::strerror(err));
  }
}

ClientPool::ClientPool(const ClientConfig& config) : config_(config) {
  clients_.resize(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    clients_[i].id = i;
    clients_[i].rng = Rng(Mix64(config.seed * 131 + i));
  }
}

ClientPool::~ClientPool() {
  if (!threads_.empty()) Stop(kFinish);
}

void ClientPool::AddLoadedRow(Row row) {
  clients_[row.pk % clients_.size()].live.push_back(std::move(row));
}

void ClientPool::Start(oib::Engine* engine, oib::TableId table,
                       oib::IndexId pk_index) {
  engine_ = engine;
  table_ = table;
  pk_index_ = pk_index;
  mode_.store(kRun);
  uint64_t t0 = NowNs();
  for (Client& c : clients_) {
    threads_.emplace_back([this, &c, t0] { Loop(&c, t0); });
  }
}

void ClientPool::Finish() { Stop(kFinish); }
void ClientPool::Park() { Stop(kPark); }

void ClientPool::Stop(Mode mode) {
  mode_.store(mode, std::memory_order_release);
  for (std::thread& t : threads_) t.join();
  threads_.clear();
}

std::vector<const Row*> ClientPool::Model() const {
  std::vector<const Row*> rows;
  for (const Client& c : clients_) {
    for (const Row& r : c.live) rows.push_back(&r);
  }
  return rows;
}

void ClientPool::Loop(Client* c, uint64_t t0) {
  SetPreciseTimerSlack();
  PinThread(kFirstClientSlot + c->id);
  const uint64_t period =
      static_cast<uint64_t>(1e9 * kThreads / config_.rate);
  uint64_t due = t0 + period * c->id / kThreads;
  while (true) {
    int mode = mode_.load(std::memory_order_acquire);
    if (mode == kFinish) return;
    if (mode == kPark) {
      WriteTxn(c, /*commit=*/false);
      return;
    }
    uint64_t now = NowNs();
    if (now + kSpinNs < due) {
      uint64_t nap = std::min(due - now - kSpinNs, kMaxSleepNs);
      std::this_thread::sleep_for(std::chrono::nanoseconds(nap));
      continue;
    }
    while (now < due) now = NowNs();
    bool read_only = c->rng.Unit() < config_.read_txn_share;
    if (read_only) {
      ReadTxn(c);
    } else {
      WriteTxn(c, /*commit=*/true);
    }
    uint64_t end = NowNs();
    c->samples.push_back(TxnSample{due, end - due, now - due});
    due += period;
  }
}

void ClientPool::WriteTxn(Client* c, bool commit) {
  oib::RecordManager* rm = engine_->records();
  const uint64_t n = clients_.size();
  const uint64_t seq = c->next_seq++;
  const uint64_t pk_new = config_.first_new_pk + c->id + n * seq;
  const std::string sec_new =
      SecValue(config_.seed, kNewSecBase + 2 * (c->id + n * seq));
  const std::string sec_upd =
      SecValue(config_.seed, kNewSecBase + 2 * (c->id + n * seq) + 1);
  const bool rollback = c->rng.Unit() < kRollbackShare;
  const size_t d = c->rng.Uniform(c->live.size());
  size_t u = c->rng.Uniform(c->live.size() - 1);
  if (u >= d) ++u;
  size_t r = c->rng.Uniform(c->live.size() - 1);
  if (r >= d) ++r;
  Row ins{pk_new, {}, MakeRecord(pk_new, sec_new, &c->rng)};
  Row upd{c->live[u].pk, c->live[u].rid,
          MakeRecord(c->live[u].pk, sec_upd, &c->rng)};
  c->attempted++;

  oib::Transaction* txn = engine_->Begin();
  Span txn_span("client.txn", txn->id());
  oib::Status s;
  {
    Span sp("rm.insert", txn->id());
    auto rid = rm->InsertRecord(txn, table_, ins.rec);
    if (rid.ok()) ins.rid = *rid;
    s = rid.status();
  }
  if (s.ok()) {
    Span sp("rm.delete", txn->id());
    s = rm->DeleteRecord(txn, table_, c->live[d].rid);
  }
  if (s.ok()) {
    Span sp("rm.update", txn->id());
    s = rm->UpdateRecord(txn, table_, upd.rid, upd.rec);
  }
  if (s.ok()) {
    Span sp("rm.read_by_pk", txn->id());
    auto got = rm->ReadRecordByKey(txn, table_, pk_index_,
                                   PkKey(c->live[r].pk));
    const std::string& expect = r == u ? upd.rec : c->live[r].rec;
    NoteRead(c, got, expect);
    s = got.status();
  }
  if (!commit && s.ok()) return;  // parked: left open for the crash
  if (!s.ok()) {
    c->failed++;
    (void)engine_->Rollback(txn);
    return;
  }
  if (rollback) {
    Span sp("txn.rollback", txn->id());
    if (!engine_->Rollback(txn).ok()) c->failed++;
    return;
  }
  {
    Span sp("txn.commit", txn->id());
    s = engine_->Commit(txn);
  }
  if (!s.ok()) {
    c->failed++;
    return;
  }
  if (c->dead.size() + 2 <= kMaxDead) {
    c->dead.emplace_back(SecOf(c->live[d].rec));
    c->dead.emplace_back(SecOf(c->live[u].rec));
  }
  c->live[u] = std::move(upd);
  c->live[d] = std::move(ins);
}

void ClientPool::ReadTxn(Client* c) {
  oib::RecordManager* rm = engine_->records();
  c->attempted++;
  oib::Transaction* txn = engine_->Begin();
  Span txn_span("client.txn", txn->id());
  oib::Status s;
  for (int i = 0; i < kReadsPerReadTxn && s.ok(); ++i) {
    const Row& row = c->live[c->rng.Uniform(c->live.size())];
    Span sp("rm.read_by_pk", txn->id());
    auto got = rm->ReadRecordByKey(txn, table_, pk_index_, PkKey(row.pk));
    NoteRead(c, got, row.rec);
    s = got.status();
  }
  if (s.ok()) {
    Span sp("txn.commit", txn->id());
    s = engine_->Commit(txn);
  } else {
    (void)engine_->Rollback(txn);
  }
  if (!s.ok()) c->failed++;
}

}  // namespace perfbench
