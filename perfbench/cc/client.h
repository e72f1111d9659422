// Open-loop client stream.
//
// Each client thread issues transactions on a fixed schedule (one every
// 1/rate seconds), whatever the engine's speed, and times each one from
// its due time.  A thread sleeps with 1 ns timer slack and spins the last
// stretch, so its wake-up is not part of the latency.
//
// Two client threads share the offered rate.  A write transaction
// inserts a row, deletes a row, updates a row's secondary value and reads
// a row by primary key, then commits (or, for a seeded 5%, rolls back on
// purpose).  A read transaction does four point reads by primary key.  A
// client only touches rows it owns (primary key = id mod clients), so
// clients never wait for each other; its `live` rows are its share of the
// model, changed only when Commit returns OK.

#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "table.h"

namespace perfbench {

struct ClientConfig {
  double rate = 2000;            // offered txn/s over all threads
  double read_txn_share = 0.0;   // share of read-only transactions
  uint64_t seed = 1;
  uint64_t first_new_pk = 0;     // primary keys below are the loaded rows
};

struct TxnSample {
  uint64_t due_ns;
  uint64_t latency_ns;  // end - due
  uint64_t lag_ns;      // start - due: how late the generator ran
};

struct Client {
  int id = 0;
  Rng rng{0};
  std::vector<Row> live;
  std::vector<std::string> dead;  // deleted or replaced secondary values
  uint64_t next_seq = 0;
  std::vector<TxnSample> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;      // lock timeouts and other engine errors
  std::string error;        // first read that disagreed with the model
};

class ClientPool {
 public:
  explicit ClientPool(const ClientConfig& config);
  ~ClientPool();
  ClientPool(const ClientPool&) = delete;
  ClientPool& operator=(const ClientPool&) = delete;

  // Loaded row `pk` belongs to client pk % (number of clients).
  void AddLoadedRow(Row row);

  // Starts the threads against `engine`; the schedule begins now.
  void Start(oib::Engine* engine, oib::TableId table, oib::IndexId pk_index);
  // Finishes the transaction in progress and joins the threads.
  void Finish();
  // Each thread runs one more write transaction and leaves it open
  // (a loser for the next restart), then the threads are joined.
  void Park();

  std::vector<const Row*> Model() const;
  const std::vector<Client>& clients() const { return clients_; }

 private:
  enum Mode : int { kRun = 0, kFinish = 1, kPark = 2 };
  void Loop(Client* c, uint64_t t0);
  void Stop(Mode mode);
  // One transaction; `commit` false leaves a write transaction open.
  void WriteTxn(Client* c, bool commit);
  void ReadTxn(Client* c);

  ClientConfig config_;
  std::vector<Client> clients_;
  std::vector<std::thread> threads_;
  std::atomic<int> mode_{kRun};
  oib::Engine* engine_ = nullptr;
  oib::TableId table_ = 0;
  oib::IndexId pk_index_ = 0;
};

// Sets the calling thread's timer slack to 1 ns (Linux), so sleeps end
// when asked instead of up to 50 us later.
void SetPreciseTimerSlack();

// Binds the calling thread to one of the CPUs the process may run on
// (its affinity mask when first called), when there are four or more:
// the builder (and the serving reader, which runs while it waits) gets
// the first to itself, client i gets the (3 + i)-th; the second is left
// to the rest of the system.  Left to the scheduler, a client woken
// from its sleep was at times placed on the builder's CPU, and runs
// switched between two regimes (SF builds 50% slower, client latency 40%
// lower); see README.md.  When the threads cannot be pinned it says so
// once on stderr and the run goes on unpinned.
void PinThread(int slot);
constexpr int kBuilderSlot = 0;
constexpr int kFirstClientSlot = 2;

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
