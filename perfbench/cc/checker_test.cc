// Shows that the benchmark's independent checker rejects each kind of
// damage it exists to catch: a dropped index entry, an extra index entry,
// a lost acknowledged commit and a wrong record body.  Runs at a small
// size in well under a second; exit code 0 = every case behaved.

#include <cstdio>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/index_builder.h"
#include "table.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool cond, const char* what) {
  std::printf("%s %s\n", cond ? "ok  " : "FAIL", what);
  if (!cond) g_failures++;
}

constexpr uint64_t kRows = 500;

struct Fixture {
  std::unique_ptr<oib::Env> env;
  std::unique_ptr<oib::Engine> engine;
  oib::TableId table = 0;
  oib::IndexId sec = 0;
  std::vector<Row> rows;

  Fixture() {
    oib::Options opt;
    env = oib::Env::InMemory(opt);
    engine = std::move(*oib::Engine::Open(opt, env.get()));
    table = *engine->catalog()->CreateTable("t");
    Rng rng(7);
    oib::Transaction* txn = engine->Begin();
    for (uint64_t pk = 0; pk < kRows; ++pk) {
      Row row{pk, {}, MakeRecord(pk, SecValue(7, pk), &rng)};
      row.rid = *engine->records()->InsertRecord(txn, table, row.rec);
      rows.push_back(row);
    }
    Expect(engine->Commit(txn).ok(), "load commits");
    oib::BuildParams p;
    p.name = "sec";
    p.table = table;
    p.key_cols = {kSecCol};
    Expect(oib::SfIndexBuilder(engine.get()).Build(p, &sec).ok(),
           "secondary index builds");
  }

  std::vector<const Row*> Model() const {
    std::vector<const Row*> out;
    for (const Row& r : rows) out.push_back(&r);
    return out;
  }
  bool HeapOk() { return CheckHeap(engine.get(), table, Model()).empty(); }
  bool IndexOk() { return CheckIndex(engine.get(), sec, Model()).empty(); }
  oib::BTree* tree() { return engine->catalog()->index(sec); }
};

void CleanStatePasses() {
  Fixture f;
  Expect(f.HeapOk(), "clean heap passes");
  Expect(f.IndexOk(), "clean index passes");
  oib::Transaction* txn = f.engine->Begin();
  const Row& row = f.rows[42];
  auto got = f.engine->records()->ReadRecordByKey(
      txn, f.table, f.sec, SecKey(SecOf(row.rec)));
  Expect(CheckRead(got, &row.rec).empty(), "clean read passes");
  auto dead = f.engine->records()->ReadRecordByKey(
      txn, f.table, f.sec, SecKey(SecValue(7, kRows + 1)));
  Expect(CheckRead(dead, nullptr).empty(), "absent value reads NotFound");
  Expect(f.engine->Commit(txn).ok(), "read txn commits");
}

void DroppedIndexEntryRejected() {
  Fixture f;
  const Row& row = f.rows[10];
  oib::Transaction* txn = f.engine->Begin();
  Expect(f.tree()
             ->PhysicalDelete(txn, SecKey(SecOf(row.rec)), row.rid)
             .ok(),
         "entry removed behind the model's back");
  Expect(f.engine->Commit(txn).ok(), "removal commits");
  Expect(f.HeapOk(), "heap still matches");
  Expect(!f.IndexOk(), "dropped index entry is rejected");
}

void ExtraIndexEntryRejected() {
  Fixture f;
  oib::Transaction* txn = f.engine->Begin();
  auto ins = f.tree()->Insert(txn, SecKey("0000000000000000"),
                              f.rows[3].rid);
  Expect(ins.ok(), "stray entry inserted");
  Expect(f.engine->Commit(txn).ok(), "stray insert commits");
  Expect(!f.IndexOk(), "extra index entry is rejected");
}

void LostCommitRejected() {
  Fixture f;
  // The model records a commit as acknowledged, but the engine never
  // made it durable (here: it was rolled back instead).
  oib::Transaction* txn = f.engine->Begin();
  Rng rng(9);
  Row row{kRows, {}, MakeRecord(kRows, SecValue(7, kRows), &rng)};
  auto rid = f.engine->records()->InsertRecord(txn, f.table, row.rec);
  Expect(rid.ok(), "insert runs");
  row.rid = *rid;
  Expect(f.engine->Rollback(txn).ok(), "insert rolled back");
  f.rows.push_back(row);
  Expect(!f.HeapOk(), "lost acknowledged commit is rejected by the heap");
  Expect(!f.IndexOk(), "lost acknowledged commit is rejected by the index");
}

void WrongBodyRejected() {
  Fixture f;
  Row& row = f.rows[77];
  Rng rng(11);
  std::string other = MakeRecord(row.pk, SecOf(row.rec), &rng);
  oib::Transaction* txn = f.engine->Begin();
  Expect(f.engine->records()->UpdateRecord(txn, f.table, row.rid, other).ok(),
         "payload changed behind the model's back");
  Expect(f.engine->Commit(txn).ok(), "change commits");
  Expect(!f.HeapOk(), "wrong record body is rejected by the heap check");
  txn = f.engine->Begin();
  auto got = f.engine->records()->ReadRecordByKey(txn, f.table, f.sec,
                                                  SecKey(SecOf(row.rec)));
  Expect(!CheckRead(got, &row.rec).empty(),
         "wrong record body is rejected by the read check");
  Expect(!CheckRead(got, nullptr).empty(),
         "a found row is rejected where NotFound was due");
  Expect(f.engine->Commit(txn).ok(), "read txn commits");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::CleanStatePasses();
  perfbench::DroppedIndexEntryRejected();
  perfbench::ExtraIndexEntryRejected();
  perfbench::LostCommitRejected();
  perfbench::WrongBodyRejected();
  std::printf("%d failure(s)\n", perfbench::g_failures);
  return perfbench::g_failures == 0 ? 0 : 1;
}
