// Substrate micro-benchmarks (google-benchmark): B+-tree point ops, IB
// batch inserts, external sort, WAL appends, heap record ops, side-file
// appends, lock acquisition.  This binary also replaces the global
// operator new with a counting one, so the point-lookup report can state
// how many heap allocations an end-to-end update and point read make.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "bench/bench_util.h"
#include "common/key.h"
#include "hashidx/hash_index.h"
#include "sort/external_sorter.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

// The counting allocator: every other new/delete form of the standard
// library routes through these.  Kept out of line so the compiler does
// not pair an inlined free() with a new-expression.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace oib {
namespace bench {
namespace {

std::string Key8(uint64_t i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "%08llu", (unsigned long long)i);
  return buf;
}

void BM_BtreeInsert(benchmark::State& state) {
  World w = MakeWorld(0);
  auto desc = w.engine->catalog()->CreateIndex("i", w.table, false, {0},
                                               BuildAlgo::kOffline);
  BTree* tree = w.engine->catalog()->index(desc->id);
  Transaction* txn = w.engine->Begin();
  uint64_t i = 0;
  Random rng(1);
  for (auto _ : state) {
    auto r = tree->Insert(txn, Key8(rng.Next() % 10000000), Rid(i++ & 0xffff, 0));
    benchmark::DoNotOptimize(r.ok());
  }
  (void)w.engine->Commit(txn);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BtreeInsert);

void BM_BtreeLookup(benchmark::State& state) {
  World w = MakeWorld(0);
  auto desc = w.engine->catalog()->CreateIndex("i", w.table, false, {0},
                                               BuildAlgo::kOffline);
  BTree* tree = w.engine->catalog()->index(desc->id);
  Transaction* txn = w.engine->Begin();
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    (void)tree->Insert(txn, Key8(i), Rid(i, 0));
  }
  (void)w.engine->Commit(txn);
  Random rng(2);
  for (auto _ : state) {
    int i = static_cast<int>(rng.Uniform(n));
    auto r = tree->Lookup(Key8(i), Rid(i, 0));
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BtreeLookup);

void BM_BtreeIbBatchInsert(benchmark::State& state) {
  size_t batch = static_cast<size_t>(state.range(0));
  World w = MakeWorld(0);
  auto desc = w.engine->catalog()->CreateIndex("i", w.table, false, {0},
                                               BuildAlgo::kOffline);
  BTree* tree = w.engine->catalog()->index(desc->id);
  Transaction* txn = w.engine->Begin();
  uint64_t next = 0;
  std::vector<std::string> keys(batch);
  for (auto _ : state) {
    std::vector<IndexKeyRef> refs;
    refs.reserve(batch);
    for (size_t j = 0; j < batch; ++j) {
      keys[j] = Key8(next);
      refs.push_back({keys[j], Rid(static_cast<PageId>(next), 0)});
      ++next;
    }
    BTree::IbStats stats;
    auto s = tree->IbInsertBatch(txn, refs, false, nullptr, &stats);
    benchmark::DoNotOptimize(s.ok());
  }
  (void)w.engine->Commit(txn);
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_BtreeIbBatchInsert)->Arg(1)->Arg(64)->Arg(256);

void BM_ExternalSortAndMerge(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Options options = DefaultBenchOptions();
  options.sort_workspace_keys = 4096;
  for (auto _ : state) {
    RunStore store;
    ExternalSorter sorter(&store, &options);
    (void)sorter.CreateWriters(1);
    Random rng(7);
    for (size_t i = 0; i < n; ++i) {
      (void)sorter.writer(0)->Add(Key8(rng.Next() % 100000000), Rid(1, 0));
    }
    (void)sorter.FinishWriters();
    (void)sorter.PrepareMerge();
    auto cursor = sorter.OpenMerge();
    SortItem item;
    size_t count = 0;
    for (;;) {
      auto more = (*cursor)->Next(&item);
      if (!more.ok() || !*more) break;
      ++count;
    }
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ExternalSortAndMerge)->Arg(10000)->Arg(100000);

void BM_WalAppend(benchmark::State& state) {
  LogManager log;
  std::string payload(64, 'x');
  for (auto _ : state) {
    LogRecord rec;
    rec.type = LogRecordType::kUpdate;
    rec.rm_id = RmId::kHeap;
    rec.txn_id = 1;
    rec.redo = payload;
    benchmark::DoNotOptimize(log.Append(&rec).ok());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * payload.size());
}
BENCHMARK(BM_WalAppend);

void BM_HeapInsert(benchmark::State& state) {
  World w = MakeWorld(0);
  HeapFile* heap = w.engine->catalog()->table(w.table);
  Transaction* txn = w.engine->Begin();
  std::string rec(64, 'r');
  for (auto _ : state) {
    auto r = heap->Insert(txn, rec, nullptr);
    benchmark::DoNotOptimize(r.ok());
  }
  (void)w.engine->Commit(txn);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HeapInsert);

void BM_RecordInsertWithIndexes(benchmark::State& state) {
  int indexes = static_cast<int>(state.range(0));
  World w = MakeWorld(0);
  for (int i = 0; i < indexes; ++i) {
    OfflineIndexBuilder builder(w.engine.get());
    IndexId id;
    BuildParams p = KeyIndexParams(w.table, "i" + std::to_string(i));
    if (!builder.Build(p, &id).ok()) std::abort();
  }
  Transaction* txn = w.engine->Begin();
  uint64_t i = 0;
  for (auto _ : state) {
    auto r = w.engine->records()->InsertRecord(
        txn, w.table, Schema::EncodeRecord({Key8(i++), "payload"}));
    benchmark::DoNotOptimize(r.ok());
    if ((i & 1023) == 0) {
      (void)w.engine->Commit(txn);
      txn = w.engine->Begin();
    }
  }
  (void)w.engine->Commit(txn);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordInsertWithIndexes)->Arg(0)->Arg(1)->Arg(3);

void BM_SideFileAppend(benchmark::State& state) {
  World w = MakeWorld(0);
  SideFile sf(99, w.engine->pool(), w.engine->txns());
  if (!sf.Create().ok()) std::abort();
  Transaction* txn = w.engine->Begin();
  uint64_t i = 0;
  for (auto _ : state) {
    auto s = sf.Append(txn, SideFileOp::kInsertKey, Key8(i++), Rid(1, 0));
    benchmark::DoNotOptimize(s.ok());
  }
  (void)w.engine->Commit(txn);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SideFileAppend);

void BM_HashProbeHit(benchmark::State& state) {
  HashIndex hash(/*index_id=*/1, /*shards=*/0);
  hash.set_readable(true);
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    hash.OnLeafInsert(Key8(i), Rid(static_cast<PageId>(i + 1), 0), 0);
  }
  Random rng(3);
  for (auto _ : state) {
    Rid rid;
    auto p = hash.Probe(Key8(rng.Uniform(n)), &rid);
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashProbeHit);

void BM_HashProbeMiss(benchmark::State& state) {
  HashIndex hash(/*index_id=*/1, /*shards=*/0);
  hash.set_readable(true);
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    hash.OnLeafInsert(Key8(i), Rid(static_cast<PageId>(i + 1), 0), 0);
  }
  Random rng(4);
  for (auto _ : state) {
    Rid rid;
    auto p = hash.Probe(Key8(n + rng.Uniform(n)), &rid);
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashProbeMiss);

void BM_BtreeFindKeyValue(benchmark::State& state) {
  // The tree-descent side of the point-read comparison: same call the
  // read path falls back to when the hash misses.
  World w = MakeWorld(0);
  auto desc = w.engine->catalog()->CreateIndex("i", w.table, false, {0},
                                               BuildAlgo::kOffline);
  BTree* tree = w.engine->catalog()->index(desc->id);
  Transaction* txn = w.engine->Begin();
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    (void)tree->Insert(txn, Key8(i), Rid(i, 0));
  }
  (void)w.engine->Commit(txn);
  Random rng(5);
  for (auto _ : state) {
    auto r = tree->FindKeyValue(Key8(rng.Uniform(n)));
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BtreeFindKeyValue);

void BM_LockAcquireRelease(benchmark::State& state) {
  LockManager lm;
  uint64_t i = 0;
  for (auto _ : state) {
    LockId id = (i++ % 4096) + 1;
    benchmark::DoNotOptimize(lm.Lock(1, id, LockMode::kX).ok());
    lm.Unlock(1, id);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LockAcquireRelease);

// Point-lookup comparison emitted to BENCH_micro.json: hash probe vs
// B+-tree descent (hit and miss paths), plus the end-to-end
// ReadRecordByKey cost with the fast path on vs off.  Runs after the
// google-benchmark cases so the smoke job can validate the report.
void WritePointLookupReport() {
  const uint64_t n = BenchRows(100000);
  const uint64_t lookups = std::min<uint64_t>(200000, n * 10);
  BenchReport report("micro");
  std::printf("\npoint-lookup comparison (%llu rows, %llu lookups):\n",
              (unsigned long long)n, (unsigned long long)lookups);

  // Pre-normalized present/absent key sets, visited in random order.
  Random rng(11);
  std::vector<std::string> hit_keys(lookups), miss_keys(lookups);
  for (uint64_t i = 0; i < lookups; ++i) {
    keyenc::AppendStringColumn(&hit_keys[i],
                               Workload::MakeKey(rng.Uniform(n), 12));
    keyenc::AppendStringColumn(&miss_keys[i],
                               Workload::MakeKey(n + rng.Uniform(n), 12));
  }

  auto add_row = [&report](const char* label, double ms, uint64_t ops,
                           std::vector<std::pair<std::string, double>>
                               extra = {}) {
    double ns_per_op = 1e6 * ms / static_cast<double>(ops);
    std::printf("  %-24s %10.1f ns/op\n", label, ns_per_op);
    extra.insert(extra.begin(), {{"ns_per_op", ns_per_op},
                                 {"lookups", static_cast<double>(ops)}});
    report.AddRow(label, std::move(extra));
  };

  for (bool with_hash : {true, false}) {
    Options options = DefaultBenchOptions();
    options.enable_hash_index = with_hash;
    World w = MakeWorld(n, options);
    OfflineIndexBuilder builder(w.engine.get());
    IndexId idx = kInvalidIndexId;
    if (!builder.Build(KeyIndexParams(w.table, "i"), &idx).ok()) {
      std::abort();
    }
    if (with_hash) {
      // Raw structure cost: hash probe vs the descent it replaces.
      HashIndex* hash = w.engine->catalog()->hash_index(idx);
      BTree* tree = w.engine->catalog()->index(idx);
      Rid rid;
      double t0 = NowMs();
      for (const std::string& k : hit_keys) {
        benchmark::DoNotOptimize(hash->Probe(k, &rid));
      }
      add_row("hash_probe_hit", NowMs() - t0, lookups);
      t0 = NowMs();
      for (const std::string& k : miss_keys) {
        benchmark::DoNotOptimize(hash->Probe(k, &rid));
      }
      add_row("hash_probe_miss", NowMs() - t0, lookups);
      t0 = NowMs();
      for (const std::string& k : hit_keys) {
        benchmark::DoNotOptimize(tree->FindKeyValue(k).ok());
      }
      add_row("tree_descend_hit", NowMs() - t0, lookups);
      t0 = NowMs();
      for (const std::string& k : miss_keys) {
        benchmark::DoNotOptimize(tree->FindKeyValue(k).ok());
      }
      add_row("tree_descend_miss", NowMs() - t0, lookups);
    }
    // End-to-end point read (locking + heap fetch included).
    Transaction* txn = w.engine->Begin();
    double t0 = NowMs();
    for (uint64_t i = 0; i < lookups; ++i) {
      auto r = w.engine->records()->ReadRecordByKey(txn, w.table, idx,
                                                    hit_keys[i]);
      benchmark::DoNotOptimize(r.ok());
      if ((i & 4095) == 4095) {
        (void)w.engine->Commit(txn);
        txn = w.engine->Begin();
      }
    }
    const double read_ms = NowMs() - t0;
    (void)w.engine->Commit(txn);

    // Heap allocations per end-to-end point read and per update that
    // changes the indexed key, counted outside the timed loop.  Records
    // are encoded first so only the record operations are counted.
    const uint64_t counted = std::min<uint64_t>(lookups, 4096);
    std::vector<std::string> recs(counted);
    for (uint64_t i = 0; i < counted; ++i) {
      recs[i] = Workload::MakeRecord(Workload::MakeKey(2 * n + i, 12), 32,
                                     &rng);
    }
    uint64_t read_allocs = 0, update_allocs = 0;
    txn = w.engine->Begin();
    for (uint64_t i = 0; i < counted; ++i) {
      uint64_t a0 = g_allocations.load(std::memory_order_relaxed);
      auto r = w.engine->records()->ReadRecordByKey(txn, w.table, idx,
                                                    hit_keys[i]);
      read_allocs += g_allocations.load(std::memory_order_relaxed) - a0;
      benchmark::DoNotOptimize(r.ok());
    }
    for (uint64_t i = 0; i < counted; ++i) {
      uint64_t a0 = g_allocations.load(std::memory_order_relaxed);
      Status s = w.engine->records()->UpdateRecord(
          txn, w.table, w.rids[i % w.rids.size()], recs[i]);
      update_allocs += g_allocations.load(std::memory_order_relaxed) - a0;
      if (!s.ok()) std::abort();
    }
    (void)w.engine->Commit(txn);
    const double per_read =
        static_cast<double>(read_allocs) / static_cast<double>(counted);
    const double per_update =
        static_cast<double>(update_allocs) / static_cast<double>(counted);
    add_row(with_hash ? "read_by_key_hash_on" : "read_by_key_hash_off",
            read_ms, lookups,
            {{"allocs_per_point_read", per_read},
             {"allocs_per_update", per_update}});
    std::printf("  %-24s %10.2f allocs/read %6.2f allocs/update\n", "",
                per_read, per_update);
  }
  report.Write();
}

}  // namespace
}  // namespace bench
}  // namespace oib

int main(int argc, char** argv) {
  oib::bench::InitBenchObs(&argc, argv);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  oib::bench::WritePointLookupReport();
  return 0;
}
