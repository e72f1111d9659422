#include "core/build_pipeline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <string>
#include <thread>

#include "common/coding.h"
#include "common/failpoint.h"
#include "common/sync.h"
#include "core/schema.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace oib {

std::string EncodeScanPlan(const ScanPlan& plan) {
  std::string out;
  PutFixed32(&out, plan.stop_page);
  PutFixed32(&out, static_cast<uint32_t>(plan.parts.size()));
  for (const ScanPartition& part : plan.parts) {
    PutFixed32(&out, part.next);
    PutFixed32(&out, part.bound);
    PutFixed32(&out, static_cast<uint32_t>(part.sorter_blobs.size()));
    for (const std::string& b : part.sorter_blobs) PutLengthPrefixed(&out, b);
  }
  return out;
}

Status DecodeScanPlan(const std::string& blob, ScanPlan* plan) {
  BufferReader r(blob);
  uint32_t parts;
  if (!r.GetFixed32(&plan->stop_page) || !r.GetFixed32(&parts)) {
    return Status::Corruption("scan plan header");
  }
  plan->parts.clear();
  for (uint32_t k = 0; k < parts; ++k) {
    ScanPartition part;
    uint32_t blobs;
    if (!r.GetFixed32(&part.next) || !r.GetFixed32(&part.bound) ||
        !r.GetFixed32(&blobs)) {
      return Status::Corruption("scan plan partition");
    }
    for (uint32_t i = 0; i < blobs; ++i) {
      std::string b;
      if (!r.GetLengthPrefixed(&b)) {
        return Status::Corruption("scan plan sorter blob");
      }
      part.sorter_blobs.push_back(std::move(b));
    }
    plan->parts.push_back(std::move(part));
  }
  return Status::OK();
}

StatusOr<ScanPlan> PlanPartitionedScan(const HeapFile* heap, PageId stop_page,
                                       size_t threads) {
  auto pages = heap->ChainPages(stop_page);
  if (!pages.ok()) return pages.status();
  ScanPlan plan;
  plan.stop_page = stop_page;
  const size_t n = pages->size();
  if (n == 0) {
    ScanPartition part;
    part.next = heap->first_page();
    plan.parts.push_back(std::move(part));
    return plan;
  }
  const size_t count = std::max<size_t>(1, std::min(threads, n));
  for (size_t k = 0; k < count; ++k) {
    ScanPartition part;
    part.next = (*pages)[n * k / count];
    part.bound =
        (k + 1 < count) ? (*pages)[n * (k + 1) / count] : kInvalidPageId;
    plan.parts.push_back(std::move(part));
  }
  return plan;
}

Status BuildPipeline::RunScan(const HeapFile* heap, obs::Tracer* tracer,
                              const std::vector<ScanTarget>& targets,
                              ScanPlan* plan, const ScanHooks& hooks,
                              size_t checkpoint_every_keys,
                              ScanResult* result) {
  const size_t parts = plan->parts.size();
  if (parts == 0) return Status::InvalidArgument("empty scan plan");
  for (const ScanTarget& t : targets) {
    OIB_RETURN_IF_ERROR(t.sorter->CreateWriters(parts));
  }
  for (size_t k = 0; k < parts; ++k) {
    const ScanPartition& part = plan->parts[k];
    if (part.sorter_blobs.empty()) continue;
    if (part.sorter_blobs.size() != targets.size()) {
      return Status::Corruption("scan plan writer blobs mismatch");
    }
    for (size_t ti = 0; ti < targets.size(); ++ti) {
      OIB_RETURN_IF_ERROR(
          targets[ti].sorter->writer(k)->Resume(part.sorter_blobs[ti]));
    }
  }

  // Guards *plan and serializes hooks.checkpoint.  Lowest rank in the
  // lattice: the checkpoint hook flushes the WAL and writes catalog meta
  // pages, so the WAL flush mutex and page latches all nest under it.
  sync::Mutex plan_mu{sync::LockRank::kBuildPlan, "buildpipeline.plan_mu"};
  std::atomic<bool> stop{false};
  std::vector<Status> worker_status(parts, Status::OK());
  std::vector<uint64_t> keys(parts, 0), pages(parts, 0), ckpts(parts, 0);
  std::vector<double> busy(parts, 0.0);
  // Only the single unbounded (final) partition's worker writes this.
  PageId tail_last = kInvalidPageId;

  auto work = [&](size_t k) -> Status {
    const char* span_name = "build.scan";
    if (hooks.span_names != nullptr && hooks.span_name_count > 0) {
      span_name = hooks.span_names[std::min(k, hooks.span_name_count - 1)];
    }
    obs::ScopedSpan span(tracer, span_name);
    auto t0 = std::chrono::steady_clock::now();
    PageId next, bound;
    {
      sync::MutexLock g(&plan_mu);
      next = plan->parts[k].next;
      bound = plan->parts[k].bound;
    }
    const PageId stop_page = plan->stop_page;  // never mutated
    uint64_t keys_since_ckpt = 0;
    std::vector<std::pair<Rid, std::string>> recs;
    std::string key_buf;  // normalized-key scratch, reused per record
    Status status;
    while (next != kInvalidPageId && !stop.load(std::memory_order_relaxed)) {
      if (hooks.failpoint != nullptr &&
          FailPointRegistry::Instance().Check(hooks.failpoint)) {
        status = Status::Injected(hooks.failpoint);
        break;
      }
      recs.clear();
      const PageId page = next;
      auto got = heap->ExtractPage(
          page, &recs,
          hooks.page_scanned
              ? std::function<void()>([&] { hooks.page_scanned(page); })
              : std::function<void()>{});
      if (!got.ok()) {
        status = got.status();
        break;
      }
      for (auto& [rid, rec] : recs) {
        for (size_t ti = 0; ti < targets.size() && status.ok(); ++ti) {
          status = Schema::ExtractKeyTo(rec, targets[ti].key_cols,
                                        targets[ti].key_types, &key_buf);
          if (status.ok()) {
            status = targets[ti].sorter->writer(k)->Add(key_buf, rid);
          }
        }
        if (!status.ok()) break;
        ++keys[k];
        ++keys_since_ckpt;
      }
      if (!status.ok()) break;
      if (hooks.keys_progress && !recs.empty()) {
        hooks.keys_progress(recs.size());
      }
      ++pages[k];
      if (bound == kInvalidPageId) tail_last = page;
      const bool done =
          (stop_page != kInvalidPageId && page == stop_page) ||
          *got == kInvalidPageId ||
          (bound != kInvalidPageId && *got >= bound);
      next = done ? kInvalidPageId : *got;

      if (checkpoint_every_keys > 0 && hooks.checkpoint &&
          keys_since_ckpt >= checkpoint_every_keys &&
          next != kInvalidPageId) {
        // Per-partition §5.1 checkpoint: this worker's writer state + scan
        // position land in its plan slot; the whole plan (other slots at
        // their last self-consistent checkpoint) is persisted.
        std::vector<std::string> blobs;
        blobs.reserve(targets.size());
        for (size_t ti = 0; ti < targets.size() && status.ok(); ++ti) {
          auto b = targets[ti].sorter->writer(k)->Checkpoint();
          if (!b.ok()) {
            status = b.status();
          } else {
            blobs.push_back(std::move(*b));
          }
        }
        if (!status.ok()) break;
        sync::MutexLock g(&plan_mu);
        plan->parts[k].next = next;
        plan->parts[k].sorter_blobs = std::move(blobs);
        status = hooks.checkpoint(EncodeScanPlan(*plan));
        if (!status.ok()) break;
        ++ckpts[k];
        keys_since_ckpt = 0;
      }
    }
    busy[k] = MsSince(t0);
    return status;
  };

  if (parts == 1) {
    worker_status[0] = work(0);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(parts);
    for (size_t k = 0; k < parts; ++k) {
      workers.emplace_back([&, k] {
        obs::SetCurrentThreadName("build.scan." + std::to_string(k));
        worker_status[k] = work(k);
        if (!worker_status[k].ok()) {
          stop.store(true, std::memory_order_relaxed);
        }
      });
    }
    for (auto& t : workers) t.join();
  }

  Status first = Status::OK();
  for (size_t k = 0; k < parts; ++k) {
    if (first.ok() && !worker_status[k].ok()) first = worker_status[k];
    result->keys_extracted += keys[k];
    result->pages_scanned += pages[k];
    result->checkpoints += ckpts[k];
    result->busy_ms += busy[k];
  }
  result->tail_last_scanned = tail_last;
  return first;
}

Status BuildPipeline::MergeToConsumer(
    MergeCursor* cursor, size_t batch_keys, size_t queue_depth,
    bool overlapped, const std::function<Status(const Batch&)>& consume,
    MergeStats* stats) {
  if (batch_keys == 0) batch_keys = 1;
  MergeStats local;

  // Pulls up to batch_keys items; false when the stream is exhausted and
  // nothing was pulled.  The counters snapshot identifies the position
  // *after* the batch (§5.2), i.e. the consumer's checkpoint.
  auto fill = [&](Batch* b) -> StatusOr<bool> {
    // Per-batch span on the filling thread's track: in overlapped mode
    // the Perfetto view shows build.merge (producer) and build.consume
    // (loader) interleaving instead of alternating.
    obs::ScopedSpan span(&obs::Tracer::Default(), "build.merge");
    auto t0 = std::chrono::steady_clock::now();
    b->items.clear();
    b->items.reserve(batch_keys);
    SortItem item;
    while (b->items.size() < batch_keys) {
      auto more = cursor->Next(&item);
      if (!more.ok()) return more.status();
      if (!*more) break;
      b->items.push_back(std::move(item));
    }
    b->counters = cursor->counters();
    local.merge_busy_ms += MsSince(t0);
    span.set_arg(b->items.size());
    return !b->items.empty();
  };

  Status status;
  if (!overlapped || queue_depth == 0) {
    for (;;) {
      Batch b;
      auto more = fill(&b);
      if (!more.ok()) {
        status = more.status();
        break;
      }
      if (!*more) break;
      auto t0 = std::chrono::steady_clock::now();
      {
        obs::ScopedSpan span(&obs::Tracer::Default(), "build.consume",
                             b.items.size());
        status = consume(b);
      }
      local.consume_busy_ms += MsSince(t0);
      if (!status.ok()) break;
      if (b.items.size() < batch_keys) break;  // stream ended mid-batch
    }
  } else {
    obs::Gauge* depth_gauge =
        obs::MetricsRegistry::Default().GetGauge("build.merge_queued");
    // The consumer drains batches under page latches' *callers* — but
    // consume() always runs with mu released, so the queue mutex leads a
    // leaf-free life; rank kMergeQueue only orders it against the plan
    // mutex held by no one here.
    sync::Mutex mu{sync::LockRank::kMergeQueue, "buildpipeline.merge_queue.mu"};
    sync::CondVar can_push, can_pop;
    std::deque<Batch> queue;
    bool produced_all = false;
    bool abort = false;
    Status producer_status;

    std::thread producer([&] {
      obs::SetCurrentThreadName("build.merge");
      for (;;) {
        Batch b;
        auto more = fill(&b);
        sync::MutexLock lk(&mu);
        if (!more.ok() || !*more) {
          if (!more.ok()) producer_status = more.status();
          produced_all = true;
          can_pop.NotifyAll();
          return;
        }
        const bool last = b.items.size() < batch_keys;
        can_push.Wait(mu, [&] { return queue.size() < queue_depth || abort; });
        if (abort) return;
        queue.push_back(std::move(b));
        depth_gauge->Set(static_cast<int64_t>(queue.size()));
        can_pop.NotifyAll();
        if (last) {
          produced_all = true;
          return;
        }
      }
    });

    for (;;) {
      Batch b;
      {
        sync::MutexLock lk(&mu);
        can_pop.Wait(mu, [&] { return !queue.empty() || produced_all; });
        if (queue.empty()) {
          status = producer_status;
          break;
        }
        b = std::move(queue.front());
        queue.pop_front();
        depth_gauge->Set(static_cast<int64_t>(queue.size()));
        can_push.NotifyAll();
      }
      auto t0 = std::chrono::steady_clock::now();
      {
        obs::ScopedSpan span(&obs::Tracer::Default(), "build.consume",
                             b.items.size());
        status = consume(b);
      }
      local.consume_busy_ms += MsSince(t0);
      if (!status.ok()) break;
    }
    {
      sync::MutexLock lk(&mu);
      abort = true;
    }
    can_push.NotifyAll();
    producer.join();
    depth_gauge->Set(0);
  }

  if (stats != nullptr) {
    stats->merge_busy_ms += local.merge_busy_ms;
    stats->consume_busy_ms += local.consume_busy_ms;
  }
  return status;
}

}  // namespace oib
