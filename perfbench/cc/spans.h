// Spans the benchmark records around its own calls into the engine.
//
// Only traced runs record: with tracing off, a Span costs one relaxed
// load.  Each thread appends to its own buffer; buffers are read after
// the recording threads have been joined.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

uint64_t NowNs();  // steady clock

struct SpanRec {
  const char* name = nullptr;  // string literal
  uint64_t txn = 0;            // client transaction id, 0 if none
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t tid = 0;
};

extern std::atomic<bool> g_tracing;

void RecordSpan(const char* name, uint64_t txn, uint64_t start_ns,
                uint64_t end_ns);

class Span {
 public:
  Span(const char* name, uint64_t txn = 0)
      : name_(name),
        txn_(txn),
        start_(g_tracing.load(std::memory_order_relaxed) ? NowNs() : 0) {}
  ~Span() {
    if (start_ != 0) RecordSpan(name_, txn_, start_, NowNs());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  uint64_t txn_;
  uint64_t start_;  // 0 when tracing is off
};

// Every span recorded so far, all threads; clears the buffers.
std::vector<SpanRec> TakeSpans();

struct SpanAggregate {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;  // duration minus the part child spans cover
};

// Per-name totals.  A span's children are the spans of the same thread
// that start and end inside it.
std::map<std::string, SpanAggregate> AggregateSpans(
    const std::vector<SpanRec>& spans);

// Chrome trace_event JSON ("X" events, microsecond timestamps).
bool WriteChromeTrace(const std::string& path,
                      const std::vector<SpanRec>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
