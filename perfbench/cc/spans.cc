#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {

std::atomic<bool> g_tracing{false};

uint64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<std::vector<SpanRec>>> buffers;
};

Registry& Spans() {
  static Registry* r = new Registry();
  return *r;
}

struct ThreadBuffer {
  std::vector<SpanRec>* spans = nullptr;
  uint32_t tid = 0;
};

ThreadBuffer& Local() {
  thread_local ThreadBuffer local;
  if (local.spans == nullptr) {
    Registry& r = Spans();
    std::lock_guard<std::mutex> g(r.mu);
    r.buffers.push_back(std::make_unique<std::vector<SpanRec>>());
    local.spans = r.buffers.back().get();
    local.spans->reserve(1 << 16);
    local.tid = static_cast<uint32_t>(r.buffers.size());
  }
  return local;
}

}  // namespace

void RecordSpan(const char* name, uint64_t txn, uint64_t start_ns,
                uint64_t end_ns) {
  ThreadBuffer& b = Local();
  b.spans->push_back(SpanRec{name, txn, start_ns, end_ns, b.tid});
}

std::vector<SpanRec> TakeSpans() {
  Registry& r = Spans();
  std::lock_guard<std::mutex> g(r.mu);
  std::vector<SpanRec> out;
  for (auto& b : r.buffers) {
    out.insert(out.end(), b->begin(), b->end());
    b->clear();
  }
  return out;
}

std::map<std::string, SpanAggregate> AggregateSpans(
    const std::vector<SpanRec>& spans) {
  std::vector<SpanRec> sorted = spans;
  std::sort(sorted.begin(), sorted.end(),
            [](const SpanRec& a, const SpanRec& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.end_ns > b.end_ns;  // parents before children
            });
  std::vector<uint64_t> child_ns(sorted.size(), 0);
  std::vector<size_t> stack;  // indexes of the open ancestors
  for (size_t i = 0; i < sorted.size(); ++i) {
    const SpanRec& s = sorted[i];
    while (!stack.empty() &&
           (sorted[stack.back()].tid != s.tid ||
            sorted[stack.back()].end_ns <= s.start_ns)) {
      stack.pop_back();
    }
    if (!stack.empty() && s.end_ns <= sorted[stack.back()].end_ns) {
      child_ns[stack.back()] += s.end_ns - s.start_ns;
    }
    stack.push_back(i);
  }
  std::map<std::string, SpanAggregate> out;
  for (size_t i = 0; i < sorted.size(); ++i) {
    SpanAggregate& a = out[sorted[i].name];
    uint64_t d = sorted[i].end_ns - sorted[i].start_ns;
    a.count++;
    a.total_ns += d;
    a.self_ns += d > child_ns[i] ? d - child_ns[i] : 0;
  }
  return out;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<SpanRec>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t base = ~uint64_t{0};
  for (const SpanRec& s : spans) base = std::min(base, s.start_ns);
  std::fprintf(f, "{\"traceEvents\":[");
  bool first = true;
  for (const SpanRec& s : spans) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"txn\":%llu}}",
                 first ? "" : ",", s.name, s.tid,
                 (s.start_ns - base) / 1e3, (s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.txn));
    first = false;
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\"}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
