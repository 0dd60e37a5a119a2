#pragma once
// pf::trace — low-overhead structured span tracing.
//
// Each thread that records events owns a fixed-capacity ring buffer; writes
// are lock-free (owner-thread only, release-published head index). A global
// registry drains all rings into one merged timeline that can be exported as
// chrome://tracing JSON ("X" complete events) or summarised as an ASCII flame
// table. The tracer is off by default; when off, PF_TRACE_SCOPE costs one
// relaxed atomic load + branch, so instrumented hot paths stay effectively
// free (measured in bench/bench_trace.cc, recorded in EXPERIMENTS.md).
//
// Enabling: export PF_TRACE=1 (anything but "0"/empty), or call
// trace::set_enabled(true), or set VisionTrainConfig::trace_path /
// serve::FleetConfig::trace_path which enable for the run and export on exit.
//
// drain()/reset() must be called at quiesce points (no concurrent Scope
// writers mid-span); all call sites in the repo drain after joins.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pf::trace {

// Capacity (events) of each per-thread ring. Oldest events are overwritten
// once a thread records more than this between drains; see dropped().
inline constexpr std::size_t kRingCapacity = 32768;

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

// Cheap global switch. Relaxed: flipping it mid-span is allowed and merely
// starts/stops recording; it never affects computed results.
inline bool enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on);

// One completed span. Timestamps are steady-clock nanoseconds relative to a
// process-wide anchor (first use), so they are comparable across threads.
struct Event {
  const char* name;   // static string supplied at the call site
  std::uint64_t begin_ns;
  std::uint64_t end_ns;
  int tid;            // small sequential id in registration order
  int depth;          // nesting depth on the recording thread at begin
  std::int64_t counter;  // optional payload (batch size, flops, ...); -1 = none
};

// Nanoseconds since the process trace anchor (steady clock).
std::uint64_t now_ns();
// Convert an externally captured steady_clock time point (e.g. a request's
// submit time) into trace nanoseconds.
std::uint64_t to_trace_ns(std::chrono::steady_clock::time_point tp);

// Record an externally timed span on the calling thread's ring.
// No-op when tracing is disabled.
void emit(const char* name, std::uint64_t begin_ns, std::uint64_t end_ns,
          std::int64_t counter = -1);

// RAII span. Construction samples the clock only when tracing is enabled;
// destruction records the event into the calling thread's ring buffer.
class Scope {
 public:
  explicit Scope(const char* name, std::int64_t counter = -1) {
    if (enabled()) begin(name, counter);
  }
  ~Scope() {
    if (active_) end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  void begin(const char* name, std::int64_t counter);  // out of line; sets active_
  void end();

  const char* name_ = nullptr;
  std::uint64_t begin_ns_ = 0;
  std::int64_t counter_ = -1;
  bool active_ = false;
};

// Merge every thread's buffered events into one timeline sorted by begin time
// (ties broken by tid, then depth so parents precede children) and clear the
// rings. Call at a quiesce point.
std::vector<Event> drain();

// Discard all buffered events and zero the dropped counter.
void reset();

// Cumulative count of events overwritten before they could be drained
// (ring wraparound), since process start or the last reset().
std::uint64_t dropped();

// chrome://tracing JSON (trace-event format, "X" complete events, ts/dur in
// microseconds). Load via chrome://tracing or https://ui.perfetto.dev.
std::string to_chrome_json(const std::vector<Event>& events);

// Appends `s` to `out` with JSON string escaping ("\ and control chars).
// Shared by the chrome JSON writer above and bench --json reports.
void json_escape(std::string& out, const char* s);

// drain() + write JSON to `path`. Returns false on I/O failure.
bool write_chrome_json(const std::string& path);

// Aggregated per-name totals for the flame summary.
struct FlameRow {
  std::string name;
  std::uint64_t count = 0;
  double total_ms = 0.0;  // sum of span durations
  double self_ms = 0.0;   // total minus time in same-thread nested children
  // Sum of non-negative counter payloads across this name's spans, and the
  // achieved GFLOP/s it implies (2 * counter / total time) when the name is
  // a known GEMM-family span whose counter counts multiply-adds; 0 when not.
  std::int64_t counter_sum = 0;
  double gflops = 0.0;
};

// True for span names whose counter payload is a multiply-add count
// ("matmul", "bmm_nt", "gemm", "lowrank", ...), i.e. the spans for which
// FlameRow::gflops is meaningful. The backend executing those kernels is
// pf::kernels::backend_name().
bool is_gemm_span(const char* name);

// Aggregate events by span name, sorted by self time descending.
std::vector<FlameRow> aggregate(const std::vector<Event>& events);

// ASCII flame table (horizontal bars over self time) rendered with
// metrics::render_bars. `width` is the bar width in characters.
std::string flame_summary(const std::vector<Event>& events, int width = 48);

}  // namespace pf::trace

#define PF_TRACE_CONCAT_INNER(a, b) a##b
#define PF_TRACE_CONCAT(a, b) PF_TRACE_CONCAT_INNER(a, b)
// Scoped span covering the rest of the enclosing block.
#define PF_TRACE_SCOPE(name) \
  ::pf::trace::Scope PF_TRACE_CONCAT(pf_trace_scope_, __LINE__)(name)
// Same, with an int64 counter payload shown in chrome://tracing args.
#define PF_TRACE_SCOPE_C(name, counter) \
  ::pf::trace::Scope PF_TRACE_CONCAT(pf_trace_scope_, __LINE__)((name), (counter))
