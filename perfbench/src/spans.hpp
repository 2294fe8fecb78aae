// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded by the benchmark's own code around calls into each
// fgpu module's public functions (nothing inside the library is
// instrumented). A span's name is "<layer>.<operation>", where the layer is
// the src/ module the call enters ("vortex.launch", "codegen.compile"); the
// two phase roots are "phase.setup" and "phase.run". With no tracer
// installed every ScopedSpan is a no-op, which is how the untraced runs that
// produce the end-to-end metrics execute.
#pragma once

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;     // "<layer>.<operation>"
  std::string request;  // request id: workload, benchmark or config, tier
  double start_s = 0.0;  // since the tracer was created
  double end_s = 0.0;
  int parent = -1;  // index of the enclosing span; -1 for a phase root
};

class Tracer {
 public:
  Tracer();

  // Thread-safe: the cycle-exact DSE stage records from worker threads.
  int begin(const char* name, const std::string& request, int parent);
  void end(int id);
  std::vector<Span> spans() const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Installs the process's active tracer (nullptr = untraced).
void set_tracer(Tracer* tracer);

// A span on the calling thread, nested under the thread's current span.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const std::string& request);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  int id_ = -1;
  int saved_parent_ = -1;
};

// Makes `parent` the calling thread's current span for the object's
// lifetime, so a worker thread's spans nest under the stage that spawned it.
class AdoptParent {
 public:
  explicit AdoptParent(int parent);
  ~AdoptParent();
  AdoptParent(const AdoptParent&) = delete;
  AdoptParent& operator=(const AdoptParent&) = delete;

 private:
  int saved_parent_ = -1;
};

struct SpanTime {
  double total_s = 0.0;  // summed span durations
  double self_s = 0.0;   // summed durations minus the time children cover
};

// Per span name. A span's self time is its duration minus the length of
// the union of its children's intervals, clipped to the span (children on
// other threads may overlap each other).
std::map<std::string, SpanTime> span_times(const std::vector<Span>& spans);

// Share of the phase roots' wall time that no child span covers.
double uncovered_share(const std::vector<Span>& spans);

}  // namespace perfbench
