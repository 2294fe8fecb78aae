#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

namespace perfbench {

namespace {

std::atomic<Tracer*> g_tracer{nullptr};
thread_local int t_current = -1;

double covered_length(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double end = -1.0;
  for (auto [lo, hi] : intervals) {
    lo = std::max(lo, end);
    if (hi > lo) {
      covered += hi - lo;
      end = hi;
    }
  }
  return covered;
}

// Self time of every span, by index.
std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<size_t>(s.parent)];
    const double lo = std::max(s.start_s, p.start_s);
    const double hi = std::min(s.end_s, p.end_s);
    if (hi > lo) children[static_cast<size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = (spans[i].end_s - spans[i].start_s) - covered_length(std::move(children[i]));
  }
  return self;
}

}  // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

int Tracer::begin(const char* name, const std::string& request, int parent) {
  const double now =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, request, now, now, parent});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int id) {
  const double now =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_s = now;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void set_tracer(Tracer* tracer) { g_tracer.store(tracer); }

ScopedSpan::ScopedSpan(const char* name, const std::string& request) {
  Tracer* tracer = g_tracer.load();
  if (tracer == nullptr) return;
  saved_parent_ = t_current;
  id_ = tracer->begin(name, request, t_current);
  t_current = id_;
}

ScopedSpan::~ScopedSpan() {
  if (id_ < 0) return;
  if (Tracer* tracer = g_tracer.load()) tracer->end(id_);
  t_current = saved_parent_;
}

AdoptParent::AdoptParent(int parent) : saved_parent_(t_current) { t_current = parent; }

AdoptParent::~AdoptParent() { t_current = saved_parent_; }

std::map<std::string, SpanTime> span_times(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, SpanTime> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTime& t = out[spans[i].name];
    t.total_s += spans[i].end_s - spans[i].start_s;
    t.self_s += self[i];
  }
  return out;
}

double uncovered_share(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  double wall = 0.0;
  double uncovered = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) continue;
    wall += spans[i].end_s - spans[i].start_s;
    uncovered += self[i];
  }
  return wall > 0.0 ? uncovered / wall : 0.0;
}

}  // namespace perfbench
