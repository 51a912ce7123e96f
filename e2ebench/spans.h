// In-memory span recorder for the traced benchmark run. Spans are taken
// only in the benchmark, around each call into a library layer; nothing
// inside libvdist is instrumented. A disabled recorder does no work, so
// the untraced run measures the bare layer calls.
#pragma once

#include <chrono>
#include <cstddef>
#include <fstream>
#include <iomanip>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

struct Span {
  const char* name = "";
  double start_us = 0.0;  // since the recorder was created
  double end_us = 0.0;
  int parent = -1;  // index into the span list; -1 for a root span
  int pass = 0;     // which timed pass (0 = set-up or probe)
};

// Totals of every span sharing one name.
struct SpanSummary {
  std::vector<double> ms;       // duration of each span
  std::vector<double> self_ms;  // duration minus direct children
};

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {
    // Growing the list inside a span would be charged to that span.
    if (enabled_) spans_.reserve(std::size_t{1} << 18);
  }

  void set_pass(int pass) noexcept { pass_ = pass; }

  // Opens a span under the innermost open one; -1 when disabled.
  int begin(const char* name) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, now_us(), 0.0, parent, pass_});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    open_.pop_back();
  }

  [[nodiscard]] std::map<std::string, SpanSummary> summarize() const {
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0)
        child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    std::map<std::string, SpanSummary> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const double us = spans_[i].end_us - spans_[i].start_us;
      SpanSummary& sum = out[spans_[i].name];
      sum.ms.push_back(us / 1000.0);
      sum.self_ms.push_back((us - child_us[i]) / 1000.0);
    }
    return out;
  }

  // Writes every span as one JSON array (name, start, end, parent, pass).
  void write_json(const std::string& path) const {
    std::ofstream out(path);
    out << std::fixed << std::setprecision(3) << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_us\":" << s.start_us << ",\"end_us\":" << s.end_us
          << ",\"parent\":" << s.parent << ",\"pass\":" << s.pass << "}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
  }

 private:
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  bool enabled_;
  int pass_ = 0;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Scoped span: begin on construction, end on destruction.
class SpanScope {
 public:
  SpanScope(SpanRecorder& rec, const char* name)
      : rec_(rec), id_(rec.begin(name)) {}
  ~SpanScope() { rec_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder& rec_;
  int id_;
};

}  // namespace e2ebench
