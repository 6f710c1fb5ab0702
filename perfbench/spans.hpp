#pragma once
/// \file spans.hpp
/// \brief In-memory span recorder for the traced benchmark run.
///
/// A span has a name, a start and end (seconds since the recorder was
/// created, steady clock), the id of the span that caused it and the id
/// of the check it belongs to. Spans stay in memory while the benchmark
/// runs; write_json() emits them as Chrome trace events ("ph":"X") once
/// it ends. Derived spans (durations a layer reports about itself, such
/// as the engine's phase seconds) are recorded with add() and marked so.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
    int check = -1;
    bool derived = false;
    double seconds() const { return end - start; }
  };

  /// Opens a span; returns its id for end() and for children's `parent`.
  int begin(std::string name, int parent, int check) {
    spans_.push_back({std::move(name), now(), 0, parent, check, false});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].end = now(); }

  /// Records an already-measured interval: a span timed elsewhere, or by
  /// default a derived one (a duration a layer reports about itself).
  int add(std::string name, double start, double end, int parent, int check,
          bool derived = true) {
    spans_.push_back({std::move(name), start, end, parent, check, derived});
    return static_cast<int>(spans_.size()) - 1;
  }

  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  const std::vector<Span>& spans() const { return spans_; }
  const Span& span(int id) const {
    return spans_[static_cast<std::size_t>(id)];
  }

  /// Duration of a span minus the part its direct, measured (not derived)
  /// children cover.
  double self_seconds(int id) const {
    double covered = 0;
    for (const Span& s : spans_)
      if (s.parent == id && !s.derived) covered += s.seconds();
    return span(id).seconds() - covered;
  }

  /// Summed duration of every span with this name.
  double total(const std::string& name) const {
    double sum = 0;
    for (const Span& s : spans_)
      if (s.name == name) sum += s.seconds();
    return sum;
  }

  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"check\":%d,\"derived\":%s}}",
                   i == 0 ? "" : ",", s.name.c_str(), s.start * 1e6,
                   s.seconds() * 1e6, i, s.parent, s.check,
                   s.derived ? "true" : "false");
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// RAII span: begin at construction, end at scope exit.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name, int parent, int check)
      : rec_(rec), id_(rec.begin(std::move(name), parent, check)) {}
  ~ScopedSpan() { rec_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanRecorder& rec_;
  int id_;
};

}  // namespace perfbench
