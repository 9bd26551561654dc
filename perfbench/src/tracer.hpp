// Spans recorded by the benchmark around its calls into the library, kept
// in memory and written out when the run ends. Single-threaded: only the
// harness's main thread records; a span timed on another thread is added
// with add() after that thread joined.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  /// Recording is off by default; a disabled tracer ignores every call.
  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span under the currently open one; returns its id (-1 when
  /// disabled).
  int begin(const std::string& name) {
    if (!enabled_) return -1;
    const double t = seconds(Clock::now());
    spans_.push_back({name, current_, t, t, 1, 0.0});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void end(int id) {
    if (id < 0) return;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_s = seconds(Clock::now());
    s.busy_s = s.end_s - s.start_s;
    current_ = s.parent;
  }

  /// Parent value for add(): the currently open span.
  static constexpr int kUnderCurrent = -2;

  /// A span measured elsewhere: `calls` calls between t0 and t1 that were
  /// busy for `busy_s` in total (default: the whole interval). Placed under
  /// the currently open span unless `parent` says otherwise (-1: a root, for
  /// work of another thread, added after that thread joined).
  int add(const std::string& name, Clock::time_point t0, Clock::time_point t1,
          std::uint64_t calls = 1, double busy_s = -1.0,
          int parent = kUnderCurrent) {
    if (!enabled_) return -1;
    spans_.push_back({name, parent == kUnderCurrent ? current_ : parent,
                      seconds(t0), seconds(t1), calls,
                      busy_s >= 0.0 ? busy_s : seconds(t1) - seconds(t0)});
    return static_cast<int>(spans_.size()) - 1;
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Writes every span as one JSON document (times in seconds from the
  /// tracer's creation). Returns false when the file cannot be written.
  bool write_json(const std::string& path, const std::string& context) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"context\": %s,\n \"spans\": [\n", context.c_str());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                   "\"start_s\": %.9f, \"end_s\": %.9f, \"calls\": %llu, "
                   "\"busy_s\": %.9f}%s\n",
                   i, s.name.c_str(), s.parent, s.start_s, s.end_s,
                   static_cast<unsigned long long>(s.calls), s.busy_s,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, " ]}\n");
    return std::fclose(f) == 0;
  }

 private:
  [[nodiscard]] double seconds(Clock::time_point t) const noexcept {
    return std::chrono::duration<double>(t - epoch_).count();
  }

  Clock::time_point epoch_;
  bool enabled_ = false;
  std::vector<Span> spans_;
  int current_ = -1;
};

/// Opens a span for the lifetime of the scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name)
      : tracer_(tracer), id_(tracer.begin(name)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace pb
