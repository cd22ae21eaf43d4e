// Wall-clock spans the benchmark records around its own calls into the
// library (setup steps, run slices, observability merge, teardown). Kept
// in memory and written out once at the end of a traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  static constexpr std::uint32_t kNoParent = 0;

  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = kNoParent;
    std::string name;
    std::int64_t start_ns = 0;  ///< since the log was created
    std::int64_t end_ns = -1;   ///< -1 while open
  };

  SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

  std::uint32_t begin(std::string name, std::uint32_t parent = kNoParent) {
    const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
    spans_.push_back(Span{id, parent, std::move(name), now_ns(), -1});
    return id;
  }
  void end(std::uint32_t id) { spans_[id - 1].end_ns = now_ns(); }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::size_t open_spans() const {
    std::size_t n = 0;
    for (const Span& s : spans_) n += s.end_ns < 0 ? 1 : 0;
    return n;
  }

  /// {"spans": [{"id", "parent", "name", "start_ns", "end_ns"}, ...]}
  [[nodiscard]] std::string to_json() const {
    std::string out = "{\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out += i == 0 ? "\n" : ",\n";
      out += "  {\"id\": " + std::to_string(s.id) +
             ", \"parent\": " + std::to_string(s.parent) + ", \"name\": \"" +
             s.name + "\", \"start_ns\": " + std::to_string(s.start_ns) +
             ", \"end_ns\": " + std::to_string(s.end_ns) + "}";
    }
    out += "\n]}\n";
    return out;
  }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// RAII span: begins on construction, ends on destruction. A null log makes
/// it a no-op, so measured runs pay nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name,
             std::uint32_t parent = SpanLog::kNoParent)
      : log_(log), id_(log ? log->begin(std::move(name), parent) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::uint32_t id_;
};

}  // namespace perfbench
