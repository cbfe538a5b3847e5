// The benchmark's own trace: spans around every public call the benchmark
// makes into the simulator, plus rows of layer counters read at slice
// boundaries. Everything stays in memory until write_chrome_json() at the
// end of the run, so recording costs one clock read and a vector append.
// This is unrelated to TestbedConfig::trace (the simulated requests' trace).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace simbench {

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  /// Recording starts disabled; set_recording(true) turns it on. The
  /// benchmark toggles it per operation to measure its own overhead.
  SpanLog() : origin_(Clock::now()) {}

  bool recording() const { return recording_; }
  void set_recording(bool on) { recording_ = on; }

  /// Opens a span under `parent` (0 = root) and returns its id, or 0 when
  /// not recording.
  std::uint32_t begin(const char* name, std::uint32_t parent = 0);
  void end(std::uint32_t id);

  /// Appends one row of named values under span `parent`. Names must be the
  /// same, in the same order, on every row of one `group`.
  void counters(const char* group, std::uint32_t parent,
                const std::vector<std::pair<std::string, double>>& values);

  std::size_t span_count() const { return spans_.size(); }
  std::size_t counter_rows() const { return rows_.size(); }

  /// Writes the log as a Chrome trace-event JSON document (open it in
  /// https://ui.perfetto.dev). `metadata_json` is copied verbatim as the
  /// "metadata" object. Returns false if the file could not be written.
  bool write_chrome_json(const std::string& path, const std::string& metadata_json) const;

 private:
  struct Span {
    const char* name;
    std::uint32_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  struct Row {
    const char* group;
    std::uint32_t parent;
    std::int64_t ts_ns;
    std::vector<std::pair<std::string, double>> values;
  };

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  bool recording_ = false;
  std::vector<Span> spans_;  ///< span id = index + 1
  std::vector<Row> rows_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::uint32_t parent = 0)
      : log_(log), id_(log.begin(name, parent)) {}
  ~ScopedSpan() { log_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::uint32_t id_;
};

}  // namespace simbench
