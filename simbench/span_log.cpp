#include "span_log.h"

#include <cmath>
#include <cstdio>
#include <fstream>

namespace simbench {

std::uint32_t SpanLog::begin(const char* name, std::uint32_t parent) {
  if (!recording_) return 0;
  const std::int64_t now = now_ns();
  spans_.push_back(Span{name, parent, now, now});
  return static_cast<std::uint32_t>(spans_.size());
}

void SpanLog::end(std::uint32_t id) {
  if (id == 0) return;
  spans_[id - 1].end_ns = now_ns();
}

void SpanLog::counters(const char* group, std::uint32_t parent,
                       const std::vector<std::pair<std::string, double>>& values) {
  if (!recording_) return;
  rows_.push_back(Row{group, parent, now_ns(), values});
}

namespace {

void put_us(std::ostream& out, std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1000.0);
  out << buf;
}

void put_number(std::ostream& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  out << buf;
}

}  // namespace

bool SpanLog::write_chrome_json(const std::string& path,
                                const std::string& metadata_json) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"metadata\":" << metadata_json
      << ",\"traceEvents\":[\n";
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":";
    put_us(out, s.start_ns);
    out << ",\"dur\":";
    put_us(out, s.end_ns - s.start_ns);
    out << ",\"args\":{\"id\":" << i + 1 << ",\"parent\":" << s.parent << "}}";
  }
  for (const Row& r : rows_) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":\"" << r.group << "\",\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":";
    put_us(out, r.ts_ns);
    out << ",\"args\":{\"parent\":" << r.parent;
    for (const auto& [name, value] : r.values) {
      out << ",\"" << name << "\":";
      put_number(out, value);
    }
    out << "}}";
  }
  out << "\n]}\n";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace simbench
