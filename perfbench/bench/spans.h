// In-memory span log of the benchmark's traced pass.
//
// Spans are recorded only from the benchmark's own code, around its calls
// into the library's public functions. Each holds a name, start, end, the
// span that caused it and the session it belongs to. Nothing is written
// until the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

struct SpanRecord {
  const char* name = "";  // static string
  std::uint32_t parent = kNoParent;
  std::uint64_t session = 0;
  double start_us = 0;  // since the recorder was created
  double end_us = 0;
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  // Opens a span and returns its id.
  std::uint32_t open(const char* name, std::uint64_t session,
                     std::uint32_t parent = kNoParent);
  // Closes span `id` and returns its duration in microseconds.
  double close(std::uint32_t id);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  // A span's duration minus the part of its interval its children cover.
  std::vector<double> self_us() const;

  // Chrome trace-event JSON ("X" complete events, microsecond clock).
  std::string chrome_trace_json() const;

 private:
  double now_us() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<SpanRecord> spans_;
};

}  // namespace perfbench
