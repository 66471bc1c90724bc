#include "spans.h"

#include <algorithm>

#include "obs/json.h"

namespace perfbench {

double SpanRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::uint32_t SpanRecorder::open(const char* name, std::uint64_t session,
                                 std::uint32_t parent) {
  SpanRecord span;
  span.name = name;
  span.parent = parent;
  span.session = session;
  span.start_us = now_us();
  spans_.push_back(span);
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

double SpanRecorder::close(std::uint32_t id) {
  SpanRecord& span = spans_.at(id);
  span.end_us = now_us();
  return span.end_us - span.start_us;
}

std::vector<double> SpanRecorder::self_us() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_us - spans_[i].start_us;
  }
  // One thread records every span, so siblings never overlap and the
  // covered part is the sum of each child's overlap with its parent.
  for (const SpanRecord& child : spans_) {
    if (child.parent == kNoParent) continue;
    const SpanRecord& parent = spans_[child.parent];
    const double lo = std::max(child.start_us, parent.start_us);
    const double hi = std::min(child.end_us, parent.end_us);
    if (hi > lo) self[child.parent] -= hi - lo;
  }
  return self;
}

std::string SpanRecorder::chrome_trace_json() const {
  using setint::obs::Json;
  const std::vector<double> self = self_us();
  Json events = Json::array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    Json event = Json::object();
    event.set("name", span.name);
    event.set("ph", "X");
    event.set("ts", span.start_us);
    event.set("dur", span.end_us - span.start_us);
    event.set("pid", 1);
    event.set("tid", 1);
    Json args = Json::object();
    args.set("id", static_cast<std::uint64_t>(i));
    if (span.parent != kNoParent) {
      args.set("parent", static_cast<std::uint64_t>(span.parent));
    }
    args.set("session", span.session);
    args.set("self_us", self[i]);
    event.set("args", std::move(args));
    events.push_back(std::move(event));
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  return doc.dump();
}

}  // namespace perfbench
