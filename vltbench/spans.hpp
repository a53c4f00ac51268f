// In-memory host-time spans for vltbench's traced run. Spans are recorded
// around the benchmark's own calls into each vltsim layer, kept in
// memory, and written out (Chrome trace_event JSON) when the run ends.
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"

namespace vltbench {

struct Span {
  const char* name = "";
  int parent = -1;  // index of the enclosing span, -1 for a root
  int cell = -1;    // shared by every span of one cell run, -1 outside one
  unsigned tid = 0;
  double start_us = 0.0;
  double end_us = 0.0;

  double dur_us() const { return end_us - start_us; }
};

class Tracer {
 public:
  /// Starts a span now and returns its id. Thread-safe.
  int open(const char* name, int parent, int cell);
  /// Ends span `id` now. Thread-safe.
  void close(int id);
  /// A copy of the spans recorded so far. Call once every span is closed.
  std::vector<Span> spans() const;

 private:
  double now_us() const;

  const std::chrono::steady_clock::time_point t0_ =
      std::chrono::steady_clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;                   // guarded by mu_
  std::map<std::thread::id, unsigned> tids_;  // guarded by mu_
};

/// RAII span; does nothing when the tracer is null (the untraced run).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, int parent, int cell)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->open(name, parent, cell) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Per-span-name totals over a set of spans.
struct LayerTime {
  std::size_t calls = 0;
  double total_us = 0.0;
  /// Duration minus the part of the span's interval its children cover.
  double self_us = 0.0;
};

std::map<std::string, LayerTime> layer_times(const std::vector<Span>& spans);

/// Chrome trace_event document ("ph": "X" complete events, microsecond
/// timestamps), the viewer format vltsim_run --trace also writes. Each
/// event carries its span id, parent and cell id under "args".
vlt::Json to_chrome_json(const std::vector<Span>& spans);

}  // namespace vltbench
