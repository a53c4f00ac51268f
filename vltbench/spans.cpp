#include "spans.hpp"

#include <algorithm>
#include <utility>

namespace vltbench {

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0_)
      .count();
}

int Tracer::open(const char* name, int parent, int cell) {
  const double start = now_us();
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = tids_.emplace(
      std::this_thread::get_id(), static_cast<unsigned>(tids_.size()));
  spans_.push_back({name, parent, cell, it->second, start, start});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::close(int id) {
  const double end = now_us();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_us = end;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, LayerTime> layer_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_us,
                                                                s.end_us);

  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Children of a campaign.run span run on several worker threads and
    // overlap, so their coverage is the union of their intervals.
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = s.start_us;
    for (auto [start, end] : kids) {
      start = std::max(start, reach);
      end = std::min(end, s.end_us);
      if (end > start) {
        covered += end - start;
        reach = end;
      }
    }
    LayerTime& t = out[s.name];
    ++t.calls;
    t.total_us += s.dur_us();
    t.self_us += s.dur_us() - covered;
  }
  return out;
}

vlt::Json to_chrome_json(const std::vector<Span>& spans) {
  vlt::Json events = vlt::Json::array();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    vlt::Json args = vlt::Json::object();
    args.set("span", static_cast<std::uint64_t>(i));
    args.set("parent", s.parent);
    args.set("cell", s.cell);
    vlt::Json ev = vlt::Json::object();
    ev.set("name", s.name);
    ev.set("cat", "vltbench");
    ev.set("ph", "X");
    ev.set("ts", s.start_us);
    ev.set("dur", s.dur_us());
    ev.set("pid", 1);
    ev.set("tid", s.tid);
    ev.set("args", std::move(args));
    events.push_back(std::move(ev));
  }
  vlt::Json root = vlt::Json::object();
  root.set("traceEvents", std::move(events));
  root.set("displayTimeUnit", "ms");
  return root;
}

}  // namespace vltbench
