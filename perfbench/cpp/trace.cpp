#include "trace.hpp"

#include <chrono>
#include <fstream>
#include <stdexcept>

namespace perfbench {

Tracer* g_tracer = nullptr;

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kRep: return "rep";
    case Layer::kSim: return "sim";
    case Layer::kCollect: return "metrics.collect";
    case Layer::kCore: return "core";
    case Layer::kMetrics: return "metrics";
    case Layer::kMsg: return "msg";
    case Layer::kModel: return "model";
    case Layer::kBench: return "bench";
    case Layer::kCount: break;
  }
  return "?";
}

Tracer::Tracer(std::size_t keep) : keep_(keep) {
  kept_.reserve(keep_);
  stack_.reserve(16);
  // Calibrate: what one empty span costs its parent, and how long it
  // measures itself (the clock read it cannot exclude).
  constexpr int kPairs = 20000;
  const std::size_t saved_keep = keep_;
  keep_ = 0;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kPairs; ++i) {
    begin(Layer::kBench, 0);
    end();
  }
  span_cost_ns_ = (now_ns() - t0) / kPairs;
  leaf_ns_ = total_ns_[static_cast<std::size_t>(Layer::kBench)] / kPairs;
  keep_ = saved_keep;
  self_ns_.fill(0);
  total_ns_.fill(0);
  count_.fill(0);
}

void Tracer::begin(Layer layer, std::uint64_t request) {
  Frame f;
  f.layer = layer;
  if (kept_.size() < keep_) {
    Span s;
    s.layer = layer;
    s.request = request;
    s.parent = stack_.empty() ? -1 : stack_.back().kept;
    f.kept = static_cast<std::int32_t>(kept_.size());
    kept_.push_back(s);
  }
  stack_.push_back(f);
  stack_.back().start_ns = now_ns();
}

void Tracer::end() {
  const std::int64_t t = now_ns();
  if (stack_.empty()) throw std::logic_error("Tracer::end without begin");
  const Frame f = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = t - f.start_ns;
  const auto i = static_cast<std::size_t>(f.layer);
  self_ns_[i] += dur - f.child_ns - leaf_ns_;
  total_ns_[i] += dur;
  ++count_[i];
  if (f.kept >= 0) {
    kept_[static_cast<std::size_t>(f.kept)].start_ns = f.start_ns;
    kept_[static_cast<std::size_t>(f.kept)].end_ns = t;
  }
  if (!stack_.empty()) stack_.back().child_ns += dur + span_cost_ns_ - leaf_ns_;
}

double Tracer::self_s(Layer layer) const {
  return static_cast<double>(self_ns_[static_cast<std::size_t>(layer)]) * 1e-9;
}

double Tracer::total_s(Layer layer) const {
  return static_cast<double>(total_ns_[static_cast<std::size_t>(layer)]) * 1e-9;
}

std::uint64_t Tracer::count(Layer layer) const {
  return count_[static_cast<std::size_t>(layer)];
}

double Tracer::self_ns_per_span(Layer layer) const {
  const std::uint64_t n = count(layer);
  return n == 0 ? 0.0 : self_s(layer) * 1e9 / static_cast<double>(n);
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out << "id\tparent\tlayer\trequest\tstart_ns\tend_ns\n";
  const std::int64_t origin = kept_.empty() ? 0 : kept_.front().start_ns;
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Span& s = kept_[i];
    out << i << '\t' << s.parent << '\t' << layer_name(s.layer) << '\t'
        << s.request << '\t' << s.start_ns - origin << '\t'
        << s.end_ns - origin << '\n';
  }
}

}  // namespace perfbench
