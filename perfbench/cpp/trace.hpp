#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The layers a span can be charged to: the library's modules plus the
/// benchmark's own repetition loop and bookkeeping.
enum class Layer : std::uint8_t {
  kRep,      // one repetition of a workload's timed region
  kSim,      // sim::Simulator::step_one
  kCollect,  // metrics::VotesSeenCollector::on_access (tracker query inside)
  kCore,     // core::optimize_exhaustive
  kMetrics,  // metrics::measure_curves
  kMsg,      // msg::Cluster::run_decided_accesses(1)
  kModel,    // model::Explorer::run
  kBench,    // the benchmark's own stream recording
  kCount,
};
inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);
const char* layer_name(Layer layer);

/// In-memory span recorder for traced runs. Every span has a layer, a
/// request id (the repetition or access it belongs to), start and end
/// times and a parent link; the first `keep` spans are kept verbatim for
/// `write`, and every span feeds the per-layer totals. A layer's self
/// time is its spans' durations minus what their child spans (and the
/// clock reads those children cost) cover, minus its own clock read.
class Tracer {
public:
  explicit Tracer(std::size_t keep = std::size_t{1} << 18);

  void begin(Layer layer, std::uint64_t request);
  void end();

  double self_s(Layer layer) const;
  double total_s(Layer layer) const;
  std::uint64_t count(Layer layer) const;
  /// Mean self time of one span of `layer`, in ns (0 with no spans).
  double self_ns_per_span(Layer layer) const;

  /// Tab-separated: id, parent (-1 = root), layer, request, start_ns, end_ns.
  void write(const std::string& path) const;

private:
  struct Span {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    Layer layer = Layer::kRep;
    std::uint64_t request = 0;
  };
  struct Frame {
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;
    std::int32_t kept = -1;
    Layer layer = Layer::kRep;
  };

  std::vector<Span> kept_;
  std::size_t keep_;
  std::vector<Frame> stack_;
  std::array<std::int64_t, kLayerCount> self_ns_{};
  std::array<std::int64_t, kLayerCount> total_ns_{};
  std::array<std::uint64_t, kLayerCount> count_{};
  /// Cost of one begin/end pair as seen by the enclosing span, measured
  /// at construction; charged to children, not to their parent's self time.
  std::int64_t span_cost_ns_ = 0;
  /// Duration an empty span records (mostly one clock read), measured at
  /// construction and taken out of every span's self time.
  std::int64_t leaf_ns_ = 0;
};

/// The tracer of the current traced repetition, or nullptr.
extern Tracer* g_tracer;

/// RAII span; a no-op while no tracer is installed.
class Span {
public:
  explicit Span(Layer layer, std::uint64_t request = 0)
      : tracer_(g_tracer) {
    if (tracer_ != nullptr) tracer_->begin(layer, request);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

private:
  Tracer* tracer_;
};

/// Installs a tracer (or nullptr) for the lifetime of the scope.
class TracerScope {
public:
  explicit TracerScope(Tracer* tracer) : prev_(g_tracer) { g_tracer = tracer; }
  ~TracerScope() { g_tracer = prev_; }
  TracerScope(const TracerScope&) = delete;
  TracerScope& operator=(const TracerScope&) = delete;

private:
  Tracer* prev_;
};

}  // namespace perfbench
