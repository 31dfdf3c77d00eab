#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.hpp"

namespace quora::obs {

class Registry;

/// Handle to one counter slot. Resolved once at registration; the hot
/// path is a bounds check plus a relaxed atomic add into a thread-local
/// buffer (or nothing at all for a default-constructed handle).
class Counter {
public:
  Counter() = default;
  void add(std::uint64_t n = 1) const;
  bool valid() const noexcept { return registry_ != nullptr; }

private:
  friend class Registry;
  Counter(Registry* r, std::uint32_t slot) : registry_(r), slot_(slot) {}
  Registry* registry_ = nullptr;
  std::uint32_t slot_ = 0;
};

/// Handle to one gauge: a last-write-wins value stored centrally with
/// relaxed atomics (gauges are rare writes, so no thread-local buffering).
class Gauge {
public:
  Gauge() = default;
  void set(std::int64_t value) const;
  bool valid() const noexcept { return registry_ != nullptr; }

private:
  friend class Registry;
  Gauge(Registry* r, std::uint32_t index) : registry_(r), index_(index) {}
  Registry* registry_ = nullptr;
  std::uint32_t index_ = 0;
};

/// Handle to a fixed-bucket histogram: `bounds` are inclusive upper
/// bounds, with one implicit overflow bucket past the last bound. A
/// record is one bucket search (branch-free linear scan over a handful of
/// doubles) plus the same relaxed thread-local add a counter pays.
class Histogram {
public:
  Histogram() = default;
  void record(double value) const;
  bool valid() const noexcept { return registry_ != nullptr; }

private:
  friend class Registry;
  Histogram(Registry* r, std::uint32_t def) : registry_(r), def_(def) {}
  Registry* registry_ = nullptr;
  std::uint32_t def_ = 0;
};

/// Metrics registry: named counters, gauges, and fixed-bucket histograms.
///
/// Concurrency design ("lock-free enough"): every recording thread gets
/// its own buffer of atomic slots, created on first use and owned by the
/// registry; `add`/`record` touch only that buffer with relaxed atomics,
/// so there is no cross-thread contention on the hot path. `flush()`
/// drains every thread's buffer into the central totals under the
/// registry mutex (relaxed exchange per slot — the mutex orders the merge
/// itself, the atomics make the concurrent adds race-free). Registration
/// is idempotent: re-registering a name of the same kind returns the same
/// handle; re-registering with a different kind (or different histogram
/// bounds) throws std::invalid_argument.
///
/// A handle registered *after* another thread already created its buffer
/// falls back to adding directly to the central totals under the mutex —
/// correct, just slower — so register everything up front.
class Registry {
public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  Histogram histogram(std::string_view name, std::vector<double> bounds);

  /// Drains every thread buffer into the central totals.
  void flush();

  struct HistogramValue {
    std::string name;
    std::vector<double> bounds;          // inclusive upper bounds
    std::vector<std::uint64_t> counts;   // bounds.size() + 1 (overflow)
    std::uint64_t total = 0;
  };
  struct Snapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;  // sorted
    std::vector<std::pair<std::string, std::int64_t>> gauges;     // sorted
    std::vector<HistogramValue> histograms;                       // sorted
  };
  /// flush() + a consistent, name-sorted view of everything.
  Snapshot snapshot();

  /// Deterministic text dump (sorted by name), used by --metrics flags.
  void write_text(std::ostream& out);

private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  enum class Kind : std::uint8_t { kCounter, kHistogram };
  struct Def {
    Kind kind = Kind::kCounter;
    std::string name;
    std::uint32_t slot = 0;           // first slot in the slot array
    std::vector<double> bounds;       // histograms only
    std::uint32_t slot_count() const {
      return kind == Kind::kCounter
                 ? 1
                 : static_cast<std::uint32_t>(bounds.size() + 1);
    }
  };
  struct ThreadBuf {
    std::unique_ptr<std::atomic<std::uint64_t>[]> slots;
    std::uint32_t size = 0;
  };

  void add_slot(std::uint32_t slot, std::uint64_t n);
  ThreadBuf* local_buf();
  void flush_locked();

  const std::uint64_t generation_;  // distinguishes recycled addresses in TLS
  std::mutex mu_;
  std::vector<Def> defs_;
  std::vector<std::pair<std::string, std::uint32_t>> gauge_names_;
  std::uint32_t slot_count_ = 0;
  std::vector<std::uint64_t> totals_;                   // merged values
  std::vector<std::unique_ptr<ThreadBuf>> buffers_;     // all threads
  std::vector<std::unique_ptr<std::atomic<std::int64_t>>> gauges_;
};

/// Null-tolerant registration: `registry->counter(name)` /
/// `registry->histogram(name, bounds)`, or a detached handle when
/// `registry` is null. Every `set_metrics(Registry*)` attaches and
/// detaches through these, so it has one code path for both.
Counter counter(Registry* registry, std::string_view name);
Histogram histogram(Registry* registry, std::string_view name,
                    std::vector<double> bounds);

/// Writes `registry.write_text` to `path`; throws std::runtime_error on
/// I/O failure.
void write_metrics_file(Registry& registry, const std::string& path);

// --- hot-path macros -------------------------------------------------
//
// Instrumentation call sites go through these so a QUORA_OBS=OFF build
// contains no trace of them. `handle` is a Counter/Histogram/Gauge; all
// three tolerate being default-constructed (no registry attached).
#if defined(QUORA_OBS_ENABLED)
#define QUORA_METRIC_ADD(handle, n) (handle).add(n)
#define QUORA_METRIC_RECORD(handle, v) (handle).record(v)
#define QUORA_METRIC_SET(handle, v) (handle).set(v)
#else
#define QUORA_METRIC_ADD(handle, n) ((void)0)
#define QUORA_METRIC_RECORD(handle, v) ((void)0)
#define QUORA_METRIC_SET(handle, v) ((void)0)
#endif

} // namespace quora::obs
