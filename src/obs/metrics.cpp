#include "obs/metrics.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace quora::obs {
namespace {

std::atomic<std::uint64_t> g_generation{1};

} // namespace

void Counter::add(std::uint64_t n) const {
  if (registry_ != nullptr) registry_->add_slot(slot_, n);
}

void Gauge::set(std::int64_t value) const {
  if (registry_ == nullptr) return;
  registry_->gauges_[index_]->store(value, std::memory_order_relaxed);
}

void Histogram::record(double value) const {
  if (registry_ == nullptr) return;
  // defs_ never shrinks and a Def's slot/bounds never change after
  // registration, so reading them without the mutex is safe.
  const Registry::Def& def = registry_->defs_[def_];
  std::uint32_t bucket = 0;
  const std::uint32_t n = static_cast<std::uint32_t>(def.bounds.size());
  while (bucket < n && value > def.bounds[bucket]) ++bucket;
  registry_->add_slot(def.slot + bucket, 1);
}

Registry::Registry()
    : generation_(g_generation.fetch_add(1, std::memory_order_relaxed)) {}

Registry::~Registry() = default;

Counter Registry::counter(std::string_view name) {
  const std::scoped_lock lock(mu_);
  for (std::size_t i = 0; i < defs_.size(); ++i) {
    if (defs_[i].name != name) continue;
    if (defs_[i].kind != Kind::kCounter) {
      throw std::invalid_argument("Registry: '" + std::string(name) +
                                  "' already registered as a histogram");
    }
    return Counter(this, defs_[i].slot);
  }
  Def def;
  def.kind = Kind::kCounter;
  def.name = std::string(name);
  def.slot = slot_count_;
  defs_.push_back(def);
  slot_count_ += 1;
  totals_.resize(slot_count_, 0);
  return Counter(this, def.slot);
}

Gauge Registry::gauge(std::string_view name) {
  const std::scoped_lock lock(mu_);
  for (const auto& [gname, index] : gauge_names_) {
    if (gname == name) return Gauge(this, index);
  }
  const auto index = static_cast<std::uint32_t>(gauges_.size());
  gauges_.push_back(std::make_unique<std::atomic<std::int64_t>>(0));
  gauge_names_.emplace_back(std::string(name), index);
  return Gauge(this, index);
}

Histogram Registry::histogram(std::string_view name, std::vector<double> bounds) {
  if (bounds.empty()) {
    throw std::invalid_argument("Registry: histogram needs at least one bound");
  }
  if (!std::is_sorted(bounds.begin(), bounds.end())) {
    throw std::invalid_argument("Registry: histogram bounds must be ascending");
  }
  const std::scoped_lock lock(mu_);
  for (std::size_t i = 0; i < defs_.size(); ++i) {
    if (defs_[i].name != name) continue;
    if (defs_[i].kind != Kind::kHistogram) {
      throw std::invalid_argument("Registry: '" + std::string(name) +
                                  "' already registered as a counter");
    }
    if (defs_[i].bounds != bounds) {
      throw std::invalid_argument("Registry: '" + std::string(name) +
                                  "' re-registered with different bounds");
    }
    return Histogram(this, static_cast<std::uint32_t>(i));
  }
  Def def;
  def.kind = Kind::kHistogram;
  def.name = std::string(name);
  def.slot = slot_count_;
  def.bounds = std::move(bounds);
  slot_count_ += def.slot_count();
  defs_.push_back(std::move(def));
  totals_.resize(slot_count_, 0);
  return Histogram(this, static_cast<std::uint32_t>(defs_.size() - 1));
}

Registry::ThreadBuf* Registry::local_buf() {
  // Per-thread cache of (registry, generation) -> buffer. Generations
  // keep a stale cache entry from matching a new registry that happens to
  // be allocated at a recycled address.
  struct TlsEntry {
    const Registry* registry = nullptr;
    std::uint64_t generation = 0;
    ThreadBuf* buf = nullptr;
  };
  thread_local std::vector<TlsEntry> cache;
  for (const TlsEntry& e : cache) {
    if (e.registry == this && e.generation == generation_) return e.buf;
  }
  auto buf = std::make_unique<ThreadBuf>();
  ThreadBuf* raw = buf.get();
  {
    const std::scoped_lock lock(mu_);
    raw->size = slot_count_;
    if (raw->size > 0) {
      raw->slots = std::make_unique<std::atomic<std::uint64_t>[]>(raw->size);
      for (std::uint32_t i = 0; i < raw->size; ++i) {
        raw->slots[i].store(0, std::memory_order_relaxed);
      }
    }
    buffers_.push_back(std::move(buf));
  }
  cache.push_back(TlsEntry{this, generation_, raw});
  return raw;
}

void Registry::add_slot(std::uint32_t slot, std::uint64_t n) {
  ThreadBuf* buf = local_buf();
  if (slot < buf->size) {
    buf->slots[slot].fetch_add(n, std::memory_order_relaxed);
    return;
  }
  // Slot registered after this thread's buffer was sized: fold straight
  // into the totals. Rare by design (register handles up front).
  const std::scoped_lock lock(mu_);
  totals_[slot] += n;
}

void Registry::flush_locked() {
  for (const auto& buf : buffers_) {
    for (std::uint32_t i = 0; i < buf->size; ++i) {
      totals_[i] += buf->slots[i].exchange(0, std::memory_order_relaxed);
    }
  }
}

void Registry::flush() {
  const std::scoped_lock lock(mu_);
  flush_locked();
}

Registry::Snapshot Registry::snapshot() {
  const std::scoped_lock lock(mu_);
  flush_locked();
  Snapshot snap;
  for (const Def& def : defs_) {
    if (def.kind == Kind::kCounter) {
      snap.counters.emplace_back(def.name, totals_[def.slot]);
    } else {
      HistogramValue h;
      h.name = def.name;
      h.bounds = def.bounds;
      h.counts.assign(def.slot_count(), 0);
      for (std::uint32_t i = 0; i < def.slot_count(); ++i) {
        h.counts[i] = totals_[def.slot + i];
        h.total += h.counts[i];
      }
      snap.histograms.push_back(std::move(h));
    }
  }
  for (const auto& [name, index] : gauge_names_) {
    snap.gauges.emplace_back(name,
                             gauges_[index]->load(std::memory_order_relaxed));
  }
  const auto by_name = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(),
            [](const HistogramValue& a, const HistogramValue& b) {
              return a.name < b.name;
            });
  return snap;
}

void Registry::write_text(std::ostream& out) {
  const Snapshot snap = snapshot();
  for (const auto& [name, value] : snap.counters) {
    out << "counter " << name << ' ' << value << '\n';
  }
  for (const auto& [name, value] : snap.gauges) {
    out << "gauge " << name << ' ' << value << '\n';
  }
  for (const HistogramValue& h : snap.histograms) {
    out << "histogram " << h.name << " total=" << h.total << '\n';
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      out << "  le=";
      if (i < h.bounds.size()) {
        out << h.bounds[i];
      } else {
        out << "+inf";
      }
      out << ' ' << h.counts[i] << '\n';
    }
  }
}

Counter counter(Registry* registry, std::string_view name) {
  return registry == nullptr ? Counter{} : registry->counter(name);
}

Histogram histogram(Registry* registry, std::string_view name,
                    std::vector<double> bounds) {
  return registry == nullptr ? Histogram{}
                             : registry->histogram(name, std::move(bounds));
}

void write_metrics_file(Registry& registry, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open metrics file " + path);
  registry.write_text(out);
}

} // namespace quora::obs
