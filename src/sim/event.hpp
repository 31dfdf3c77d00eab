#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/analysis_annotations.hpp"

namespace quora::sim {

/// The five event kinds of the paper's model (§5.2): component failures and
/// recoveries plus data access requests. All events are instantaneous; no
/// component changes state while an access is processing (guaranteed here
/// by construction — each event is handled atomically).
enum class EventKind : std::uint8_t {
  kSiteFail,
  kSiteRecover,
  kLinkFail,
  kLinkRecover,
  kAccess,
};

struct Event {
  double time = 0.0;
  std::uint64_t seq = 0;  // insertion order; deterministic tie-break
  EventKind kind = EventKind::kAccess;
  std::uint32_t index = 0;  // site or link id; unused for kAccess
};

/// Min-heap of timed events ordered by (time, seq): the repo's one event
/// queue. `sim::Simulator` runs on it, and so does `msg::Cluster` in both
/// its timed run and model mode. `E` is any record with `double time` and
/// `std::uint64_t seq`; push() stamps `seq` with the insertion count, so
/// the order is total and simulations are bitwise reproducible.
///
/// Implemented as an implicit 4-ary heap rather than std::priority_queue's
/// binary one: sift-downs touch a quarter as many levels and the four
/// children share a cache line, which matters because pop() dominates the
/// simulator's event loop. Because every (time, seq) key is unique the pop
/// order — and therefore every simulation trace — is identical to the
/// binary heap's, independent of arity.
template <class E>
class EventQueue {
public:
  QUORA_HOT_PATH void push(E e) {
    e.seq = next_seq_++;
    // quora-lint: allow(L006) amortized growth: every pop hands back a slot, so steady state never reallocates; quora_bench --alloc-check enforces it
    heap_.push_back(e);
    sift_up(heap_.size() - 1);
  }

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

  /// Backing-store capacity, exposed so tests can assert that clear()
  /// genuinely released memory.
  std::size_t capacity() const noexcept { return heap_.capacity(); }

  /// The event pop() would return. Precondition: !empty().
  const E& top() const { return heap_.front(); }

  QUORA_HOT_PATH E pop() {
    E e = heap_.front();
    const E last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_hole_down(last);
    return e;
  }

  /// Every pending event, in heap order (not sorted): for a scheduler that
  /// picks what fires next itself, as the model checker does.
  std::span<const E> pending() const noexcept { return heap_; }

  /// Removes the pending event stamped `seq` and returns it; nullopt (and
  /// no change) when no such event is pending.
  std::optional<E> remove(std::uint64_t seq) {
    const auto it = std::find_if(heap_.begin(), heap_.end(),
                                 [seq](const E& e) { return e.seq == seq; });
    if (it == heap_.end()) return std::nullopt;
    const E e = *it;
    const std::size_t i = static_cast<std::size_t>(it - heap_.begin());
    const E last = heap_.back();
    heap_.pop_back();
    if (i < heap_.size()) {
      heap_[i] = last;
      sift_up(i);
      sift_down(i);
    }
    return e;
  }

  /// Removes every pending event `pred` holds for, then re-heapifies;
  /// returns how many were removed.
  template <class Pred>
  std::size_t remove_if(Pred pred) {
    const auto kept = std::remove_if(heap_.begin(), heap_.end(), pred);
    const auto removed = static_cast<std::size_t>(heap_.end() - kept);
    heap_.erase(kept, heap_.end());
    // Floyd's heapify: sift down every node that has a child, bottom-up.
    for (std::size_t i = heap_.size() / 4 + 1; i-- > 0;) sift_down(i);
    return removed;
  }

  /// Reset to a freshly-constructed state: the heap's capacity is released
  /// (not retained) so a cleared queue holds no memory, and the sequence
  /// counter restarts so replays from a cleared queue stay deterministic.
  void clear() {
    std::vector<E>().swap(heap_);
    next_seq_ = 0;
  }

private:
  static bool earlier(const E& a, const E& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  /// Same predicate without short-circuiting: both legs evaluate, so the
  /// compiler can lower the descent's child selection to flag ops + cmov
  /// instead of data-dependent branches (random keys mispredict ~50%).
  static bool earlier_nb(const E& a, const E& b) noexcept {
    return static_cast<int>(a.time < b.time) |
           (static_cast<int>(a.time == b.time) &
            static_cast<int>(a.seq < b.seq));
  }

  void sift_up(std::size_t i) {
    E* const h = heap_.data();
    const E e = h[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!earlier(e, h[parent])) break;
      h[i] = h[parent];
      i = parent;
    }
    h[i] = e;
  }

  /// Classic early-exit descent from `i`, for the removal paths. The
  /// subtrees below `i` must already be heaps; nothing above `i` is read.
  void sift_down(std::size_t i) {
    E* const h = heap_.data();
    const std::size_t n = heap_.size();
    if (i >= n) return;
    const E e = h[i];
    std::size_t first;
    while ((first = (i << 2) + 1) < n) {
      std::size_t best = first;
      const std::size_t end = std::min(first + 4, n);
      for (std::size_t c = first + 1; c < end; ++c) {
        if (earlier(h[c], h[best])) best = c;
      }
      if (!earlier(h[best], e)) break;
      h[i] = h[best];
      i = best;
    }
    h[i] = e;
  }

  /// Root removal, libstdc++-style: sink the root hole to a leaf choosing
  /// the min child per level (no compare against `e` on the way down),
  /// drop the former last element `e` into the leaf hole, and sift it
  /// back up. On random keys `e` rarely climbs, so this does strictly
  /// fewer unpredictable comparisons than the classic early-exit descent.
  void sift_hole_down(const E e) {
    E* const h = heap_.data();
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    std::size_t first;
    while ((first = (i << 2) + 1) + 4 <= n) {
      // Tournament-min over the four children; branchless by construction.
      const std::size_t lo = first + earlier_nb(h[first + 1], h[first]);
      const std::size_t hi = first + 2 + earlier_nb(h[first + 3], h[first + 2]);
      const std::size_t best = earlier_nb(h[hi], h[lo]) ? hi : lo;
      h[i] = h[best];
      i = best;
    }
    if (first < n) {  // partial bottom level
      std::size_t best = first;
      for (std::size_t c = first + 1; c < n; ++c) {
        if (earlier(h[c], h[best])) best = c;
      }
      h[i] = h[best];
      i = best;
    }
    h[i] = e;
    sift_up(i);
  }

  std::vector<E> heap_;
  std::uint64_t next_seq_ = 0;
};

} // namespace quora::sim
