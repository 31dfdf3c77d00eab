#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
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

/// Min-heap of timed events ordered by (time, seq): the repo's one timed
/// event queue. `sim::Simulator` runs on it, and so does `msg::Cluster`'s
/// timed run. `E` is any record with `double time` and `std::uint64_t seq`;
/// push() stamps `seq` with the insertion count, so the order is total and
/// simulations are bitwise reproducible.
///
/// Implemented as an implicit 4-ary heap rather than std::priority_queue's
/// binary one: sift-downs touch a quarter as many levels and the four
/// children share a cache line, which matters because pop() dominates the
/// simulator's event loop. Because every (time, seq) key is unique the pop
/// order — and therefore every simulation trace — is identical to the
/// binary heap's, independent of arity.
///
/// pop() leaves the root slot *spent*: it returns a copy of the root and
/// defers the removal. The next push() writes into the spent root and
/// sinks it, stopping at the first level whose earliest child is later,
/// so the simulator's pop-then-push per event (every handler schedules
/// its process's next event) costs one short descent instead of a full
/// removal plus an insertion. The next pop() instead first removes the
/// spent root the usual way. A spent root still holds the earliest key
/// in the array, so the array stays a valid heap with it in place;
/// size(), empty() and top() skip it.
template <class E>
class EventQueue {
public:
  QUORA_HOT_PATH void push(E e) {
    e.seq = next_seq_++;
    if (spent_) {
      spent_ = false;
      heap_.front() = e;
      sift_down(0);
      return;
    }
    // quora-lint: allow(L006) amortized growth: every pop hands back a slot, so steady state never reallocates; quora_bench --alloc-check enforces it
    heap_.push_back(e);
    sift_up(heap_.size() - 1);
  }

  bool empty() const noexcept { return size() == 0; }
  std::size_t size() const noexcept { return heap_.size() - spent_; }

  /// The event pop() would return. Precondition: !empty().
  const E& top() const {
    if (!spent_) return heap_.front();
    // The earliest pending event is one of the spent root's children.
    return heap_[earliest_child(1, std::min<std::size_t>(4, heap_.size() - 1))];
  }

  QUORA_HOT_PATH E pop() {
    if (spent_) {
      const E last = heap_.back();
      heap_.pop_back();
      if (!heap_.empty()) sift_hole_down(last);
    }
    spent_ = true;
    return heap_.front();
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

  /// Index of the earliest child among the `count` (1..4) starting at
  /// `first`: a branchless tournament over a full set of four.
  std::size_t earliest_child(std::size_t first, std::size_t count) const {
    const E* const h = heap_.data();
    if (count == 4) {
      const std::size_t lo = first + earlier_nb(h[first + 1], h[first]);
      const std::size_t hi = first + 2 + earlier_nb(h[first + 3], h[first + 2]);
      return earlier_nb(h[hi], h[lo]) ? hi : lo;
    }
    std::size_t best = first;
    for (std::size_t c = first + 1; c < first + count; ++c) {
      if (earlier(h[c], h[best])) best = c;
    }
    return best;
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

  /// Early-exit descent from `i`: the event there swaps with the earliest
  /// child until no child is earlier. The subtrees below `i` must already
  /// be heaps; nothing above `i` is read.
  void sift_down(std::size_t i) {
    E* const h = heap_.data();
    const std::size_t n = heap_.size();
    if (i >= n) return;
    const E e = h[i];
    std::size_t first;
    while ((first = (i << 2) + 1) < n) {
      const std::size_t best = earliest_child(first, std::min<std::size_t>(4, n - first));
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
    while ((first = (i << 2) + 1) < n) {
      const std::size_t best = earliest_child(first, std::min<std::size_t>(4, n - first));
      h[i] = h[best];
      i = best;
    }
    h[i] = e;
    sift_up(i);
  }

  std::vector<E> heap_;
  std::uint64_t next_seq_ = 0;
  bool spent_ = false;  // heap_.front() was popped; see the class comment
};

} // namespace quora::sim
