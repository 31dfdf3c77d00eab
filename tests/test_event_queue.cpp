// sim::EventQueue ordering, copies and lifecycle. The simulator's bitwise
// reproducibility rests on the queue's (time, seq) total order, and a
// queue copied by value (with the cluster or simulator holding it) must
// carry its deferred root removal and its seq counter — all of it is
// pinned here.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "rng/distributions.hpp"
#include "rng/xoshiro256ss.hpp"
#include "sim/event.hpp"

namespace {

using namespace quora;

using Queue = sim::EventQueue<sim::Event>;

sim::Event at(double time, std::uint32_t index) {
  return {time, 0, sim::EventKind::kAccess, index};
}

std::vector<sim::Event> drain(Queue& q) {
  std::vector<sim::Event> out;
  while (!q.empty()) out.push_back(q.pop());
  return out;
}

std::vector<std::uint32_t> indices(const std::vector<sim::Event>& events) {
  std::vector<std::uint32_t> out;
  for (const sim::Event& e : events) out.push_back(e.index);
  return out;
}

void expect_same_events(const std::vector<sim::Event>& a,
                        const std::vector<sim::Event>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time) << "at " << i;
    EXPECT_EQ(a[i].seq, b[i].seq) << "at " << i;
    EXPECT_EQ(a[i].index, b[i].index) << "at " << i;
  }
}

TEST(EventQueue, OrdersByTime) {
  Queue q;
  q.push(at(3.0, 30));
  q.push(at(1.0, 10));
  q.push(at(2.0, 20));
  EXPECT_EQ(q.pop().index, 10u);
  EXPECT_EQ(q.pop().index, 20u);
  EXPECT_EQ(q.pop().index, 30u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EqualTimesPopInInsertionOrder) {
  // The deterministic tie-break: same timestamp resolves by seq, i.e.
  // FIFO. Interleave distinct times to make sure ties hold under heap
  // restructuring, not just in a trivially sorted run.
  Queue q;
  q.push({5.0, 0, sim::EventKind::kSiteFail, 0});
  q.push({5.0, 0, sim::EventKind::kSiteRecover, 1});
  q.push({1.0, 0, sim::EventKind::kAccess, 2});
  q.push({5.0, 0, sim::EventKind::kLinkFail, 3});
  q.push({2.0, 0, sim::EventKind::kAccess, 4});
  q.push({5.0, 0, sim::EventKind::kLinkRecover, 5});

  EXPECT_EQ(q.pop().index, 2u);
  EXPECT_EQ(q.pop().index, 4u);
  // The four t=5 events must come back in push order.
  std::vector<std::uint32_t> tied;
  std::uint64_t prev_seq = 0;
  bool first = true;
  while (!q.empty()) {
    const sim::Event e = q.pop();
    EXPECT_DOUBLE_EQ(e.time, 5.0);
    if (!first) {
      EXPECT_GT(e.seq, prev_seq);
    }
    prev_seq = e.seq;
    first = false;
    tied.push_back(e.index);
  }
  EXPECT_EQ(tied, (std::vector<std::uint32_t>{0, 1, 3, 5}));
}

TEST(EventQueue, RandomOpsMatchSortedReference) {
  // Differential check of push, pop and copy against a plain vector kept
  // sorted by (time, seq). Times come from a small grid so ties are
  // frequent and the seq tie-break is exercised throughout. A copy
  // replaces the queue now and then, so later operations run on a copy
  // that may hold a spent root; every 500 steps a drained copy must
  // match the reference in full.
  const auto key_less = [](const sim::Event& a, const sim::Event& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  };
  rng::Xoshiro256ss gen(20261017);
  Queue q;
  std::vector<sim::Event> ref;
  std::uint64_t next_seq = 0;
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t op = rng::uniform_index(gen, 10);
    if (op < 5 || ref.empty()) {  // push
      const auto index = static_cast<std::uint32_t>(rng::uniform_index(gen, 1000));
      const sim::Event e{static_cast<double>(rng::uniform_index(gen, 32)),
                         next_seq++, sim::EventKind::kAccess, index};
      q.push({e.time, 0, e.kind, e.index});
      ref.insert(std::upper_bound(ref.begin(), ref.end(), e, key_less), e);
    } else if (op < 9) {  // pop
      const sim::Event e = q.pop();
      ASSERT_EQ(e.seq, ref.front().seq) << "step " << step;
      ASSERT_EQ(e.index, ref.front().index) << "step " << step;
      ref.erase(ref.begin());
    } else {  // continue on a copy
      const Queue copy = q;
      q = copy;
    }
    ASSERT_EQ(q.size(), ref.size()) << "step " << step;
    ASSERT_EQ(q.empty(), ref.empty()) << "step " << step;
    if (!ref.empty()) {
      ASSERT_EQ(q.top().seq, ref.front().seq) << "step " << step;
      ASSERT_EQ(q.top().index, ref.front().index) << "step " << step;
    }
    if (step % 500 == 0) {
      Queue copy = q;
      expect_same_events(drain(copy), ref);
    }
  }
  expect_same_events(drain(q), ref);
}

TEST(EventQueue, SpentRootIsInvisible) {
  // pop() leaves the root slot spent until the next push or pop; no
  // observer may see it. `reference` is pushed the same events except
  // the popped one, so nothing of it is spent; indices are unique, so
  // equal index sequences mean equal pop orders.
  const auto fill = [](Queue& q, std::uint32_t skip) {
    for (std::uint32_t i = 0; i < 30; ++i) {
      if (i != skip) q.push(at((i * 11) % 13, i));
    }
  };
  Queue q;
  fill(q, 30);
  const sim::Event popped = q.pop();
  Queue reference;
  fill(reference, popped.index);

  EXPECT_EQ(q.size(), reference.size());
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.top().index, reference.top().index);

  // A copy carries the spent root and pops as its source would.
  Queue copy = q;
  Queue copy_reference = reference;
  EXPECT_EQ(indices(drain(copy)), indices(drain(copy_reference)));

  q.push(at(5.5, 100));
  reference.push(at(5.5, 100));
  EXPECT_EQ(q.size(), reference.size());
  EXPECT_EQ(q.top().index, reference.top().index);
  EXPECT_EQ(indices(drain(q)), indices(drain(reference)));

  // A push earlier than everything pending lands in the spent root.
  Queue early;
  fill(early, 30);
  early.pop();
  early.push(at(-1.0, 200));
  EXPECT_EQ(early.top().index, 200u);
  EXPECT_EQ(early.size(), 30u);
  EXPECT_EQ(early.pop().index, 200u);

  Queue single;
  single.push(at(1.0, 1));
  single.pop();
  EXPECT_TRUE(single.empty());
  EXPECT_EQ(single.size(), 0u);
  const Queue single_copy = single;
  EXPECT_TRUE(single_copy.empty());
}

TEST(EventQueue, CopyPopsIndependentlyOfItsSource) {
  // A queue is a value: a cluster or simulator copied by value carries
  // its queue, and the copy pops and pushes without touching its source.
  Queue source;
  for (std::uint32_t i = 0; i < 50; ++i) source.push(at(1 + (i * 7) % 11, i));
  Queue copy = source;

  EXPECT_EQ(copy.pop().index, 0u);
  copy.push(at(0.5, 999));
  EXPECT_EQ(source.size(), 50u);
  EXPECT_EQ(source.top().index, 0u);
  source.pop();
  EXPECT_EQ(source.size(), 49u);
  EXPECT_EQ(copy.size(), 50u);

  // Each continues its own copy of the seq counter.
  source.push(at(0.25, 500));
  EXPECT_EQ(source.top().seq, 50u);
  EXPECT_EQ(copy.top().seq, 50u);

  const std::vector<sim::Event> from_copy = drain(copy);
  ASSERT_EQ(from_copy.size(), 50u);
  EXPECT_EQ(from_copy.front().index, 999u);
  EXPECT_TRUE(std::none_of(from_copy.begin(), from_copy.end(),
                           [](const sim::Event& e) { return e.index == 500; }));
  const std::vector<sim::Event> from_source = drain(source);
  ASSERT_EQ(from_source.size(), 50u);
  EXPECT_EQ(from_source.front().index, 500u);
  EXPECT_TRUE(std::none_of(from_source.begin(), from_source.end(),
                           [](const sim::Event& e) { return e.index == 999; }));
  // Past the event each added, both drain the same 49 in one order.
  std::vector<std::uint32_t> rest_of_copy = indices(from_copy);
  std::vector<std::uint32_t> rest_of_source = indices(from_source);
  rest_of_copy.erase(rest_of_copy.begin());
  rest_of_source.erase(rest_of_source.begin());
  EXPECT_EQ(rest_of_copy, rest_of_source);
}

} // namespace
