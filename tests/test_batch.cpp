// Unit tests for sim::for_each_batch, the library's fan-out idiom:
// serial fallback, exactly-once dispatch when batches are scarcer than
// workers, and first-exception-wins rethrow on the caller's thread.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/batch.hpp"

namespace quora {
namespace {

TEST(ForEachBatch, ZeroBatchesIsANoOp) {
  std::atomic<int> calls{0};
  sim::for_each_batch(0, 8, [&](std::uint32_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ForEachBatch, ThreadsZeroFallsBackToSerial) {
  // threads=0 must run everything on the calling thread, in order.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::uint32_t> order;
  sim::for_each_batch(5, 0, [&](std::uint32_t b) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(b);
  });
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
}

TEST(ForEachBatch, SingleThreadRunsInOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::uint32_t> order;
  sim::for_each_batch(4, 1, [&](std::uint32_t b) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(b);
  });
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST(ForEachBatch, EachBatchRunsExactlyOnce) {
  constexpr std::uint32_t kBatches = 64;
  std::mutex mu;
  std::multiset<std::uint32_t> seen;
  sim::for_each_batch(kBatches, 4, [&](std::uint32_t b) {
    const std::scoped_lock lock(mu);
    seen.insert(b);
  });
  ASSERT_EQ(seen.size(), kBatches);
  for (std::uint32_t b = 0; b < kBatches; ++b) {
    EXPECT_EQ(seen.count(b), 1u) << "batch " << b;
  }
}

TEST(ForEachBatch, FewerBatchesThanWorkersStillRunsEachOnce) {
  std::mutex mu;
  std::multiset<std::uint32_t> seen;
  sim::for_each_batch(3, 16, [&](std::uint32_t b) {
    const std::scoped_lock lock(mu);
    seen.insert(b);
  });
  EXPECT_EQ(seen, (std::multiset<std::uint32_t>{0, 1, 2}));
}

TEST(ForEachBatch, RethrowsBodyExceptionOnCaller) {
  EXPECT_THROW(
      sim::for_each_batch(8, 4,
                          [](std::uint32_t b) {
                            if (b == 3) throw std::runtime_error("batch 3");
                          }),
      std::runtime_error);
}

TEST(ForEachBatch, SerialPathPropagatesException) {
  std::atomic<int> calls{0};
  try {
    sim::for_each_batch(8, 1, [&](std::uint32_t b) {
      ++calls;
      if (b == 2) throw std::logic_error("stop");
    });
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error&) {
  }
  // Serial execution stops at the throwing batch.
  EXPECT_EQ(calls.load(), 3);
}

TEST(ForEachBatch, FirstExceptionWins) {
  // Every batch throws with its own message; whichever surfaced first is
  // the one rethrown, and it must be one of the messages we threw (not a
  // corrupted or default-constructed error).
  std::atomic<int> started{0};
  try {
    sim::for_each_batch(16, 4, [&](std::uint32_t b) {
      ++started;
      throw std::runtime_error("batch " + std::to_string(b));
    });
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& err) {
    const std::string what = err.what();
    EXPECT_EQ(what.rfind("batch ", 0), 0u) << what;
  }
  // A worker that caught an exception stops pulling batches, so at most
  // one batch per worker ran.
  EXPECT_LE(started.load(), 4);
  EXPECT_GE(started.load(), 1);
}

TEST(ForEachBatch, DefaultThreadCountIsPositive) {
  EXPECT_GE(sim::default_thread_count(), 1u);
}

} // namespace
} // namespace quora
