// util::ThreadPool contract tests, written to be meaningful under TSan
// (the CI tsan job runs this binary): the spin-then-block wakeup path is
// hammered with thousands of back-to-back generations — exactly the
// pattern where a worker leaves the spin loop concurrently with the
// publisher bumping the generation — plus the exception, reuse, and
// inline-execution paths.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.hpp"

namespace mcfair::util {
namespace {

TEST(ThreadPool, RunsEveryShardExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.workerCount(), 4u);
  constexpr std::size_t kShards = 257;
  std::vector<std::atomic<int>> hits(kShards);
  auto fn = [&](std::size_t s) {
    hits[s].fetch_add(1, std::memory_order_relaxed);
  };
  pool.forEachShard(kShards, fn);
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(hits[s].load(), 1) << "shard " << s;
  }
}

TEST(ThreadPool, BackToBackGenerationsHitSpinAndBlockPaths) {
  // Many tiny submissions in a tight loop: workers that spun catch the
  // next generation without sleeping; workers that blocked take the
  // condvar path. Both must agree on the totals. A second pool with the
  // spin disabled pins the pure-blocking path explicitly.
  for (const std::size_t spin : {ThreadPool::kDefaultSpin, std::size_t{0}}) {
    ThreadPool pool(4, spin);
    std::atomic<std::uint64_t> total{0};
    constexpr std::uint64_t kRounds = 2000;
    constexpr std::size_t kShards = 8;
    for (std::uint64_t round = 0; round < kRounds; ++round) {
      auto fn = [&](std::size_t s) {
        total.fetch_add(s + 1, std::memory_order_relaxed);
      };
      pool.forEachShard(kShards, fn);
    }
    EXPECT_EQ(total.load(), kRounds * (kShards * (kShards + 1) / 2))
        << "spin=" << spin;
  }
}

TEST(ThreadPool, SingleWorkerRunsInlineInOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.workerCount(), 1u);
  std::vector<std::size_t> order;
  auto fn = [&](std::size_t s) { order.push_back(s); };
  pool.forEachShard(5, fn);
  std::vector<std::size_t> expected(5);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, ZeroShardsIsANoOp) {
  ThreadPool pool(3);
  bool ran = false;
  auto fn = [&](std::size_t) { ran = true; };
  pool.forEachShard(0, fn);
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ShardExceptionPropagatesAndPoolStaysUsable) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    auto throwing = [&](std::size_t s) {
      if (s == 3) throw std::runtime_error("boom");
    };
    EXPECT_THROW(pool.forEachShard(64, throwing), std::runtime_error);
    std::atomic<std::size_t> count{0};
    auto counting = [&](std::size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    };
    pool.forEachShard(16, counting);
    EXPECT_EQ(count.load(), 16u);
  }
}

TEST(ThreadPool, ConcurrentShardsSeeDistinctIndices) {
  // Every shard writes to its own slot; TSan would flag any aliasing.
  ThreadPool pool(4);
  constexpr std::size_t kShards = 512;
  std::vector<std::size_t> slot(kShards, 0);
  auto fn = [&](std::size_t s) { slot[s] = s + 1; };
  pool.forEachShard(kShards, fn);
  for (std::size_t s = 0; s < kShards; ++s) EXPECT_EQ(slot[s], s + 1);
}

TEST(ThreadPool, NestedSubmitFromWorkerOnDistinctPools) {
  // Submissions from INSIDE a worker are legal as long as they target a
  // DIFFERENT pool (one job slot per pool: nesting on the same pool
  // would deadlock). This is the shape a parallel driver takes when a
  // shard fans out again — hammer it for many rounds so TSan sees the
  // outer wakeup path race against inner submissions.
  ThreadPool outer(4);
  std::vector<std::unique_ptr<ThreadPool>> inner;
  for (int s = 0; s < 4; ++s) inner.push_back(std::make_unique<ThreadPool>(2));

  constexpr std::size_t kRounds = 200;
  constexpr std::size_t kInnerShards = 16;
  std::atomic<std::size_t> total{0};
  for (std::size_t round = 0; round < kRounds; ++round) {
    auto outerFn = [&](std::size_t s) {
      auto innerFn = [&](std::size_t) {
        total.fetch_add(1, std::memory_order_relaxed);
      };
      inner[s]->forEachShard(kInnerShards, innerFn);
    };
    outer.forEachShard(inner.size(), outerFn);
  }
  EXPECT_EQ(total.load(), kRounds * inner.size() * kInnerShards);
}

TEST(ThreadPool, NestedSubmitPropagatesInnerExceptions) {
  // An exception thrown by an inner pool's shard must surface through
  // the outer shard, and both pools must stay reusable afterwards.
  ThreadPool outer(3);
  std::vector<std::unique_ptr<ThreadPool>> inner;
  for (int s = 0; s < 3; ++s) inner.push_back(std::make_unique<ThreadPool>(2));

  for (int round = 0; round < 25; ++round) {
    auto outerThrowing = [&](std::size_t s) {
      auto innerFn = [&](std::size_t is) {
        if (s == 1 && is == 3) throw std::runtime_error("inner boom");
      };
      inner[s]->forEachShard(8, innerFn);
    };
    EXPECT_THROW(outer.forEachShard(inner.size(), outerThrowing),
                 std::runtime_error);

    std::atomic<std::size_t> count{0};
    auto outerCounting = [&](std::size_t s) {
      auto innerFn = [&](std::size_t) {
        count.fetch_add(1, std::memory_order_relaxed);
      };
      inner[s]->forEachShard(8, innerFn);
    };
    outer.forEachShard(inner.size(), outerCounting);
    EXPECT_EQ(count.load(), inner.size() * 8u);
  }
}

TEST(ShardFnRef, CopyOfLvalueRefersToTheSameCallable) {
  // Copying a non-const ShardFnRef lvalue must copy the reference it
  // holds, not wrap the ShardFnRef object itself: a caller that stores a
  // by-value ShardFnRef argument this way would otherwise keep a wrapper
  // that dangles once that argument dies. Rebinding the source afterwards
  // exposes the wrapper deterministically (it would follow `a` to fb).
  int ranA = 0;
  int ranB = 0;
  auto fa = [&](std::size_t) { ++ranA; };
  auto fb = [&](std::size_t) { ++ranB; };
  ShardFnRef a(fa);
  std::optional<ShardFnRef> stored;
  stored = a;
  a = ShardFnRef(fb);
  (*stored)(0);
  EXPECT_EQ(ranA, 1);
  EXPECT_EQ(ranB, 0);
}

}  // namespace
}  // namespace mcfair::util
