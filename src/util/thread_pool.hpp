// Fixed-size worker pool for sharded parallel work: the component-
// parallel closed-loop engine's lanes and sim::SweepDriver's grid cells.
//
// The pool is built once (spawning workerCount() - 1 threads; the caller
// of forEachShard acts as the remaining executor) and reused across many
// submissions: a submission publishes a borrowed callable plus a shard
// count, wakes the workers, and blocks until every shard has run. Shards
// are claimed through an atomic counter, so which executor runs which
// shard is nondeterministic — callers that need deterministic results
// must make each shard's work depend only on its shard index (fixed data
// ranges, per-shard scratch), which is how both users above keep
// their results bit-identical to serial runs.
//
// The steady-state submit path performs no heap allocation: the callable
// is borrowed by reference (it must outlive the forEachShard call, which
// is trivially true since the call blocks), and all coordination state is
// a handful of atomics plus one mutex/condvar pair.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace mcfair::util {

/// Non-owning reference to a `void(std::size_t shard)` callable — the
/// pool's submit currency. Building one allocates nothing. Copies refer
/// to the same callable (the constraint keeps a ShardFnRef lvalue from
/// being wrapped as a callable in its own right).
class ShardFnRef {
 public:
  template <typename Fn>
    requires(!std::is_same_v<std::remove_cv_t<Fn>, ShardFnRef>)
  ShardFnRef(Fn& fn)  // NOLINT(google-explicit-constructor)
      : ctx_(&fn), call_([](void* ctx, std::size_t shard) {
          (*static_cast<Fn*>(ctx))(shard);
        }) {}

  void operator()(std::size_t shard) const { call_(ctx_, shard); }

 private:
  void* ctx_;
  void (*call_)(void*, std::size_t);
};

class ThreadPool {
 public:
  /// Bounded busy-wait iterations a worker performs on the submission
  /// generation before falling back to the condition variable. When a
  /// caller submits jobs back to back, the next job usually arrives
  /// within the spin window and the worker skips the sleep/wake round
  /// trip entirely; an idle pool still parks on the condvar after the
  /// bound, so it never burns a core while the caller does serial work.
  static constexpr std::size_t kDefaultSpin = 1 << 12;

  /// A pool with `workers` executors total. `workers <= 1` spawns no
  /// threads at all: forEachShard then runs every shard inline on the
  /// calling thread (still in shard order 0..n-1). `spinIterations`
  /// bounds the pre-sleep busy wait (0 = block immediately).
  explicit ThreadPool(std::size_t workers,
                      std::size_t spinIterations = kDefaultSpin);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total executors participating in forEachShard (spawned threads + the
  /// calling thread). Always >= 1.
  std::size_t workerCount() const noexcept { return spawned_.size() + 1; }

  /// Runs fn(0) .. fn(shardCount - 1) across the executors and returns
  /// once all shards completed. The calling thread participates. Shards
  /// are claimed dynamically; fn must be safe to call concurrently for
  /// distinct shard indices. No heap allocation on the success path. If
  /// a shard throws, remaining unclaimed shards are skipped and the
  /// first captured exception is rethrown here, after the completion
  /// barrier (the pool stays reusable).
  void forEachShard(std::size_t shardCount, ShardFnRef fn);

  /// Parses a thread-count environment variable (e.g. MCFAIR_SIM_THREADS).
  /// Unset, empty, non-numeric, or negative values yield `fallback`;
  /// results are clamped to [0, 256].
  static std::size_t threadCountFromEnv(const char* var,
                                        std::size_t fallback = 0);

 private:
  void workerLoop();
  void runShard(const ShardFnRef& fn, std::size_t shard);

  std::vector<std::thread> spawned_;
  std::size_t spinIterations_ = kDefaultSpin;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  // Job slot, published under mutex_ and torn down when pending_ drains.
  const ShardFnRef* job_ = nullptr;
  std::size_t shardCount_ = 0;
  std::atomic<std::size_t> nextShard_{0};
  std::size_t pending_ = 0;    // shards not yet finished, guarded by mutex_
  std::size_t insideJob_ = 0;  // workers holding the job, guarded by mutex_
  std::exception_ptr firstError_;  // guarded by mutex_
  // generation_ / stopping_ are written under mutex_ (the condvar
  // protocol needs that) but additionally read lock-free by the workers'
  // bounded pre-sleep spin — hence atomics.
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<bool> stopping_{false};
};

}  // namespace mcfair::util
