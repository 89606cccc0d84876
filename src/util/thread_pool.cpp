#include "util/thread_pool.hpp"

#include <cstdlib>

namespace mcfair::util {

namespace {

// One iteration of polite busy-waiting: tell the core we are spinning so
// a hyper-threaded sibling (or the power governor) can make progress.
inline void cpuRelax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

ThreadPool::ThreadPool(std::size_t workers, std::size_t spinIterations)
    : spinIterations_(spinIterations) {
  if (workers <= 1) return;
  spawned_.reserve(workers - 1);
  for (std::size_t w = 0; w + 1 < workers; ++w) {
    spawned_.emplace_back([this] { workerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_.store(true, std::memory_order_release);
  }
  wake_.notify_all();
  for (std::thread& t : spawned_) t.join();
}

void ThreadPool::forEachShard(std::size_t shardCount, ShardFnRef fn) {
  if (shardCount == 0) return;
  if (spawned_.empty() || shardCount == 1) {
    for (std::size_t s = 0; s < shardCount; ++s) fn(s);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &fn;
    shardCount_ = shardCount;
    nextShard_.store(0, std::memory_order_relaxed);
    pending_ = shardCount;
    firstError_ = nullptr;
    // Release: a worker whose spin observes the new generation must also
    // observe the job slot written above once it takes the mutex (the
    // mutex already guarantees that; the release pairs with the spin's
    // acquire for the wakeup decision itself).
    generation_.fetch_add(1, std::memory_order_release);
  }
  wake_.notify_all();

  // The calling thread is an executor too.
  std::size_t completed = 0;
  for (;;) {
    const std::size_t s = nextShard_.fetch_add(1, std::memory_order_relaxed);
    if (s >= shardCount) break;
    runShard(fn, s);
    ++completed;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  pending_ -= completed;
  // Return only once every shard ran AND no worker still holds the job
  // (a worker that woke late must not touch nextShard_ after this call
  // returns — the callable and the next job's counter would be stale).
  done_.wait(lock, [this] { return pending_ == 0 && insideJob_ == 0; });
  job_ = nullptr;
  if (firstError_ != nullptr) {
    std::exception_ptr error = firstError_;
    firstError_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::beginShards(std::size_t shardCount, ShardFnRef fn) {
  asyncJob_ = fn;
  asyncShards_ = shardCount;
  asyncActive_ = true;
  // Small or serial jobs are parked instead of published: finishShards
  // runs them inline, matching forEachShard's serial fast path (in
  // particular, exceptions propagate immediately and in shard order).
  asyncPublished_ = !(shardCount <= 1 || spawned_.empty());
  if (!asyncPublished_) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &*asyncJob_;
    shardCount_ = shardCount;
    nextShard_.store(0, std::memory_order_relaxed);
    pending_ = shardCount;
    firstError_ = nullptr;
    generation_.fetch_add(1, std::memory_order_release);
  }
  wake_.notify_all();
}

void ThreadPool::finishShards() {
  if (!asyncActive_) return;
  asyncActive_ = false;
  if (!asyncPublished_) {
    const ShardFnRef fn = *asyncJob_;
    const std::size_t n = asyncShards_;
    for (std::size_t s = 0; s < n; ++s) fn(s);
    return;
  }
  // Join the published job exactly like forEachShard's calling thread:
  // claim remaining shards, drain the barrier, rethrow the first error.
  const ShardFnRef& fn = *asyncJob_;
  std::size_t completed = 0;
  for (;;) {
    const std::size_t s = nextShard_.fetch_add(1, std::memory_order_relaxed);
    if (s >= asyncShards_) break;
    runShard(fn, s);
    ++completed;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  pending_ -= completed;
  done_.wait(lock, [this] { return pending_ == 0 && insideJob_ == 0; });
  job_ = nullptr;
  if (firstError_ != nullptr) {
    std::exception_ptr error = firstError_;
    firstError_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

// Executes one shard, converting a throw into the recorded first error
// (first in claim order wins deterministically enough for diagnostics;
// the serial path rethrows the genuinely first one). A throwing shard
// still counts as completed so the completion barrier drains; remaining
// shards are drained without running by fast-forwarding the claim
// counter, matching the serial semantics of stopping at the failure.
void ThreadPool::runShard(const ShardFnRef& fn, std::size_t shard) {
  try {
    fn(shard);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (firstError_ == nullptr) firstError_ = std::current_exception();
    // Claim every remaining shard: the fetch_add loops see an exhausted
    // counter and exit, and pending_ is drained below by the claimers'
    // completed counts plus this adjustment.
    const std::size_t already =
        nextShard_.exchange(shardCount_, std::memory_order_relaxed);
    if (already < shardCount_) pending_ -= shardCount_ - already;
  }
}

void ThreadPool::workerLoop() {
  std::uint64_t seenGeneration = 0;
  for (;;) {
    // Spin-then-block: between back-to-back jobs (the speculative engine
    // submits its epoch stages in a row) the next generation usually lands
    // within the spin budget, so the worker picks it up without paying
    // the condvar sleep/wake latency. The bound keeps an idle pool off
    // the CPU: after spinIterations_ polls the worker parks below, and
    // the mutex-guarded predicate re-checks everything the spin saw.
    for (std::size_t spin = 0; spin < spinIterations_; ++spin) {
      if (stopping_.load(std::memory_order_acquire) ||
          generation_.load(std::memory_order_acquire) != seenGeneration) {
        break;
      }
      cpuRelax();
    }
    const ShardFnRef* job = nullptr;
    std::size_t shardCount = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] {
        return stopping_.load(std::memory_order_relaxed) ||
               generation_.load(std::memory_order_relaxed) !=
                   seenGeneration;
      });
      if (stopping_.load(std::memory_order_relaxed)) return;
      seenGeneration = generation_.load(std::memory_order_relaxed);
      // The job may already have drained if every shard was claimed
      // before this worker woke; pending_ == 0 keeps it out of the
      // claim loop entirely.
      if (job_ == nullptr || pending_ == 0) continue;
      job = job_;
      shardCount = shardCount_;
      ++insideJob_;
    }
    std::size_t completed = 0;
    for (;;) {
      const std::size_t s =
          nextShard_.fetch_add(1, std::memory_order_relaxed);
      if (s >= shardCount) break;
      runShard(*job, s);
      ++completed;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      pending_ -= completed;
      --insideJob_;
      if (pending_ == 0 && insideJob_ == 0) done_.notify_all();
    }
  }
}

std::size_t ThreadPool::threadCountFromEnv(const char* var,
                                           std::size_t fallback) {
  const char* raw = std::getenv(var);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const long value = std::strtol(raw, &end, 10);
  if (end == raw || *end != '\0' || value < 0) return fallback;
  return value > 256 ? 256 : static_cast<std::size_t>(value);
}

}  // namespace mcfair::util
