#include "omp/omp.h"

#include <algorithm>

#include "common/check.h"

namespace pstk::omp {

// ---------------------------------------------------------------------------
// ThreadCtx
// ---------------------------------------------------------------------------

void ThreadCtx::Barrier() { runtime_.RegionBarrier(); }

void ThreadCtx::Critical(const std::function<void()>& body) {
  std::lock_guard<std::mutex> lock(runtime_.critical_mu_);
  body();
}

void ThreadCtx::Single(const std::function<void()>& body) {
  bool winner = false;
  {
    std::lock_guard<std::mutex> lock(runtime_.single_mu_);
    // Every thread executes the same sequence of Single constructs; the
    // first to arrive at instance k claims it.
    ++single_count_;
    if (runtime_.single_done_epoch_ < single_count_) {
      runtime_.single_done_epoch_ = single_count_;
      winner = true;
    }
  }
  if (winner) body();
  Barrier();  // implicit barrier at the end of single
}

// ---------------------------------------------------------------------------
// TaskGroup
// ---------------------------------------------------------------------------

void TaskGroup::Run(std::function<void()> task) {
  pending_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(runtime_.mu_);
    runtime_.tasks_.emplace_back(this, std::move(task));
  }
  runtime_.work_cv_.notify_one();
}

void TaskGroup::Wait() { runtime_.DrainTasks(*this); }

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

Runtime::Runtime(int num_threads)
    : num_threads_(num_threads > 0
                       ? num_threads
                       : static_cast<int>(std::max(
                             1u, std::thread::hardware_concurrency()))) {
  // The calling thread acts as thread 0; spawn the rest.
  workers_.reserve(static_cast<std::size_t>(num_threads_ - 1));
  for (int tid = 1; tid < num_threads_; ++tid) {
    workers_.emplace_back([this, tid] { WorkerLoop(tid); });
  }
}

Runtime::~Runtime() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void Runtime::WorkerLoop(int tid) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    std::unique_lock<std::mutex> lock(mu_);
    work_cv_.wait(lock, [&] {
      return shutdown_ || region_epoch_ != seen_epoch || !tasks_.empty();
    });
    if (shutdown_) return;
    if (region_epoch_ != seen_epoch) {
      seen_epoch = region_epoch_;
      const auto* body = region_body_;
      lock.unlock();
      ThreadCtx ctx(*this, tid, num_threads_);
      (*body)(ctx);
      lock.lock();
      if (--region_active_ == 0) done_cv_.notify_all();
      continue;
    }
    if (!tasks_.empty()) {
      auto [group, task] = std::move(tasks_.front());
      tasks_.pop_front();
      lock.unlock();
      task();
      if (group->pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Notify under mu_: DrainTasks reads pending_ under mu_ and then
        // waits, and a notify between the two would be lost.
        lock.lock();
        done_cv_.notify_all();
      }
    }
  }
}

void Runtime::Parallel(const std::function<void(ThreadCtx&)>& body) {
  PSTK_CHECK_MSG(region_body_ == nullptr,
                 "nested parallel regions are not supported");
  if (num_threads_ == 1) {
    single_done_epoch_ = 0;
    ThreadCtx ctx(*this, 0, 1);
    body(ctx);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    region_body_ = &body;
    region_active_ = num_threads_ - 1;
    single_done_epoch_ = 0;
    ++region_epoch_;
  }
  work_cv_.notify_all();

  ThreadCtx ctx(*this, 0, num_threads_);
  body(ctx);

  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return region_active_ == 0; });
  region_body_ = nullptr;
}

void Runtime::RegionBarrier() {
  std::unique_lock<std::mutex> lock(barrier_mu_);
  const std::uint64_t generation = barrier_generation_;
  if (++barrier_waiting_ == num_threads_) {
    barrier_waiting_ = 0;
    ++barrier_generation_;
    barrier_cv_.notify_all();
    return;
  }
  barrier_cv_.wait(lock, [&] { return barrier_generation_ != generation; });
}

void Runtime::DrainTasks(TaskGroup& group) {
  for (;;) {
    if (group.pending_.load(std::memory_order_acquire) == 0) return;
    std::unique_lock<std::mutex> lock(mu_);
    if (!tasks_.empty()) {
      auto [owner, task] = std::move(tasks_.front());
      tasks_.pop_front();
      lock.unlock();
      task();
      if (owner->pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        lock.lock();  // see WorkerLoop
        done_cv_.notify_all();
      }
      continue;
    }
    // Queue empty but tasks of our group still in flight on workers.
    done_cv_.wait(lock, [&] {
      return group.pending_.load(std::memory_order_acquire) == 0 ||
             !tasks_.empty();
    });
  }
}

void Runtime::RunWorksharing(
    std::int64_t begin, std::int64_t end, Schedule schedule,
    std::int64_t chunk,
    const std::function<void(int, std::int64_t, std::int64_t)>& fn) {
  if (begin >= end) return;
  const std::int64_t total = end - begin;
  const auto nthreads = static_cast<std::int64_t>(num_threads_);

  switch (schedule) {
    case Schedule::kStatic: {
      if (chunk <= 0) {
        // One contiguous slice per thread.
        Parallel([&](ThreadCtx& ctx) {
          const std::int64_t tid = ctx.thread_num();
          const std::int64_t base = total / nthreads;
          const std::int64_t extra = total % nthreads;
          const std::int64_t lo =
              begin + tid * base + std::min<std::int64_t>(tid, extra);
          const std::int64_t len = base + (tid < extra ? 1 : 0);
          if (len > 0) fn(ctx.thread_num(), lo, lo + len);
        });
      } else {
        // Round-robin chunks of the given size.
        Parallel([&](ThreadCtx& ctx) {
          for (std::int64_t lo = begin + ctx.thread_num() * chunk; lo < end;
               lo += nthreads * chunk) {
            fn(ctx.thread_num(), lo, std::min(end, lo + chunk));
          }
        });
      }
      break;
    }
    case Schedule::kDynamic: {
      const std::int64_t step = std::max<std::int64_t>(1, chunk);
      std::atomic<std::int64_t> next{begin};
      Parallel([&](ThreadCtx& ctx) {
        for (;;) {
          const std::int64_t lo =
              next.fetch_add(step, std::memory_order_relaxed);
          if (lo >= end) break;
          fn(ctx.thread_num(), lo, std::min(end, lo + step));
        }
      });
      break;
    }
    case Schedule::kGuided: {
      const std::int64_t min_chunk = std::max<std::int64_t>(1, chunk);
      std::atomic<std::int64_t> next{begin};
      Parallel([&](ThreadCtx& ctx) {
        for (;;) {
          std::int64_t lo = next.load(std::memory_order_relaxed);
          std::int64_t take;
          do {
            if (lo >= end) return;
            const std::int64_t remaining = end - lo;
            take = std::max(min_chunk, remaining / (2 * nthreads));
            take = std::min(take, remaining);
          } while (!next.compare_exchange_weak(lo, lo + take,
                                               std::memory_order_relaxed));
          fn(ctx.thread_num(), lo, lo + take);
        }
      });
      break;
    }
  }
}

void Runtime::ParallelFor(std::int64_t begin, std::int64_t end,
                          const std::function<void(std::int64_t)>& body,
                          Schedule schedule, std::int64_t chunk) {
  RunWorksharing(begin, end, schedule, chunk,
                 [&](int, std::int64_t lo, std::int64_t hi) {
                   for (std::int64_t i = lo; i < hi; ++i) body(i);
                 });
}

void Runtime::ParallelForRanges(
    std::int64_t begin, std::int64_t end,
    const std::function<void(std::int64_t, std::int64_t)>& body,
    Schedule schedule, std::int64_t chunk) {
  RunWorksharing(
      begin, end, schedule, chunk,
      [&](int, std::int64_t lo, std::int64_t hi) { body(lo, hi); });
}

}  // namespace pstk::omp
