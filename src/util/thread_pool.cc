#include "util/thread_pool.h"

#include <atomic>

namespace selnet::util {

namespace {
thread_local bool tls_in_pool_worker = false;
}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  task_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
  }
  task_cv_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return tasks_.empty() && in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  tls_in_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
      ++in_flight_;
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      --in_flight_;
      if (tasks_.empty() && in_flight_ == 0) done_cv_.notify_all();
    }
  }
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool;
  return pool;
}

void ParallelFor(size_t begin, size_t end, const std::function<void(size_t)>& fn,
                 size_t grain) {
  if (end <= begin) return;
  size_t n = end - begin;
  ThreadPool& pool = ThreadPool::Global();
  // Serial fallback: tiny ranges, single-threaded pools, or nested calls from
  // inside a worker (the simple pool does not support nested waits).
  if (n <= grain || pool.num_threads() <= 1 || tls_in_pool_worker) {
    for (size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  size_t num_chunks = std::min(n / grain + 1, pool.num_threads() * 4);
  std::atomic<size_t> next{begin};
  size_t done_chunks = 0;  // Guarded by mu.
  std::mutex mu;
  std::condition_variable cv;
  for (size_t c = 0; c < num_chunks; ++c) {
    pool.Submit([&, grain] {
      for (;;) {
        size_t chunk_begin = next.fetch_add(grain);
        if (chunk_begin >= end) break;
        size_t chunk_end = std::min(chunk_begin + grain, end);
        for (size_t i = chunk_begin; i < chunk_end; ++i) fn(i);
      }
      // Count and notify under the caller's lock. mu, cv and the counters
      // live on the caller's stack; the caller can see the count complete
      // only after this worker releases mu, and the worker touches none of
      // them after that.
      std::lock_guard<std::mutex> lock(mu);
      if (++done_chunks == num_chunks) cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done_chunks == num_chunks; });
}

}  // namespace selnet::util
