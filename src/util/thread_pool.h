#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

/// \file thread_pool.h
/// \brief Minimal fixed-size thread pool plus a blocking ParallelFor helper.
///
/// Used for embarrassingly parallel work: exact selectivity scans, workload
/// label generation, and batched model evaluation. The pool is intentionally
/// simple — tasks may not spawn nested tasks into the same pool.

namespace selnet::util {

/// \brief Fixed-size worker pool executing queued tasks FIFO.
class ThreadPool {
 public:
  /// \param num_threads worker count; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(size_t num_threads = 0);
  virtual ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// \brief Enqueue a task; returns immediately. Virtual so a test can stall
  /// or observe a component's handoff to its pool.
  virtual void Submit(std::function<void()> task);

  /// \brief Enqueue a callable and get a future for its result.
  ///
  /// Exceptions thrown by `fn` propagate through the future. Do not block on
  /// the future from inside a pool worker — the pool does not support nested
  /// waits (same restriction as Wait()).
  template <typename F>
  auto SubmitWithResult(F&& fn)
      -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    Submit([task]() { (*task)(); });
    return result;
  }

  /// \brief Block until every queued and running task has finished.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

  /// \brief Process-wide shared pool (lazily constructed).
  static ThreadPool& Global();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable task_cv_;   // signals workers: task available / stop
  std::condition_variable done_cv_;   // signals Wait(): all work drained
  size_t in_flight_ = 0;
  bool stop_ = false;
};

/// \brief Run `fn(i)` for i in [begin, end) across the global pool.
///
/// Blocks until all iterations complete. Falls back to a serial loop for
/// small ranges or when called from within a pool worker.
void ParallelFor(size_t begin, size_t end, const std::function<void(size_t)>& fn,
                 size_t grain = 64);

}  // namespace selnet::util
