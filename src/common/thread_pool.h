// Fixed-size worker pool used for parallel fetch in the query engine
// (paper §4.5.3: "operations, like fetch, join, and sort, are done in a
// local parallel (based on multicore) manner") and for view scatter/gather.
#ifndef COUCHKV_COMMON_THREAD_POOL_H_
#define COUCHKV_COMMON_THREAD_POOL_H_

#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/lockdep.h"
#include "common/synchronization.h"

namespace couchkv {

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueue a task. Safe from any thread, including pool workers.
  void Submit(std::function<void()> task) EXCLUDES(mu_);

  // Block until every task submitted so far has finished.
  void Wait() EXCLUDES(mu_);

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop() EXCLUDES(mu_);
  bool Idle() const REQUIRES(mu_) { return queue_.empty() && active_ == 0; }

  // WorkerLoop bodies run only on pool workers; the queue itself is
  // multi-domain by design (any domain may Submit).
  COUCHKV_AFFINE_TO("thread_pool.worker_loop",
                    lockdep::Domain::kThreadPoolWorker);
  Mutex mu_{"thread_pool.pool"};
  CondVar cv_;       // wakes workers
  CondVar idle_cv_;  // wakes Wait()
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  size_t active_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;
};

}  // namespace couchkv

#endif  // COUCHKV_COMMON_THREAD_POOL_H_
