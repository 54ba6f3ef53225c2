#include "common/thread_pool.h"

#include "common/lockdep.h"

namespace couchkv {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] {
      lockdep::ScopedDomain domain(lockdep::Domain::kThreadPoolWorker);
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    LockGuard lock(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    LockGuard lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.NotifyOne();
}

void ThreadPool::Wait() {
  UniqueLock lock(mu_);
  while (!Idle()) idle_cv_.Wait(lock);
}

void ThreadPool::WorkerLoop() {
  COUCHKV_ASSERT_AFFINE();
  for (;;) {
    std::function<void()> task;
    {
      UniqueLock lock(mu_);
      while (!stop_ && queue_.empty()) cv_.Wait(lock);
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      LockGuard lock(mu_);
      --active_;
      if (Idle()) idle_cv_.NotifyAll();
    }
  }
}

}  // namespace couchkv
