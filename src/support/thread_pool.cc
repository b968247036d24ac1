#include "support/thread_pool.hh"

#include <exception>

namespace webslice {

ThreadPool::ThreadPool(unsigned workers)
{
    workers_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::workerLoop()
{
    while (true) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
            if (tasks_.empty())
                return; // stop_ set and queue drained
            task = std::move(tasks_.front());
            tasks_.pop();
        }
        task();
    }
}

void
TaskGroup::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [this] { return outstanding_ == 0; });
    if (error_) {
        std::exception_ptr error = error_;
        error_ = nullptr;
        std::rethrow_exception(error);
    }
}

size_t
TaskGroup::outstanding() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return outstanding_;
}

void
TaskGroup::finishOne(std::exception_ptr error)
{
    // Notify under the lock: once outstanding_ reaches zero a waiter may
    // return and destroy the group, so done_ must not be touched after
    // the mutex is released.
    std::lock_guard<std::mutex> lock(mutex_);
    --outstanding_;
    if (error && !error_)
        error_ = error;
    done_.notify_all();
}

void
ThreadPool::runGroupTask(TaskGroup &group,
                         const std::function<void()> &task)
{
    std::exception_ptr error;
    try {
        task();
    } catch (...) {
        error = std::current_exception();
    }
    group.finishOne(error);
}

void
ThreadPool::post(TaskGroup &group, std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(group.mutex_);
        ++group.outstanding_;
    }
    if (workers_.empty()) {
        runGroupTask(group, task);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        tasks_.push([&group, task = std::move(task)] {
            runGroupTask(group, task);
        });
    }
    cv_.notify_one();
}

void
ThreadPool::drain(TaskGroup &group)
{
    while (true) {
        std::function<void()> task;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (tasks_.empty())
                break;
            task = std::move(tasks_.front());
            tasks_.pop();
        }
        task();
    }
    group.wait();
}

} // namespace webslice
