// Fixed-size thread pool for the embarrassingly-parallel parts of the solver
// (multi-start SCG, batch benchmarking).
//
// Design points:
//   * No work stealing, no task graph — a mutex-protected FIFO is plenty for
//     coarse-grained jobs (each SCG start runs for milliseconds to seconds).
//   * Deterministic single-thread fallback: a pool of size ≤ 1 runs every job
//     inline on the calling thread, in submission order, so `UCP_THREADS=1`
//     reproduces the serial execution exactly (no hidden worker thread).
//   * `default_threads()` honours the `UCP_THREADS` environment variable so
//     every binary gets a thread knob without plumbing a flag through.
//
// Callers are responsible for making results independent of execution order
// (the SCG multi-start reduction indexes results by start, so the answer is
// bit-identical for any thread count).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ucp {

class ThreadPool {
public:
    /// Spawns `num_threads` workers. 0 or 1 means "no workers": jobs run
    /// inline on the submitting thread.
    explicit ThreadPool(unsigned num_threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Number of worker threads (0 in inline mode).
    [[nodiscard]] unsigned size() const noexcept {
        return static_cast<unsigned>(workers_.size());
    }

    /// Enqueues a job. In inline mode the job runs before submit() returns.
    void submit(std::function<void()> job);

    /// Blocks until every submitted job has finished.
    void wait();

    /// Runs fn(0) … fn(n-1), distributing indices over the pool; blocks
    /// until all are done. In inline mode runs them in order.
    void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

    /// std::thread::hardware_concurrency with a floor of 1.
    static unsigned hardware_threads() noexcept;

    /// Ceiling for a thread count that comes from outside the program
    /// (`UCP_THREADS`, a `--threads` flag).
    static constexpr unsigned kMaxThreads = 1024;

    /// Thread count to use when the caller does not specify one: the
    /// `UCP_THREADS` environment variable if it is a whole integer in
    /// [1, kMaxThreads], otherwise hardware_threads(). A set but invalid
    /// value is reported once per process on stderr.
    static unsigned default_threads() noexcept;

private:
    void worker_loop();

    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> jobs_;
    std::mutex mutex_;
    std::condition_variable job_ready_;
    std::condition_variable all_done_;
    std::size_t in_flight_ = 0;  // queued + currently executing
    bool stop_ = false;
};

}  // namespace ucp
