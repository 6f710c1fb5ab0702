#pragma once
/// \file thread_pool.hpp
/// \brief Data-parallel executor — the CPU stand-in for the paper's GPU.
///
/// Every launch is one index space [begin, end) whose items workers claim
/// from one atomic ticket cursor. Three launch shapes cover every engine
/// path (DESIGN.md §2.1):
///
///  - parallel_for_chunks: a data-parallel kernel over [begin, end) with
///    dynamic chunking (a single CUDA kernel launch); it runs inline when
///    the range is too small to amortize a launch.
///  - run_lanes: one long-running item per index (the exhaustive
///    simulator's tile lanes), handed to the workers however small the
///    count is.
///  - run_beside: run_lanes with a host task on the calling thread while
///    the workers start on the lanes (the sweep's probe loops beside its
///    pair decisions).
///
/// Execution model: persistent workers poll an atomic {epoch, done}
/// control word, claim chunks while the cursor lasts, and spin-then-park
/// between jobs, so an idle pool consumes no CPU. The worker that retires
/// the last item marks the job done. The calling thread participates in
/// every job. The engine code is written purely against this interface,
/// so the mapping back to CUDA kernels is mechanical.
///
/// Concurrency contract: jobs are serialized — launches may come from
/// multiple client threads (e.g. concurrent checks in one process) and
/// whole jobs execute one at a time, so a long job (a sweep round's pair
/// decisions under run_beside) delays every other client's launch. A
/// client that must not wait on another gets its own pool, as the
/// portfolio race's SAT arm and the batch service's sweeps do. Nested
/// submission from inside a worker body is not supported.
///
/// Checked build (`-DSIMSWEEP_CHECKED=ON`): the executor shadow-tracks its
/// own job protocol — a per-item claim bitmap (no index claimed twice),
/// cursor bounds, retirement-counter underflow detection (no chunk retired
/// twice), a single completion per job (only after every item was claimed
/// and retired) and per-worker epoch monotonicity. Violations abort
/// immediately with a diagnostic on stderr prefixed
/// "SIMSWEEP_CHECKED violation". See DESIGN.md §2.2.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"

namespace simsweep::obs {
class Registry;
}  // namespace simsweep::obs

namespace simsweep::parallel {

/// Lifetime utilization telemetry of one pool (see ThreadPool::stats()).
/// All values are process-lifetime totals, so consumers publish them with
/// set (not add) semantics.
struct PoolStats {
  unsigned workers = 0;            ///< worker threads (callers excluded)
  std::uint64_t jobs = 0;          ///< launches distributed over the pool
  std::uint64_t inline_jobs = 0;   ///< launches run inline (too little work)
  std::uint64_t chunks = 0;        ///< chunk claims (workers + callers)
  double lifetime_seconds = 0;     ///< since pool construction
  /// Busy fraction (time inside jobs / lifetime) over the worker threads.
  double busy_mean = 0;
  double busy_min = 0;
  double busy_max = 0;
  /// Worker threads that failed to spawn (std::system_error at pool
  /// construction, or the "pool.spawn" injection site — DESIGN.md §2.4).
  /// The pool degrades to the workers that did start; with zero workers
  /// every launch runs inline on the caller, which is always correct.
  unsigned spawn_failures = 0;
};

#ifdef SIMSWEEP_CHECKED
/// Protocol faults the checked build can inject to prove the detector
/// fires (test-only). The next chunk processed by any pool performs the
/// violation once; the checked build must then abort.
enum class CheckedFault : int {
  kNone = 0,
  kDoubleClaim = 1,   ///< re-claims an already-claimed item index
  kDoubleRetire = 2,  ///< retires a chunk's items a second time
};

/// Arms one-shot fault injection (test-only; checked builds only).
void checked_inject_fault_for_test(CheckedFault fault);
#endif

class ThreadPool {
 public:
  /// Creates a pool with the given number of worker threads (0 = use
  /// std::thread::hardware_concurrency()). The calling thread also
  /// participates in work, so the effective parallelism is workers + 1.
  explicit ThreadPool(unsigned num_workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Process-wide default pool (lazily constructed, sized to the machine).
  static ThreadPool& global();

  /// Effective parallelism (workers + calling thread).
  unsigned concurrency() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Runs body(lo, hi) on contiguous chunks covering [begin, end),
  /// distributed over the pool dynamically, so the caller can hoist
  /// per-chunk setup out of the inner loop. Blocks until every chunk
  /// finished; body must be safe to invoke concurrently on disjoint
  /// chunks. A range too small to amortize a launch runs inline.
  template <typename Body>
  void parallel_for_chunks(std::size_t begin, std::size_t end,
                           const Body& body) {
    if (begin >= end) return;
    if (workers_.empty() || end - begin < 2 * concurrency()) {
      inline_jobs_.fetch_add(1, std::memory_order_relaxed);
      body(begin, end);
      return;
    }
    const BlockFn block = [&body](std::size_t lo, std::size_t hi) {
      body(lo, hi);
    };
    execute(begin, end, block,
            std::max<std::size_t>(1, (end - begin) / (concurrency() * 8)));
  }

  /// Runs body(i) for every i in [0, n), each index its own item, and
  /// hands them to the workers however small n is: for long-running
  /// bodies (e.g. loops that take work off their own ticket), which the
  /// amortization rule of parallel_for_chunks would run one after another
  /// inline. Runs inline only on a pool without workers.
  template <typename Body>
  void run_lanes(std::size_t n, const Body& body) {
    if (n == 0) return;
    if (workers_.empty()) {
      inline_jobs_.fetch_add(1, std::memory_order_relaxed);
      for (std::size_t i = 0; i < n; ++i) body(i);
      return;
    }
    execute(0, n, lanes_of(body), 1);
  }

  /// Runs `host` on the calling thread while the workers start on the
  /// lanes body(0..n), then joins them as run_lanes() does: the caller
  /// claims what no worker took and waits for the rest. For a host task
  /// that the lanes run beside, such as a sweep round's pair decisions
  /// beside its PO probes (DESIGN.md §2.5). Returns false, running
  /// neither, when n is 0, the pool has no workers or another job holds
  /// it; the caller then runs both itself, in the order it needs. A lane
  /// may wait on `host` only for as long as `host` runs: an exception
  /// from `host` is rethrown after the join.
  template <typename Body>
  bool run_beside(std::size_t n, const Body& body,
                  const std::function<void()>& host) {
    if (n == 0 || workers_.empty()) return false;
    return beside(n, lanes_of(body), host);
  }

  /// Lifetime utilization totals (jobs, chunk claims, per-worker busy
  /// fractions). Safe to call concurrently with running jobs; the relaxed
  /// counters give a consistent-enough view for reporting.
  PoolStats stats() const;

  /// Publishes stats() into `registry` as the catalogued `pool.*` gauges
  /// (obs/metric_names.def; set semantics: lifetime totals, idempotent
  /// across publishers).
  void publish(obs::Registry& registry) const;

 private:
  using BlockFn = std::function<void(std::size_t, std::size_t)>;

  template <typename Body>
  static BlockFn lanes_of(const Body& body) {
    return [&body](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) body(i);
    };
  }

  /// The job in flight: its items [begin, end), claimed `chunk` at a time
  /// from `cursor`, and the count of items not yet retired. Cursor and
  /// retirement counter sit on separate cache lines from the immutable
  /// descriptor fields.
  struct Job {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t chunk = 1;
    const BlockFn* block = nullptr;
    alignas(64) std::atomic<std::size_t> cursor{0};
    alignas(64) std::atomic<std::size_t> remaining{0};
#ifdef SIMSWEEP_CHECKED
    /// Shadow protocol state: one bit per item of [begin, end) set at
    /// claim time, and a count of completions of this job.
    std::unique_ptr<std::atomic<std::uint64_t>[]> claimed;
    std::size_t claimed_words = 0;
    std::atomic<std::uint32_t> completions{0};
#endif
  };

  static std::uint64_t pack(std::uint32_t epoch, bool done) {
    return (static_cast<std::uint64_t>(epoch) << 32) | (done ? 1u : 0u);
  }
  static std::uint32_t ctl_epoch(std::uint64_t ctl) {
    return static_cast<std::uint32_t>(ctl >> 32);
  }
  static bool ctl_done(std::uint64_t ctl) { return (ctl & 1u) != 0; }

  void execute(std::size_t begin, std::size_t end, const BlockFn& block,
               std::size_t chunk) SIMSWEEP_EXCLUDES(submit_mutex_);
  bool beside(std::size_t n, const BlockFn& block,
              const std::function<void()>& host)
      SIMSWEEP_EXCLUDES(submit_mutex_);
  /// Loads a job and wakes the workers; returns its epoch. join() then
  /// runs the caller's share and waits for the rest.
  std::uint32_t publish(std::size_t begin, std::size_t end,
                        const BlockFn& block, std::size_t chunk)
      SIMSWEEP_REQUIRES(submit_mutex_);
  void join(std::uint32_t epoch) SIMSWEEP_REQUIRES(submit_mutex_);
  /// Claims and runs chunks of job `epoch` until its cursor is drained.
  /// `stat_slot` selects the per-thread utilization cell chunk claims are
  /// charged to: 0 for submitting threads, i+1 for worker i.
  void run_job(std::uint32_t epoch, std::size_t stat_slot)
      SIMSWEEP_NO_THREAD_SAFETY_ANALYSIS;
  void worker_loop(std::size_t worker_index);
  void park(std::uint32_t seen_epoch);

#ifdef SIMSWEEP_CHECKED
  /// Marks items [lo, hi) as claimed; aborts on a re-claim or a chunk
  /// outside the job's range.
  void checked_claim(std::uint32_t epoch, std::size_t lo, std::size_t hi)
      SIMSWEEP_NO_THREAD_SAFETY_ANALYSIS;
  /// Underflow-checked retirement; aborts on a double retire.
  std::size_t checked_retire(std::uint32_t epoch, std::size_t items)
      SIMSWEEP_NO_THREAD_SAFETY_ANALYSIS;
  /// Completion-side invariants: one completion, every item claimed and
  /// retired.
  void checked_complete(std::uint32_t epoch)
      SIMSWEEP_NO_THREAD_SAFETY_ANALYSIS;
#endif

  /// Serializes whole jobs: the pool runs one launch at a time, so it is
  /// safe to call from multiple client threads. Held for the job duration.
  common::Mutex submit_mutex_;

  // audit:exempt(written only in the constructor, joined in the
  // destructor; between those points workers_ is immutable)
  std::vector<std::thread> workers_;

  // Job state. Written only under submit_mutex_ while the pool is
  // quiescent (active_ == 0) and published to workers by the control_
  // store / their control_ load. Worker-side readers (run_job) are
  // outside the analysis — see the SIMSWEEP_NO_THREAD_SAFETY_ANALYSIS
  // declarations above.
  Job job_ SIMSWEEP_GUARDED_BY(submit_mutex_);
  std::uint32_t epoch_ SIMSWEEP_GUARDED_BY(submit_mutex_) = 0;

  /// {epoch, done} control word: the single cell workers poll. A done
  /// job has every item retired; no other job is in flight.
  alignas(64) std::atomic<std::uint64_t> control_{pack(0, true)};
  /// Number of workers currently inside run_job (quiescence barrier).
  alignas(64) std::atomic<unsigned> active_{0};

  // --- Utilization telemetry (see PoolStats / publish()). ---
  //
  // Per-thread cells: slot 0 is shared by all submitting threads, slot
  // i+1 belongs to worker i. Relaxed atomics: counts are monotone and
  // only read for reporting; each worker slot has a single writer, so
  // the cache line stays local. The one chunk-claim increment per chunk
  // is noise next to the chunk body itself.
  struct alignas(64) WorkerStat {
    std::atomic<std::uint64_t> chunks{0};
    std::atomic<std::uint64_t> busy_ns{0};
  };
  // audit:exempt(array of single-writer relaxed atomic cells, sized
  // once in the constructor)
  std::unique_ptr<WorkerStat[]> worker_stats_;  ///< size workers_ + 1
  /// Threads that failed to start (written once in the constructor, read
  /// only after — no synchronization needed). audit:exempt(write-once)
  unsigned spawn_failures_ = 0;
  std::atomic<std::uint64_t> jobs_{0};
  std::atomic<std::uint64_t> inline_jobs_{0};
  // audit:exempt(set once in the constructor, read-only after)
  std::chrono::steady_clock::time_point created_;

  // Parking (only touched on the idle path). park_mutex_ guards no data —
  // it only pairs the condition variable with the control_/stop_ checks —
  // so it stays a plain std::mutex outside the analysis and outside the
  // rank table. audit:exempt(condition_variable pairing; guards no data)
  std::mutex park_mutex_;
  std::condition_variable park_cv_;
  std::atomic<unsigned> num_parked_{0};
  std::atomic<bool> stop_{false};
};

/// Convenience wrapper over the global pool.
template <typename Body>
void parallel_for_chunks(std::size_t begin, std::size_t end,
                         const Body& body) {
  ThreadPool::global().parallel_for_chunks(begin, end, body);
}

}  // namespace simsweep::parallel
