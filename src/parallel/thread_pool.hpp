#pragma once
/// \file thread_pool.hpp
/// \brief Staged data-parallel executor — the CPU stand-in for the paper's
/// GPU.
///
/// Every parallel algorithm in the paper is a data-parallel kernel over a
/// flat index space (words of a truth table, nodes of a level batch,
/// windows of a batch — the "three dimensions of parallelism" of paper
/// Fig. 3). This module provides that execution model on CPU threads with
/// GPU-like launch semantics:
///
///  - parallel_for / parallel_for_chunks: one kernel over [begin, end)
///    with dynamic chunking (a single CUDA kernel launch).
///  - StagePlan + parallel_stages(): a whole sequence of dependent index
///    spaces — e.g. input projection -> level 1..L -> root compare of one
///    simulation round — submitted as ONE launch. Stages are separated by
///    lightweight internal barriers (the last worker to retire a chunk of
///    stage s opens stage s+1 with a single atomic store), so a fused
///    launch costs one submission handshake instead of one per stage.
///    This mirrors a CUDA stream: kernels queued back-to-back with
///    device-side ordering, no host round-trip between them.
///
/// Execution model: persistent workers poll an atomic {epoch, stage}
/// control word and claim contiguous chunks from a per-stage atomic ticket
/// cursor. Workers spin briefly between stages (barriers are short-lived)
/// and spin-then-park between jobs, so an idle pool consumes no CPU. The
/// calling thread participates in every job. The engine code is written
/// purely against this interface, so the mapping back to CUDA kernels is
/// mechanical (see DESIGN.md §2).
///
/// Concurrency contract: jobs are serialized — run_stages/parallel_for may
/// be called from multiple client threads (e.g. the portfolio checker
/// racing several engines) and whole jobs execute one at a time. Nested
/// submission from inside a worker body is not supported (as before).
///
/// Checked build (`-DSIMSWEEP_CHECKED=ON`): the executor shadow-tracks its
/// own stage protocol — a per-item claim bitmap (no index claimed twice),
/// retirement-counter underflow detection (no chunk retired twice),
/// single-open stage barriers (a stage opens exactly once, and only after
/// every item of the previous stage retired) and per-worker epoch
/// monotonicity. Violations abort immediately with a diagnostic on stderr
/// prefixed "SIMSWEEP_CHECKED violation". See DESIGN.md §2.2.

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

class ThreadPool;

/// Lifetime utilization telemetry of one pool (see ThreadPool::stats()).
/// All values are process-lifetime totals, so consumers publish them with
/// set (not add) semantics.
struct PoolStats {
  unsigned workers = 0;            ///< worker threads (callers excluded)
  std::uint64_t jobs = 0;          ///< launches distributed over the pool
  std::uint64_t inline_jobs = 0;   ///< launches run inline (too little work)
  std::uint64_t stages = 0;        ///< stages across distributed launches
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

/// An ordered sequence of data-parallel stages executed as one fused
/// launch: stage i+1 starts only after every index of stage i finished
/// (internal barrier), but no stage pays a separate submission handshake.
///
/// A plan only references its bodies, so it can be built once and re-run
/// many times (e.g. once per simulation round with the round number
/// captured by reference); it must outlive every run_stages() call using
/// it. An optional cancellation flag is checked at every chunk claim and
/// stage barrier: once it fires, remaining work is skipped and the run
/// reports cancellation.
class StagePlan {
 public:
  /// Appends a stage running body(i) for every i in [begin, end).
  template <typename Body>
  void stage(std::size_t begin, std::size_t end, Body body) {
    stages_.push_back({begin, end,
                       [b = std::move(body)](std::size_t lo, std::size_t hi) {
                         for (std::size_t i = lo; i < hi; ++i) b(i);
                       }});
  }

  /// Appends a stage running body(lo, hi) on contiguous chunks of
  /// [begin, end), letting the caller hoist per-chunk setup.
  template <typename Body>
  void stage_chunks(std::size_t begin, std::size_t end, Body body) {
    stages_.push_back({begin, end, std::move(body)});
  }

  /// Cooperative cancellation for the whole plan (may be nullptr).
  void set_cancel(const std::atomic<bool>* cancel) { cancel_ = cancel; }

  /// Granular launch: every index is its own chunk and the launch is
  /// distributed even when the index space is tiny. For stages whose
  /// items are long-running bodies (e.g. the sweeper's shard loops, each
  /// processing work off its own ticket cursor), not fine-grained data
  /// parallelism — the usual "too little work to amortize a launch"
  /// heuristic would run them sequentially inline.
  void set_granular(bool granular) { granular_ = granular; }

  void clear() { stages_.clear(); }
  std::size_t num_stages() const { return stages_.size(); }

 private:
  friend class ThreadPool;
  using BlockFn = std::function<void(std::size_t, std::size_t)>;
  struct PlanStage {
    std::size_t begin;
    std::size_t end;
    BlockFn block;
  };
  std::vector<PlanStage> stages_;
  const std::atomic<bool>* cancel_ = nullptr;
  bool granular_ = false;
};

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

  /// Runs body(i) for every i in [begin, end), distributing contiguous
  /// chunks over the pool dynamically. Blocks until all iterations finish.
  /// body must be safe to invoke concurrently for distinct i.
  template <typename Body>
  void parallel_for(std::size_t begin, std::size_t end, const Body& body) {
    if (begin >= end) return;
    if (workers_.empty() || end - begin < 2 * concurrency()) {
      inline_jobs_.fetch_add(1, std::memory_order_relaxed);
      for (std::size_t i = begin; i < end; ++i) body(i);
      return;
    }
    const BlockFn block = [&body](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) body(i);
    };
    const StageRef ref{begin, end, &block};
    execute(&ref, 1, nullptr);
  }

  /// Chunked variant: body(lo, hi) handles a contiguous block, letting the
  /// caller hoist per-chunk setup out of the inner loop.
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
    const StageRef ref{begin, end, &block};
    execute(&ref, 1, nullptr);
  }

  /// Executes every stage of the plan in order with internal barriers.
  /// Returns false iff the plan's cancellation flag fired (some work was
  /// then skipped and the caller must discard partial results).
  bool run_stages(const StagePlan& plan);

  /// Runs `host` on the calling thread while the workers start on `plan`,
  /// then joins the plan as run_stages() does: the caller claims what no
  /// worker took and waits for the rest. For a host task that the plan's
  /// bodies run beside, such as a sweep round's pair decisions beside its
  /// PO probes (DESIGN.md §2.5). Returns false, running neither, when the
  /// pool has no workers or another job holds it; the caller then runs
  /// both itself, in the order it needs. A plan body may wait on `host`
  /// only for as long as `host` runs: an exception from `host` is
  /// rethrown after the join.
  bool run_beside(const StagePlan& plan, const std::function<void()>& host);

  /// Lifetime utilization totals (jobs, stages, chunk claims, per-worker
  /// busy fractions). Safe to call concurrently with running jobs; the
  /// relaxed counters give a consistent-enough view for reporting.
  PoolStats stats() const;

  /// Publishes stats() into `registry` as the catalogued `pool.*` gauges
  /// (obs/metric_names.def; set semantics: lifetime totals, idempotent
  /// across publishers).
  void publish(obs::Registry& registry) const;

 private:
  using BlockFn = StagePlan::BlockFn;

  /// A stage as submitted: the body lives in the caller's frame / plan.
  struct StageRef {
    std::size_t begin;
    std::size_t end;
    const BlockFn* block;
  };

  /// Live per-stage execution state. Cursor and retirement counter sit on
  /// separate cache lines from the immutable descriptor fields.
  struct StageSlot {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t chunk = 1;
    const BlockFn* block = nullptr;
    alignas(64) std::atomic<std::size_t> cursor{0};
    alignas(64) std::atomic<std::size_t> remaining{0};
#ifdef SIMSWEEP_CHECKED
    /// Shadow protocol state: one bit per item of [begin, end) set at
    /// claim time, and a count of barrier openings for this slot.
    std::unique_ptr<std::atomic<std::uint64_t>[]> claimed;
    std::size_t claimed_words = 0;
    std::atomic<std::uint32_t> opened{0};
#endif
  };

  static constexpr std::uint32_t kStageDone = 0xFFFFFFFFu;
  static std::uint64_t pack(std::uint32_t epoch, std::uint32_t stage) {
    return (static_cast<std::uint64_t>(epoch) << 32) | stage;
  }
  static std::uint32_t ctl_epoch(std::uint64_t ctl) {
    return static_cast<std::uint32_t>(ctl >> 32);
  }
  static std::uint32_t ctl_stage(std::uint64_t ctl) {
    return static_cast<std::uint32_t>(ctl);
  }

  bool execute(const StageRef* stages, std::size_t n,
               const std::atomic<bool>* cancel, bool granular = false)
      SIMSWEEP_EXCLUDES(submit_mutex_);
  /// Loads a job into the stage slots and wakes the workers; returns its
  /// epoch. join() then runs the caller's share and waits for the rest.
  std::uint32_t publish(const StageRef* stages, std::size_t n,
                        const std::atomic<bool>* cancel, bool granular)
      SIMSWEEP_REQUIRES(submit_mutex_);
  void join(std::uint32_t epoch) SIMSWEEP_REQUIRES(submit_mutex_);
  static std::vector<StageRef> refs_of(const StagePlan& plan);
  /// `stat_slot` selects the per-thread utilization cell chunk claims are
  /// charged to: 0 for submitting threads, i+1 for worker i.
  void run_job(std::uint32_t epoch, std::size_t stat_slot)
      SIMSWEEP_NO_THREAD_SAFETY_ANALYSIS;
  void advance_stage(std::uint32_t epoch, std::uint32_t s)
      SIMSWEEP_NO_THREAD_SAFETY_ANALYSIS;
  void worker_loop(std::size_t worker_index);
  void park(std::uint32_t seen_epoch);

#ifdef SIMSWEEP_CHECKED
  /// Marks items [lo, hi) of slot s as claimed; aborts on a re-claim.
  void checked_claim(std::uint32_t epoch, std::uint32_t s, std::size_t lo,
                     std::size_t hi) SIMSWEEP_NO_THREAD_SAFETY_ANALYSIS;
  /// Underflow-checked retirement; aborts on a double retire.
  std::size_t checked_retire(std::uint32_t epoch, std::uint32_t s,
                             std::size_t items)
      SIMSWEEP_NO_THREAD_SAFETY_ANALYSIS;
  /// Barrier-side invariants: single open, all items claimed + retired.
  void checked_open(std::uint32_t epoch, std::uint32_t s)
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
  // store (release) / their control_ load (acquire). Worker-side readers
  // (run_job, advance_stage) are outside the analysis — see the
  // SIMSWEEP_NO_THREAD_SAFETY_ANALYSIS declarations above.
  std::unique_ptr<StageSlot[]> slots_ SIMSWEEP_GUARDED_BY(submit_mutex_);
  std::size_t slot_capacity_ SIMSWEEP_GUARDED_BY(submit_mutex_) = 0;
  std::size_t num_stages_ SIMSWEEP_GUARDED_BY(submit_mutex_) = 0;
  const std::atomic<bool>* cancel_ SIMSWEEP_GUARDED_BY(submit_mutex_) =
      nullptr;
  std::uint32_t epoch_ SIMSWEEP_GUARDED_BY(submit_mutex_) = 0;

  /// {epoch, stage} control word: the single cell workers poll. Stage
  /// kStageDone means "no job in flight".
  alignas(64) std::atomic<std::uint64_t> control_{pack(0, kStageDone)};
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
  std::atomic<std::uint64_t> stages_submitted_{0};
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

/// Convenience wrappers over the global pool.
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, const Body& body) {
  ThreadPool::global().parallel_for(begin, end, body);
}

template <typename Body>
void parallel_for_chunks(std::size_t begin, std::size_t end,
                         const Body& body) {
  ThreadPool::global().parallel_for_chunks(begin, end, body);
}

inline bool parallel_stages(const StagePlan& plan) {
  return ThreadPool::global().run_stages(plan);
}

}  // namespace simsweep::parallel
