#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <system_error>

#include "common/lock_ranks.hpp"
#include "fault/fault.hpp"
#include "obs/metric_names.hpp"
#include "obs/registry.hpp"

#ifdef SIMSWEEP_CHECKED
#include <cstdio>
#include <cstdlib>
#endif

namespace simsweep::parallel {

namespace {

/// One step of a short busy-wait. On x86 `pause` keeps the spin cheap and
/// polite to the sibling hyperthread; everywhere (and periodically on x86
/// too) we yield so single-core hosts make progress instead of burning the
/// waiter's whole timeslice.
inline void relax(unsigned& spins) {
#if defined(__x86_64__) || defined(__i386__)
  if ((++spins & 7u) != 0) {
    __builtin_ia32_pause();
    return;
  }
#else
  ++spins;
#endif
  std::this_thread::yield();
}

/// Idle spins before a worker parks on the condition variable.
constexpr unsigned kIdleSpins = 256;

#ifdef SIMSWEEP_CHECKED
/// One-shot armed protocol fault (test-only; see checked_inject_fault_*).
std::atomic<int> g_checked_fault{0};

/// Pops the armed fault iff it matches `want` (so claim- and retire-side
/// injection points do not steal each other's fault).
bool take_fault(CheckedFault want) {
  int expected = static_cast<int>(want);
  return g_checked_fault.compare_exchange_strong(
      expected, 0, std::memory_order_relaxed);
}

[[noreturn]] void protocol_violation(const char* what, std::uint32_t epoch,
                                     std::size_t a, std::size_t b) {
  std::fprintf(stderr,
               "SIMSWEEP_CHECKED violation: %s (epoch=%u detail=%zu/%zu)\n",
               what, epoch, a, b);
  std::fflush(stderr);
  std::abort();
}
#endif

}  // namespace

#ifdef SIMSWEEP_CHECKED
void checked_inject_fault_for_test(CheckedFault fault) {
  g_checked_fault.store(static_cast<int>(fault), std::memory_order_relaxed);
}
#endif

ThreadPool::ThreadPool(unsigned num_workers) {
  if (num_workers == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    num_workers = hw > 1 ? hw - 1 : 0;
  }
  created_ = std::chrono::steady_clock::now();
  worker_stats_ = std::make_unique<WorkerStat[]>(num_workers + 1);
  workers_.reserve(num_workers);
  for (unsigned i = 0; i < num_workers; ++i) {
    // Injection site `pool.spawn` (DESIGN.md §2.4): thread creation can
    // fail under thread-count limits. The pool degrades to the workers
    // that did start — worker_stats_ was sized up front and worker
    // indices are dense in [0, workers_.size()), so a short pool is
    // fully functional; with zero workers every launch runs inline.
    try {
      if (SIMSWEEP_FAULT_POINT(fault::sites::kPoolSpawn))
        throw std::system_error(
            std::make_error_code(std::errc::resource_unavailable_try_again),
            "injected fault at pool.spawn");
      workers_.emplace_back(
          [this, i = static_cast<unsigned>(workers_.size())] {
            worker_loop(i);
          });
    } catch (const std::system_error&) {
      ++spawn_failures_;
    }
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_seq_cst);
  {
    std::lock_guard lock(park_mutex_);
  }
  park_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::execute(std::size_t begin, std::size_t end,
                         const BlockFn& block, std::size_t chunk) {
  common::RankedMutexLock submit(submit_mutex_, common::lock_ranks::pool);
  join(publish(begin, end, block, chunk));
}

bool ThreadPool::beside(std::size_t n, const BlockFn& block,
                        const std::function<void()>& host) {
  // A try-lock never waits, so it cannot invert the rank order; the rank
  // is still noted so that locks taken inside `host` are checked.
  common::lock_ranks::detail::note_acquire(common::LockRank::kPool);
  if (!submit_mutex_.try_lock()) {
    common::lock_ranks::detail::note_release(common::LockRank::kPool);
    return false;
  }
  std::uint32_t e = 0;
  try {
    e = publish(0, n, block, 1);
  } catch (...) {
    // The checked build's claim bitmap could not be allocated; no worker
    // saw the job.
    submit_mutex_.unlock();
    common::lock_ranks::detail::note_release(common::LockRank::kPool);
    return false;
  }
  std::exception_ptr failure;
  try {
    host();
  } catch (...) {
    failure = std::current_exception();
  }
  join(e);
  submit_mutex_.unlock();
  common::lock_ranks::detail::note_release(common::LockRank::kPool);
  if (failure) std::rethrow_exception(failure);
  return true;
}

std::uint32_t ThreadPool::publish(std::size_t begin, std::size_t end,
                                  const BlockFn& block, std::size_t chunk) {
  // The job may be rewritten here: quiescence is guaranteed — the previous
  // job's submitter only returned once active_ hit 0.
  const std::size_t items = end - begin;
  job_.begin = begin;
  job_.end = end;
  job_.chunk = chunk;
  job_.block = &block;
  job_.cursor.store(begin, std::memory_order_relaxed);
  job_.remaining.store(items, std::memory_order_relaxed);
#ifdef SIMSWEEP_CHECKED
  const std::size_t words = (items + 63) / 64;
  if (words > job_.claimed_words) {
    job_.claimed = std::make_unique<std::atomic<std::uint64_t>[]>(words);
    job_.claimed_words = words;
  }
  for (std::size_t w = 0; w < words; ++w)
    job_.claimed[w].store(0, std::memory_order_relaxed);
  job_.completions.store(0, std::memory_order_relaxed);
#endif
  jobs_.fetch_add(1, std::memory_order_relaxed);
  const std::uint32_t e = ++epoch_;
  control_.store(pack(e, false), std::memory_order_seq_cst);
  if (num_parked_.load(std::memory_order_seq_cst) > 0) {
    {
      std::lock_guard lock(park_mutex_);
    }
    park_cv_.notify_all();
  }
  return e;
}

void ThreadPool::join(std::uint32_t epoch) {
  // The calling thread participates, waits for the last item to retire,
  // then for stragglers to leave the job before its state may be reused.
  // The done store, these loads and the workers' active_ increments are
  // all seq_cst: a worker that enters after the active_ wait read 0 must
  // then see the job done and leave without touching it.
  const auto job_start = std::chrono::steady_clock::now();
  run_job(epoch, /*stat_slot=*/0);
  unsigned spins = 0;
  while (control_.load(std::memory_order_seq_cst) != pack(epoch, true))
    relax(spins);
  while (active_.load(std::memory_order_seq_cst) != 0) relax(spins);
  worker_stats_[0].busy_ns.fetch_add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - job_start)
              .count()),
      std::memory_order_relaxed);
}

void ThreadPool::run_job(std::uint32_t epoch, std::size_t stat_slot) {
  if (control_.load(std::memory_order_seq_cst) != pack(epoch, false)) return;
  for (;;) {
    const std::size_t lo =
        job_.cursor.fetch_add(job_.chunk, std::memory_order_relaxed);
    if (lo >= job_.end) return;  // drained; the last retirer marks done
    worker_stats_[stat_slot].chunks.fetch_add(1, std::memory_order_relaxed);
    const std::size_t hi = std::min(lo + job_.chunk, job_.end);
#ifdef SIMSWEEP_CHECKED
    checked_claim(epoch, lo, hi);
#endif
    (*job_.block)(lo, hi);
    const std::size_t items = hi - lo;
#ifdef SIMSWEEP_CHECKED
    const bool last = checked_retire(epoch, items) == items;
    if (last) checked_complete(epoch);
#else
    const bool last =
        job_.remaining.fetch_sub(items, std::memory_order_acq_rel) == items;
#endif
    if (last) control_.store(pack(epoch, true), std::memory_order_seq_cst);
  }
}

#ifdef SIMSWEEP_CHECKED

void ThreadPool::checked_claim(std::uint32_t epoch, std::size_t lo,
                               std::size_t hi) {
  if (lo < job_.begin || hi > job_.end || lo >= hi)
    protocol_violation("ticket cursor out of job bounds", epoch, lo, hi);
  const auto mark = [&](std::size_t i) {
    const std::size_t item = i - job_.begin;
    const std::uint64_t bit = std::uint64_t{1} << (item % 64);
    const std::uint64_t prev =
        job_.claimed[item / 64].fetch_or(bit, std::memory_order_relaxed);
    if ((prev & bit) != 0)
      protocol_violation("chunk index claimed twice", epoch, i,
                         job_.end - job_.begin);
  };
  for (std::size_t i = lo; i < hi; ++i) mark(i);
  if (take_fault(CheckedFault::kDoubleClaim)) mark(lo);
}

std::size_t ThreadPool::checked_retire(std::uint32_t epoch,
                                       std::size_t items) {
  if (take_fault(CheckedFault::kDoubleRetire))
    job_.remaining.fetch_sub(items, std::memory_order_acq_rel);
  const std::size_t prev =
      job_.remaining.fetch_sub(items, std::memory_order_acq_rel);
  // fetch_sub on an unsigned counter wraps on a double retire: the stolen
  // items make some later (or this) retirement observe prev < items.
  if (prev < items || prev > job_.end - job_.begin)
    protocol_violation("chunk retired twice (retirement underflow)", epoch,
                       prev, items);
  return prev;
}

void ThreadPool::checked_complete(std::uint32_t epoch) {
  if (job_.completions.fetch_add(1, std::memory_order_relaxed) != 0)
    protocol_violation("job completed twice", epoch, 0, 0);
  const std::size_t rem = job_.remaining.load(std::memory_order_acquire);
  const std::size_t items = job_.end - job_.begin;
  if (rem != 0)
    protocol_violation("job completed before all chunks retired", epoch, rem,
                       items);
  for (std::size_t w = 0; w < (items + 63) / 64; ++w) {
    const std::size_t in_word = std::min<std::size_t>(64, items - w * 64);
    const std::uint64_t want =
        in_word == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << in_word) - 1;
    if (job_.claimed[w].load(std::memory_order_relaxed) != want)
      protocol_violation("job completed with unclaimed items", epoch, w,
                         items);
  }
}

#endif  // SIMSWEEP_CHECKED

void ThreadPool::worker_loop(std::size_t worker_index) {
  WorkerStat& stat = worker_stats_[worker_index + 1];
  std::uint32_t seen = 0;
  unsigned idle = 0;
  for (;;) {
    if (stop_.load(std::memory_order_relaxed)) return;
    const std::uint64_t ctl = control_.load(std::memory_order_acquire);
    const std::uint32_t e = ctl_epoch(ctl);
    if (e != seen) {
#ifdef SIMSWEEP_CHECKED
      // Epochs increment by one per job; a worker may sleep through any
      // number of them but must never observe the sequence move backwards
      // (modular comparison tolerates the 32-bit wrap).
      if (static_cast<std::int32_t>(e - seen) < 0)
        protocol_violation("epoch moved backwards", e, seen, e);
#endif
      seen = e;
      if (ctl_done(ctl)) continue;  // job already over
      active_.fetch_add(1, std::memory_order_seq_cst);
      const auto job_start = std::chrono::steady_clock::now();
      run_job(e, worker_index + 1);
      stat.busy_ns.fetch_add(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - job_start)
                  .count()),
          std::memory_order_relaxed);
      active_.fetch_sub(1, std::memory_order_seq_cst);
      idle = 0;
      continue;
    }
    if (idle < kIdleSpins) {
      relax(idle);
      continue;
    }
    idle = 0;
    park(seen);
  }
}

PoolStats ThreadPool::stats() const {
  PoolStats st;
  st.workers = static_cast<unsigned>(workers_.size());
  st.spawn_failures = spawn_failures_;
  st.jobs = jobs_.load(std::memory_order_relaxed);
  st.inline_jobs = inline_jobs_.load(std::memory_order_relaxed);
  const double lifetime_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - created_)
          .count());
  st.lifetime_seconds = lifetime_ns * 1e-9;
  // Slot 0 is the submitting thread; worker slots are 1..workers.
  for (std::size_t i = 0; i <= workers_.size(); ++i)
    st.chunks += worker_stats_[i].chunks.load(std::memory_order_relaxed);
  if (!workers_.empty() && lifetime_ns > 0) {
    double sum = 0;
    st.busy_min = 1.0;
    for (std::size_t i = 1; i <= workers_.size(); ++i) {
      const double f = static_cast<double>(worker_stats_[i].busy_ns.load(
                           std::memory_order_relaxed)) /
                       lifetime_ns;
      sum += f;
      st.busy_min = std::min(st.busy_min, f);
      st.busy_max = std::max(st.busy_max, f);
    }
    st.busy_mean = sum / static_cast<double>(workers_.size());
  }
  return st;
}

void ThreadPool::publish(obs::Registry& registry) const {
  const PoolStats st = stats();
  // Set (not add) semantics: these are process-lifetime totals, so the
  // publish is idempotent no matter how many callers emit them.
  registry.set(obs::metric::kPoolWorkers, static_cast<double>(st.workers));
  registry.set(obs::metric::kPoolJobs, static_cast<double>(st.jobs));
  registry.set(obs::metric::kPoolInlineJobs,
               static_cast<double>(st.inline_jobs));
  registry.set(obs::metric::kPoolChunks, static_cast<double>(st.chunks));
  registry.set(obs::metric::kPoolLifetimeSeconds, st.lifetime_seconds);
  registry.set(obs::metric::kPoolBusyMean, st.busy_mean);
  registry.set(obs::metric::kPoolBusyMin, st.busy_min);
  registry.set(obs::metric::kPoolBusyMax, st.busy_max);
  registry.set(obs::metric::kPoolSpawnFailures,
               static_cast<double>(st.spawn_failures));
}

void ThreadPool::park(std::uint32_t seen_epoch) {
  std::unique_lock lock(park_mutex_);
  num_parked_.fetch_add(1, std::memory_order_seq_cst);
  park_cv_.wait(lock, [&] {
    if (stop_.load(std::memory_order_relaxed)) return true;
    const std::uint64_t ctl = control_.load(std::memory_order_acquire);
    return ctl_epoch(ctl) != seen_epoch && !ctl_done(ctl);
  });
  num_parked_.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace simsweep::parallel
