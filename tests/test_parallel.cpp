/// \file test_parallel.cpp
/// \brief Thread-pool correctness tests.
///
/// This suite carries the ctest `tsan` label: it is the primary target of
/// the SIMSWEEP_SANITIZE=thread build (README "Sanitizer &
/// static-analysis builds"). Under SIMSWEEP_CHECKED it additionally runs
/// the CheckedProtocol death tests, which deliberately violate the
/// executor's job protocol and expect the shadow-tracking to abort.

#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "fault/fault.hpp"

namespace simsweep::parallel {
namespace {

/// A pool whose only worker failed to spawn: every launch runs inline.
std::unique_ptr<ThreadPool> workerless_pool() {
  fault::FaultPlan spawn;
  spawn.on_hit(fault::sites::kPoolSpawn, 1);
  fault::ScopedFaultPlan scoped(spawn);
  return std::make_unique<ThreadPool>(1);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(10000);
  pool.parallel_for_chunks(0, hits.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyAndTinyRanges) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  const auto count_items = [&](std::size_t lo, std::size_t hi) {
    count.fetch_add(static_cast<int>(hi - lo));
  };
  pool.parallel_for_chunks(5, 5, count_items);
  EXPECT_EQ(count.load(), 0);
  pool.parallel_for_chunks(0, 3, count_items);
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, NonzeroBegin) {
  ThreadPool pool(2);
  std::atomic<std::uint64_t> sum{0};
  pool.parallel_for_chunks(100, 1100, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) sum.fetch_add(i);
  });
  std::uint64_t expect = 0;
  for (std::size_t i = 100; i < 1100; ++i) expect += i;
  EXPECT_EQ(sum.load(), expect);
}

TEST(ThreadPool, ChunkedVariantSeesContiguousBlocks) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(5000);
  pool.parallel_for_chunks(0, hits.size(), [&](std::size_t lo,
                                               std::size_t hi) {
    ASSERT_LE(lo, hi);
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPool, ChunksSeeEveryIndexOnce) {
  ThreadPool pool(3);
  // Sizes straddling chunk boundaries: primes, powers of two +/- 1, and
  // sizes below/around 2*concurrency (the inline-path threshold).
  const std::size_t sizes[] = {1, 2, 3, 7, 8, 9, 63, 64, 65, 1021, 4096, 4099};
  for (const std::size_t n : sizes) {
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for_chunks(0, n, [&](std::size_t lo, std::size_t hi) {
      ASSERT_LT(lo, hi);
      ASSERT_LE(hi, n);
      for (std::size_t i = lo; i < hi; ++i)
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(hits[i].load(), 1) << "size " << n << " index " << i;
  }
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::uint64_t> sum{0};
    pool.parallel_for_chunks(0, 1000, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) sum.fetch_add(i + 1);
    });
    ASSERT_EQ(sum.load(), 1000u * 1001 / 2);
  }
}

TEST(ThreadPool, ZeroWorkerPoolRunsInline) {
  const std::unique_ptr<ThreadPool> pool = workerless_pool();
  ASSERT_EQ(pool->concurrency(), 1u);
  std::atomic<int> count{0};
  pool->parallel_for_chunks(0, 100, [&](std::size_t lo, std::size_t hi) {
    count.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(pool->stats().inline_jobs, 1u);
}

TEST(ThreadPool, GlobalPoolSingleton) {
  ThreadPool& a = ThreadPool::global();
  ThreadPool& b = ThreadPool::global();
  EXPECT_EQ(&a, &b);
  std::atomic<int> count{0};
  parallel_for_chunks(0, 256, [&](std::size_t lo, std::size_t hi) {
    count.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(count.load(), 256);
}

TEST(ThreadPool, LargeGrainWork) {
  ThreadPool pool(3);
  std::vector<std::uint64_t> out(64, 0);
  pool.parallel_for_chunks(0, out.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      std::uint64_t acc = 0;
      for (std::uint64_t k = 0; k < 10000; ++k) acc += (i + 1) * k % 97;
      out[i] = acc;
    }
  });
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::uint64_t acc = 0;
    for (std::uint64_t k = 0; k < 10000; ++k) acc += (i + 1) * k % 97;
    ASSERT_EQ(out[i], acc);
  }
}

TEST(ThreadPool, ConcurrentClientThreadsAreSerializedSafely) {
  // Regression test: the portfolio checker launches on the global pool
  // from several client threads at once; jobs must not corrupt each
  // other's ranges (this found a real bug).
  ThreadPool pool(2);
  constexpr int kClients = 4;
  constexpr std::size_t kN = 20000;
  std::vector<std::vector<std::atomic<int>>> hits(kClients);
  for (auto& h : hits) {
    std::vector<std::atomic<int>> v(kN);
    h = std::move(v);
  }
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < 20; ++round)
        pool.parallel_for_chunks(0, kN, [&, c](std::size_t lo,
                                               std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i)
            hits[c][i].fetch_add(1, std::memory_order_relaxed);
        });
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c)
    for (std::size_t i = 0; i < kN; ++i)
      ASSERT_EQ(hits[c][i].load(), 20) << "client " << c << " index " << i;
}

/// Polls `flag` for up to ten seconds (a failing test must not hang).
bool await(const std::atomic<bool>& flag) {
  for (int i = 0; i < 100000 && !flag.load(); ++i)
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  return flag.load();
}

TEST(Lanes, TwoLanesRunConcurrently) {
  // Each lane waits, with a bound, for the other to start: a tiny launch
  // run inline one lane after the other fails here.
  ThreadPool pool(3);
  std::atomic<bool> started[2] = {false, false};
  std::atomic<int> met{0};
  pool.run_lanes(2, [&](std::size_t i) {
    started[i].store(true);
    if (await(started[1 - i])) met.fetch_add(1);
  });
  EXPECT_EQ(met.load(), 2);
  EXPECT_EQ(pool.stats().inline_jobs, 0u);
}

TEST(Lanes, ZeroWorkerPoolRunsInline) {
  const std::unique_ptr<ThreadPool> pool = workerless_pool();
  ASSERT_EQ(pool->concurrency(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> hits(5, 0);  // no atomics: the caller runs every lane
  bool on_caller = true;
  pool->run_lanes(hits.size(), [&](std::size_t i) {
    ++hits[i];
    on_caller = on_caller && std::this_thread::get_id() == caller;
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
  EXPECT_TRUE(on_caller);
  EXPECT_EQ(pool->stats().inline_jobs, 1u);
}

TEST(Lanes, EmptyAndSingleLaneLaunches) {
  // No lane is no launch; a single lane is still handed to the pool.
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.run_lanes(0, [&](std::size_t) { count.fetch_add(100); });
  EXPECT_EQ(count.load(), 0);
  EXPECT_EQ(pool.stats().jobs, 0u);
  pool.run_lanes(1, [&](std::size_t i) {
    count.fetch_add(static_cast<int>(i) + 1);
  });
  EXPECT_EQ(count.load(), 1);
  EXPECT_EQ(pool.stats().jobs, 1u);
  EXPECT_EQ(pool.stats().inline_jobs, 0u);
}

TEST(Lanes, ConcurrentClientsRunningLanes) {
  // Several client threads each repeatedly run lanes over their own data
  // on a shared pool: whole jobs must serialize without mixing.
  ThreadPool pool(2);
  constexpr int kClients = 4;
  constexpr std::size_t kLanes = 6;
  constexpr std::size_t kN = 3000;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      std::vector<int> data(kN, 0);
      for (int round = 0; round < 10; ++round) {
        std::fill(data.begin(), data.end(), 0);
        pool.run_lanes(kLanes, [&](std::size_t lane) {
          for (std::size_t i = lane; i < kN; i += kLanes) data[i] += 5;
        });
        for (std::size_t i = 0; i < kN; ++i)
          if (data[i] != 5) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(Lanes, RunBesideOverlapsTheHostTaskWithTheLanes) {
  // The workers start on the lanes while the caller runs its host task;
  // the host here only returns once a worker ran a lane, and every lane
  // runs exactly once.
  ThreadPool pool(2);
  std::atomic<bool> item_ran{false};
  std::atomic<int> items{0};
  bool host_saw_item = false;
  ASSERT_TRUE(pool.run_beside(
      4,
      [&](std::size_t) {
        items.fetch_add(1);
        item_ran.store(true);
      },
      [&] { host_saw_item = await(item_ran); }));
  EXPECT_TRUE(host_saw_item);
  EXPECT_EQ(items.load(), 4);
}

TEST(Lanes, RunBesideDeclinesWithoutWorkersOrWhenBusy) {
  std::atomic<int> items{0};
  const auto lane = [&](std::size_t) { items.fetch_add(1); };
  bool host_ran = false;
  {
    // A pool whose only worker failed to spawn runs neither.
    const std::unique_ptr<ThreadPool> lone = workerless_pool();
    ASSERT_EQ(lone->concurrency(), 1u);
    EXPECT_FALSE(lone->run_beside(2, lane, [&] { host_ran = true; }));
  }
  {
    // Another client's job holds the pool: declined at once, no waiting.
    ThreadPool pool(1);
    std::atomic<bool> holding{false};
    std::atomic<bool> release{false};
    std::thread other([&] {
      pool.run_lanes(1, [&](std::size_t) {
        holding.store(true);
        await(release);
      });
    });
    ASSERT_TRUE(await(holding));
    EXPECT_FALSE(pool.run_beside(2, lane, [&] { host_ran = true; }));
    release.store(true);
    other.join();
    // No lanes: declined as well.
    EXPECT_FALSE(pool.run_beside(0, lane, [&] { host_ran = true; }));
    // Free again: now it runs.
    EXPECT_TRUE(pool.run_beside(2, lane, [] {}));
    EXPECT_EQ(items.load(), 2);
  }
  EXPECT_FALSE(host_ran);
}

TEST(Lanes, RunBesideRethrowsTheHostsExceptionAfterTheJoin) {
  ThreadPool pool(2);
  std::atomic<int> items{0};
  EXPECT_THROW(
      pool.run_beside(
          8, [&](std::size_t) { items.fetch_add(1); },
          [] { throw std::runtime_error("host"); }),
      std::runtime_error);
  EXPECT_EQ(items.load(), 8);  // joined before the rethrow
  std::atomic<int> after{0};
  pool.parallel_for_chunks(0, 1000, [&](std::size_t lo, std::size_t hi) {
    after.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(after.load(), 1000);
}

TEST(ThreadPoolStress, MixedConcurrentSubmitters) {
  // TSan stress target: client threads concurrently submitting all three
  // launch shapes (parallel_for_chunks, run_lanes, run_beside) to one
  // pool. Any serialization bug — a job observing another job's state, a
  // stale control word, a lost wakeup — shows up as a checksum mismatch
  // here (and as a race report under SIMSWEEP_SANITIZE=thread).
  ThreadPool pool(3);
  constexpr int kClients = 6;
  constexpr int kRounds = 8;
  constexpr std::size_t kN = 4096;
  constexpr std::size_t kLanes = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::uint64_t> data(kN, 0);
      // Lane l fills [kN/2, kN) at stride kLanes; the host fills the rest.
      const auto lane = [&](std::size_t l) {
        for (std::size_t i = kN / 2 + l; i < kN; i += kLanes) data[i] = i + 1;
      };
      const auto host = [&] {
        for (std::size_t i = 0; i < kN / 2; ++i) data[i] = i + 1;
      };
      for (int round = 0; round < kRounds; ++round) {
        std::fill(data.begin(), data.end(), 0);
        switch ((c + round) % 3) {
          case 0: {
            pool.parallel_for_chunks(0, kN,
                                     [&](std::size_t lo, std::size_t hi) {
                                       for (std::size_t i = lo; i < hi; ++i)
                                         data[i] = i + 1;
                                     });
            break;
          }
          case 1: {
            host();
            pool.run_lanes(kLanes, lane);
            break;
          }
          default: {
            // Declined while another client holds the pool: run both.
            if (!pool.run_beside(kLanes, lane, host)) {
              host();
              pool.run_lanes(kLanes, lane);
            }
            break;
          }
        }
        for (std::size_t i = 0; i < kN; ++i)
          if (data[i] != i + 1) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(RngThreading, ForkedStreamsDeterministicAcrossSchedules) {
  // Regression test for the shared-RNG audit (src/common/random.hpp):
  // workers must not share one Rng. The sanctioned pattern — fork one
  // substream per flat work index — must give every index the same
  // values no matter which worker runs it or in what order.
  constexpr std::size_t kStreams = 64;
  constexpr std::size_t kDraws = 128;
  const Rng parent(0xF0F0F0F0ULL);

  std::vector<std::uint64_t> serial(kStreams * kDraws);
  for (std::size_t s = 0; s < kStreams; ++s) {
    Rng rng = parent.fork(s);
    for (std::size_t d = 0; d < kDraws; ++d)
      serial[s * kDraws + d] = rng.next64();
  }

  ThreadPool pool(3);
  for (int rep = 0; rep < 4; ++rep) {  // vary scheduling a few times
    std::vector<std::uint64_t> par(kStreams * kDraws, 0);
    pool.parallel_for_chunks(0, kStreams, [&](std::size_t lo,
                                              std::size_t hi) {
      for (std::size_t s = lo; s < hi; ++s) {
        Rng rng = parent.fork(s);  // worker-owned instance, no sharing
        for (std::size_t d = 0; d < kDraws; ++d)
          par[s * kDraws + d] = rng.next64();
      }
    });
    ASSERT_EQ(par, serial) << "rep " << rep;
  }
}

TEST(RngThreading, ForkIsConstAndOrderIndependent) {
  const Rng parent(42);
  Rng a = parent.fork(7);
  Rng b = parent.fork(3);
  Rng a2 = parent.fork(7);  // same stream id after other forks
  EXPECT_EQ(a.next64(), a2.next64());
  EXPECT_NE(a.next64(), b.next64());  // distinct streams decorrelated
  // Forking never advances the parent: a fresh copy agrees with it.
  Rng p1 = parent;
  Rng p2(42);
  EXPECT_EQ(p1.next64(), p2.next64());
}

#ifdef SIMSWEEP_CHECKED

TEST(CheckedProtocol, CleanRunDoesNotAbort) {
  // The shadow-tracking must be invisible for a correct execution: every
  // launch shape runs to completion under SIMSWEEP_CHECKED.
  ThreadPool pool(3);
  std::atomic<std::uint64_t> sum{0};
  pool.parallel_for_chunks(0, 10000, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 10000ull * 9999 / 2);
  std::atomic<int> count{0};
  pool.run_lanes(5000, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 5000);
  EXPECT_TRUE(pool.run_beside(
      5000, [&](std::size_t) { count.fetch_add(1); }, [] {}));
  EXPECT_EQ(count.load(), 10000);
}

/// A data-parallel launch large enough to be distributed.
void sum_indices(ThreadPool& pool) {
  std::atomic<std::uint64_t> sum{0};
  pool.parallel_for_chunks(0, 100000, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) sum.fetch_add(i);
  });
}

TEST(CheckedProtocol, DoubleClaimAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool pool(3);
        checked_inject_fault_for_test(CheckedFault::kDoubleClaim);
        sum_indices(pool);
      },
      "SIMSWEEP_CHECKED violation");
}

TEST(CheckedProtocol, DoubleRetireAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool pool(3);
        checked_inject_fault_for_test(CheckedFault::kDoubleRetire);
        sum_indices(pool);
      },
      "SIMSWEEP_CHECKED violation");
}

#endif  // SIMSWEEP_CHECKED

}  // namespace
}  // namespace simsweep::parallel
