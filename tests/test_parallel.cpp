/// \file test_parallel.cpp
/// \brief Thread-pool correctness tests.
///
/// This suite carries the ctest `tsan` label: it is the primary target of
/// the SIMSWEEP_SANITIZE=thread build (README "Sanitizer &
/// static-analysis builds"). Under SIMSWEEP_CHECKED it additionally runs
/// the CheckedProtocol death tests, which deliberately violate the staged
/// executor's protocol and expect the shadow-tracking to abort.

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

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(10000);
  pool.parallel_for(0, hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyAndTinyRanges) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(5, 5, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0);
  pool.parallel_for(0, 3, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, NonzeroBegin) {
  ThreadPool pool(2);
  std::atomic<std::uint64_t> sum{0};
  pool.parallel_for(100, 1100, [&](std::size_t i) { sum.fetch_add(i); });
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

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::uint64_t> sum{0};
    pool.parallel_for(0, 1000, [&](std::size_t i) { sum.fetch_add(i + 1); });
    ASSERT_EQ(sum.load(), 1000u * 1001 / 2);
  }
}

TEST(ThreadPool, ZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  // hardware_concurrency-based default may still create workers; force a
  // genuinely inline pool via a 1-thread machine emulation: concurrency is
  // at least 1 either way, and the call must still be correct.
  std::atomic<int> count{0};
  pool.parallel_for(0, 100, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
  EXPECT_GE(pool.concurrency(), 1u);
}

TEST(ThreadPool, GlobalPoolSingleton) {
  ThreadPool& a = ThreadPool::global();
  ThreadPool& b = ThreadPool::global();
  EXPECT_EQ(&a, &b);
  std::atomic<int> count{0};
  parallel_for(0, 256, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 256);
}

TEST(ThreadPool, LargeGrainWork) {
  ThreadPool pool(3);
  std::vector<std::uint64_t> out(64, 0);
  pool.parallel_for(0, out.size(), [&](std::size_t i) {
    std::uint64_t acc = 0;
    for (std::uint64_t k = 0; k < 10000; ++k) acc += (i + 1) * k % 97;
    out[i] = acc;
  });
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::uint64_t acc = 0;
    for (std::uint64_t k = 0; k < 10000; ++k) acc += (i + 1) * k % 97;
    ASSERT_EQ(out[i], acc);
  }
}

TEST(ThreadPool, ConcurrentClientThreadsAreSerializedSafely) {
  // Regression test: the portfolio checker calls parallel_for on the
  // global pool from several client threads at once; jobs must not
  // corrupt each other's ranges (this found a real bug).
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
        pool.parallel_for(0, kN, [&, c](std::size_t i) {
          hits[c][i].fetch_add(1, std::memory_order_relaxed);
        });
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c)
    for (std::size_t i = 0; i < kN; ++i)
      ASSERT_EQ(hits[c][i].load(), 20) << "client " << c << " index " << i;
}

TEST(StagePlan, StagesRunInOrderWithBarriers) {
  // Stage s+1 must observe ALL of stage s's writes: each stage checks the
  // previous stage's output for every index, so any barrier violation
  // trips an assertion.
  ThreadPool pool(3);
  constexpr std::size_t kN = 10000;
  constexpr int kStages = 6;
  std::vector<std::atomic<int>> cells(kN);
  std::atomic<int> violations{0};
  StagePlan plan;
  for (int s = 0; s < kStages; ++s) {
    plan.stage(0, kN, [&, s](std::size_t i) {
      if (cells[i].load(std::memory_order_relaxed) != s)
        violations.fetch_add(1, std::memory_order_relaxed);
      cells[i].store(s + 1, std::memory_order_relaxed);
    });
  }
  ASSERT_TRUE(pool.run_stages(plan));
  EXPECT_EQ(violations.load(), 0);
  for (const auto& c : cells) ASSERT_EQ(c.load(), kStages);
}

TEST(StagePlan, ReRunnableWithRboundState) {
  // A plan is built once and re-run per round with state rebound through
  // captured references — the exhaustive simulator's usage pattern.
  ThreadPool pool(2);
  std::size_t round = 0;
  std::vector<std::uint64_t> acc(4096, 0);
  StagePlan plan;
  plan.stage(0, acc.size(), [&](std::size_t i) { acc[i] += round; });
  std::uint64_t expect = 0;
  for (round = 1; round <= 5; ++round) {
    ASSERT_TRUE(pool.run_stages(plan));
    expect += round;
  }
  for (const auto& v : acc) ASSERT_EQ(v, expect);
}

TEST(StagePlan, EmptyAndSingleElementStages) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  StagePlan plan;
  plan.stage(7, 7, [&](std::size_t) { count.fetch_add(100); });  // empty
  plan.stage(3, 4, [&](std::size_t i) { count.fetch_add(static_cast<int>(i)); });
  plan.stage(0, 0, [&](std::size_t) { count.fetch_add(100); });  // empty
  plan.stage(0, 1, [&](std::size_t) { count.fetch_add(1); });
  ASSERT_TRUE(pool.run_stages(plan));
  EXPECT_EQ(count.load(), 4);

  StagePlan empty;
  EXPECT_TRUE(pool.run_stages(empty));
}

TEST(StagePlan, ChunkStagesSeeEveryIndexOnce) {
  ThreadPool pool(3);
  // Sizes straddling chunk boundaries: primes, powers of two +/- 1, and
  // sizes below/around 2*concurrency (the inline-path threshold).
  const std::size_t sizes[] = {1, 2, 3, 7, 8, 9, 63, 64, 65, 1021, 4096, 4099};
  for (const std::size_t n : sizes) {
    std::vector<std::atomic<int>> hits(n);
    StagePlan plan;
    plan.stage_chunks(0, n, [&](std::size_t lo, std::size_t hi) {
      ASSERT_LT(lo, hi);
      ASSERT_LE(hi, n);
      for (std::size_t i = lo; i < hi; ++i)
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_TRUE(pool.run_stages(plan));
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(hits[i].load(), 1) << "size " << n << " index " << i;
  }
}

TEST(StagePlan, PresetCancelRunsNothing) {
  ThreadPool pool(2);
  std::atomic<bool> cancel{true};
  std::atomic<int> count{0};
  StagePlan plan;
  plan.set_cancel(&cancel);
  plan.stage(0, 1000, [&](std::size_t) { count.fetch_add(1); });
  plan.stage(0, 1000, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_FALSE(pool.run_stages(plan));
  EXPECT_EQ(count.load(), 0);
}

TEST(StagePlan, MidRunCancelSkipsLaterStages) {
  ThreadPool pool(2);
  std::atomic<bool> cancel{false};
  std::atomic<int> first{0};
  std::atomic<int> second{0};
  StagePlan plan;
  plan.set_cancel(&cancel);
  plan.stage(0, 64, [&](std::size_t) {
    first.fetch_add(1);
    cancel.store(true);  // fires during stage 0
  });
  plan.stage(0, 100000, [&](std::size_t) { second.fetch_add(1); });
  EXPECT_FALSE(pool.run_stages(plan));
  // Stage 1 must have been (almost entirely) skipped: at most the chunks
  // already claimed before the flag was observed may run, and the barrier
  // skip means none at all once stage 0's last chunk retires.
  EXPECT_EQ(second.load(), 0);
  EXPECT_GT(first.load(), 0);
}

TEST(StagePlan, ConcurrentClientsRunningPlans) {
  // Several client threads each repeatedly run their own multi-stage
  // plan on a shared pool: whole jobs must serialize without mixing.
  ThreadPool pool(2);
  constexpr int kClients = 4;
  constexpr std::size_t kN = 3000;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      std::vector<int> data(kN, 0);
      StagePlan plan;
      plan.stage(0, kN, [&](std::size_t i) { data[i] += 1; });
      plan.stage(0, kN, [&](std::size_t i) { data[i] *= 2; });
      plan.stage(0, kN, [&](std::size_t i) { data[i] += 3; });
      for (int round = 0; round < 10; ++round) {
        std::fill(data.begin(), data.end(), 0);
        if (!pool.run_stages(plan)) failures.fetch_add(1);
        for (std::size_t i = 0; i < kN; ++i)
          if (data[i] != 5) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(StagePlan, StressManyStagesManyRounds) {
  // Pipeline stress: alternating wide/narrow stages re-run many times,
  // checking a value that depends on every stage having run in order.
  ThreadPool pool(3);
  constexpr std::size_t kN = 2048;
  std::vector<std::uint64_t> data(kN, 0);
  std::atomic<std::uint64_t> narrow_sum{0};
  StagePlan plan;
  for (int rep = 0; rep < 4; ++rep) {
    plan.stage(0, kN, [&](std::size_t i) { data[i] += i; });
    plan.stage(0, 1, [&](std::size_t) {
      std::uint64_t s = 0;
      for (const auto& v : data) s += v;
      narrow_sum.store(s);
    });
  }
  for (int round = 1; round <= 8; ++round) {
    ASSERT_TRUE(pool.run_stages(plan));
    // After round r, data[i] == 4*r*i; the final narrow stage saw it all.
    const std::uint64_t n = kN;
    ASSERT_EQ(narrow_sum.load(), 4ull * round * (n * (n - 1) / 2));
  }
}

TEST(StagePlan, GlobalParallelStagesWrapper) {
  std::atomic<int> count{0};
  StagePlan plan;
  plan.stage(0, 512, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_TRUE(parallel_stages(plan));
  EXPECT_EQ(count.load(), 512);
}

/// Polls `flag` for up to ten seconds (a failing test must not hang).
bool await(const std::atomic<bool>& flag) {
  for (int i = 0; i < 100000 && !flag.load(); ++i)
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  return flag.load();
}

TEST(StagePlan, RunBesideOverlapsTheHostTaskWithThePlan) {
  // The workers start on the plan while the caller runs its host task; the
  // host here only returns once a worker ran a plan item, and every item
  // runs exactly once.
  ThreadPool pool(2);
  std::atomic<bool> item_ran{false};
  std::atomic<int> items{0};
  StagePlan plan;
  plan.set_granular(true);
  plan.stage(0, 4, [&](std::size_t) {
    items.fetch_add(1);
    item_ran.store(true);
  });
  bool host_saw_item = false;
  ASSERT_TRUE(pool.run_beside(plan, [&] { host_saw_item = await(item_ran); }));
  EXPECT_TRUE(host_saw_item);
  EXPECT_EQ(items.load(), 4);
}

TEST(StagePlan, RunBesideDeclinesWithoutWorkersOrWhenBusy) {
  StagePlan plan;
  plan.set_granular(true);
  std::atomic<int> items{0};
  plan.stage(0, 2, [&](std::size_t) { items.fetch_add(1); });
  bool host_ran = false;
  {
    // A pool whose only worker failed to spawn runs neither.
    fault::FaultPlan spawn;
    spawn.on_hit(fault::sites::kPoolSpawn, 1);
    std::unique_ptr<ThreadPool> lone;
    {
      fault::ScopedFaultPlan scoped(spawn);
      lone = std::make_unique<ThreadPool>(1);
    }
    ASSERT_EQ(lone->concurrency(), 1u);
    EXPECT_FALSE(lone->run_beside(plan, [&] { host_ran = true; }));
  }
  {
    // Another client's job holds the pool: declined at once, no waiting.
    ThreadPool pool(1);
    std::atomic<bool> holding{false};
    std::atomic<bool> release{false};
    StagePlan busy;
    busy.set_granular(true);
    busy.stage(0, 1, [&](std::size_t) {
      holding.store(true);
      await(release);
    });
    std::thread other([&] { pool.run_stages(busy); });
    ASSERT_TRUE(await(holding));
    EXPECT_FALSE(pool.run_beside(plan, [&] { host_ran = true; }));
    release.store(true);
    other.join();
    // Free again: now it runs.
    EXPECT_TRUE(pool.run_beside(plan, [] {}));
    EXPECT_EQ(items.load(), 2);
  }
  EXPECT_FALSE(host_ran);
}

TEST(StagePlan, RunBesideRethrowsTheHostsExceptionAfterTheJoin) {
  ThreadPool pool(2);
  std::atomic<int> items{0};
  StagePlan plan;
  plan.set_granular(true);
  plan.stage(0, 8, [&](std::size_t) { items.fetch_add(1); });
  EXPECT_THROW(pool.run_beside(plan, [] { throw std::runtime_error("host"); }),
               std::runtime_error);
  EXPECT_EQ(items.load(), 8);  // joined before the rethrow
  std::atomic<int> after{0};
  pool.parallel_for(0, 1000, [&](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 1000);
}

TEST(ThreadPoolStress, MixedConcurrentSubmitters) {
  // TSan stress target: client threads concurrently submitting all three
  // job kinds (parallel_for, parallel_for_chunks, multi-stage plans) to
  // one pool. Any serialization bug — a job observing another job's
  // slots, a stale control word, a lost wakeup — shows up as a checksum
  // mismatch here (and as a race report under SIMSWEEP_SANITIZE=thread).
  ThreadPool pool(3);
  constexpr int kClients = 6;
  constexpr int kRounds = 8;
  constexpr std::size_t kN = 4096;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::uint64_t> data(kN, 0);
      for (int round = 0; round < kRounds; ++round) {
        std::fill(data.begin(), data.end(), 0);
        switch ((c + round) % 3) {
          case 0: {
            pool.parallel_for(0, kN, [&](std::size_t i) { data[i] = i + 1; });
            break;
          }
          case 1: {
            pool.parallel_for_chunks(0, kN,
                                     [&](std::size_t lo, std::size_t hi) {
                                       for (std::size_t i = lo; i < hi; ++i)
                                         data[i] = i + 1;
                                     });
            break;
          }
          default: {
            StagePlan plan;
            plan.stage(0, kN, [&](std::size_t i) { data[i] = i; });
            plan.stage(0, kN, [&](std::size_t i) { data[i] += 1; });
            if (!pool.run_stages(plan)) failures.fetch_add(1);
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
    pool.parallel_for(0, kStreams, [&](std::size_t s) {
      Rng rng = parent.fork(s);  // worker-owned instance, no sharing
      for (std::size_t d = 0; d < kDraws; ++d)
        par[s * kDraws + d] = rng.next64();
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
  // kind of job runs to completion under SIMSWEEP_CHECKED.
  ThreadPool pool(3);
  std::atomic<std::uint64_t> sum{0};
  pool.parallel_for(0, 10000, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 10000ull * 9999 / 2);
  StagePlan plan;
  std::atomic<int> count{0};
  plan.stage(0, 5000, [&](std::size_t) { count.fetch_add(1); });
  plan.stage(0, 5000, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_TRUE(pool.run_stages(plan));
  EXPECT_EQ(count.load(), 10000);
}

TEST(CheckedProtocol, DoubleClaimAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool pool(3);
        checked_inject_fault_for_test(CheckedFault::kDoubleClaim);
        std::atomic<std::uint64_t> sum{0};
        pool.parallel_for(0, 100000,
                          [&](std::size_t i) { sum.fetch_add(i); });
      },
      "SIMSWEEP_CHECKED violation");
}

TEST(CheckedProtocol, DoubleRetireAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool pool(3);
        checked_inject_fault_for_test(CheckedFault::kDoubleRetire);
        std::atomic<std::uint64_t> sum{0};
        pool.parallel_for(0, 100000,
                          [&](std::size_t i) { sum.fetch_add(i); });
      },
      "SIMSWEEP_CHECKED violation");
}

#endif  // SIMSWEEP_CHECKED

}  // namespace
}  // namespace simsweep::parallel
