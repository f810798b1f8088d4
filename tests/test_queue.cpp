// LockedQueue: FIFO semantics, producer/consumer conservation, and the
// atomic cross-queue transfer (one critical section over two queues' locks
// — the op that would deadlock under naive two-lock queues).
#include <gtest/gtest.h>

#include <numeric>
#include <thread>
#include <vector>

#include "wfl/wfl.hpp"

namespace wfl {
namespace {

LockConfig queue_cfg(int procs) {
  LockConfig cfg;
  cfg.kappa = static_cast<std::uint32_t>(procs) + 1;
  cfg.max_locks = 2;
  cfg.max_thunk_steps = 16;
  cfg.delay_mode = DelayMode::kOff;
  return cfg;
}

TEST(Queue, FifoOrderSingleProcess) {
  LockTable<RealPlat> space(queue_cfg(1), 1, 2);
  LockedQueue<RealPlat> q(space, 0, 1, 64);
  BasicSession proc(space);
  for (std::uint32_t i = 1; i <= 10; ++i) q.enqueue(proc, i);
  EXPECT_EQ(q.snapshot().size(), 10u);
  for (std::uint32_t i = 1; i <= 10; ++i) {
    std::uint32_t v = 0;
    ASSERT_EQ(q.dequeue(proc, &v), kQueueOk);
    EXPECT_EQ(v, i);
  }
  std::uint32_t v = 0;
  EXPECT_EQ(q.dequeue(proc, &v), kQueueEmpty);
}

TEST(Queue, EmptyThenRefillKeepsDummyInvariant) {
  LockTable<RealPlat> space(queue_cfg(1), 1, 2);
  LockedQueue<RealPlat> q(space, 0, 1, 64);
  BasicSession proc(space);
  std::uint32_t v = 0;
  EXPECT_EQ(q.dequeue(proc, &v), kQueueEmpty);
  q.enqueue(proc, 7);
  EXPECT_EQ(q.dequeue(proc, &v), kQueueOk);
  EXPECT_EQ(v, 7u);
  EXPECT_EQ(q.dequeue(proc, &v), kQueueEmpty);
  q.enqueue(proc, 8);
  q.enqueue(proc, 9);
  EXPECT_EQ(q.snapshot(), (std::vector<std::uint32_t>{8, 9}));
}

TEST(Queue, ConcurrentProducersConsumersConserveItems) {
  const int producers = 2, consumers = 2;
  const int per_producer = 300;
  LockTable<RealPlat> space(queue_cfg(producers + consumers),
                            producers + consumers, 2);
  LockedQueue<RealPlat> q(space, 0, 1, 4096);
  std::atomic<std::uint64_t> consumed_sum{0};
  std::atomic<int> consumed_count{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < producers; ++t) {
    ts.emplace_back([&, t] {
      RealPlat::seed_rng(101 + static_cast<std::uint64_t>(t));
      BasicSession proc(space);
      for (int i = 1; i <= per_producer; ++i) {
        q.enqueue(proc, static_cast<std::uint32_t>(t * 10000 + i));
      }
    });
  }
  const int total = producers * per_producer;
  for (int t = 0; t < consumers; ++t) {
    ts.emplace_back([&, t] {
      RealPlat::seed_rng(201 + static_cast<std::uint64_t>(t));
      BasicSession proc(space);
      std::uint32_t v = 0;
      while (consumed_count.load(std::memory_order_relaxed) < total) {
        if (q.dequeue(proc, &v) == kQueueOk) {
          consumed_sum.fetch_add(v, std::memory_order_relaxed);
          consumed_count.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  std::uint64_t expect = 0;
  for (int t = 0; t < producers; ++t) {
    for (int i = 1; i <= per_producer; ++i) {
      expect += static_cast<std::uint64_t>(t * 10000 + i);
    }
  }
  EXPECT_EQ(consumed_sum.load(), expect);
  EXPECT_TRUE(q.snapshot().empty());
}

TEST(Queue, PerProducerOrderPreserved) {
  // FIFO per producer: a consumer must see each producer's items in
  // increasing order even when interleaved with the other producer's.
  const int producers = 2;
  const int per_producer = 200;
  LockTable<RealPlat> space(queue_cfg(producers + 1), producers + 1, 2);
  LockedQueue<RealPlat> q(space, 0, 1, 2048);
  std::vector<std::thread> ts;
  for (int t = 0; t < producers; ++t) {
    ts.emplace_back([&, t] {
      RealPlat::seed_rng(11 + static_cast<std::uint64_t>(t));
      BasicSession proc(space);
      for (int i = 1; i <= per_producer; ++i) {
        q.enqueue(proc, static_cast<std::uint32_t>(t * 10000 + i));
      }
    });
  }
  for (auto& th : ts) th.join();
  BasicSession proc(space);
  std::vector<std::uint32_t> last(producers, 0);
  std::uint32_t v = 0;
  while (q.dequeue(proc, &v) == kQueueOk) {
    const int t = static_cast<int>(v / 10000);
    const std::uint32_t seq = v % 10000;
    EXPECT_GT(seq, last[static_cast<std::size_t>(t)]);
    last[static_cast<std::size_t>(t)] = seq;
  }
  for (int t = 0; t < producers; ++t) {
    EXPECT_EQ(last[static_cast<std::size_t>(t)],
              static_cast<std::uint32_t>(per_producer));
  }
}

TEST(Queue, TransferMovesFrontAtomically) {
  LockTable<RealPlat> space(queue_cfg(1), 1, 4);
  LockedQueue<RealPlat> a(space, 0, 1, 64);
  LockedQueue<RealPlat> b(space, 2, 3, 64);
  BasicSession proc(space);
  a.enqueue(proc, 1);
  a.enqueue(proc, 2);
  EXPECT_EQ(LockedQueue<RealPlat>::transfer(proc, a, b), kQueueOk);
  EXPECT_EQ(a.snapshot(), (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(b.snapshot(), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(LockedQueue<RealPlat>::transfer(proc, a, b), kQueueOk);
  EXPECT_EQ(LockedQueue<RealPlat>::transfer(proc, a, b), kQueueEmpty);
  EXPECT_EQ(b.snapshot(), (std::vector<std::uint32_t>{1, 2}));
}

TEST(Queue, ConcurrentTransfersConserveTokens) {
  // A ring of queues with transfer workers shuffling tokens around:
  // the total token count and token value-sum must both be conserved —
  // any torn transfer (pop without push) breaks conservation.
  const int threads = 3;
  const int nqueues = 3;
  const int tokens = 30;
  LockTable<RealPlat> space(queue_cfg(threads + 1), threads + 1,
                            2 * nqueues);
  std::vector<std::unique_ptr<LockedQueue<RealPlat>>> qs;
  for (int i = 0; i < nqueues; ++i) {
    qs.push_back(std::make_unique<LockedQueue<RealPlat>>(
        space, static_cast<std::uint32_t>(2 * i),
        static_cast<std::uint32_t>(2 * i + 1), 4096));
  }
  {
    BasicSession proc(space);
    for (int i = 1; i <= tokens; ++i) {
      qs[0]->enqueue(proc, static_cast<std::uint32_t>(i));
    }
  }
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      RealPlat::seed_rng(301 + static_cast<std::uint64_t>(t));
      BasicSession proc(space);
      Xoshiro256 rng(t * 5 + 1);
      for (int i = 0; i < 200; ++i) {
        const auto src = static_cast<std::size_t>(rng.next_below(nqueues));
        auto dst = static_cast<std::size_t>(rng.next_below(nqueues));
        if (dst == src) dst = (dst + 1) % nqueues;
        LockedQueue<RealPlat>::transfer(proc, *qs[src], *qs[dst]);
      }
    });
  }
  for (auto& th : ts) th.join();
  std::uint64_t sum = 0;
  std::size_t count = 0;
  for (auto& q : qs) {
    const auto snap = q->snapshot();
    count += snap.size();
    sum = std::accumulate(snap.begin(), snap.end(), sum);
  }
  EXPECT_EQ(count, static_cast<std::size_t>(tokens));
  EXPECT_EQ(sum, static_cast<std::uint64_t>(tokens) * (tokens + 1) / 2);
}

TEST(QueueSim, TransfersUnderSkewedScheduleConserve) {
  const int procs = 3;
  LockConfig cfg = queue_cfg(procs + 1);
  LockTable<SimPlat> space(cfg, procs + 1, 4);
  LockedQueue<SimPlat> a(space, 0, 1, 512);
  LockedQueue<SimPlat> b(space, 2, 3, 512);
  {
    // Pre-fill outside the simulation (quiescent).
    BasicSession proc(space);
    for (int i = 1; i <= 12; ++i) a.enqueue(proc, static_cast<std::uint32_t>(i));
  }
  Simulator sim(9);
  for (int p = 0; p < procs; ++p) {
    sim.add_process([&, p] {
      BasicSession proc(space);
      for (int i = 0; i < 15; ++i) {
        if (p % 2 == 0) {
          LockedQueue<SimPlat>::transfer(proc, a, b);
        } else {
          LockedQueue<SimPlat>::transfer(proc, b, a);
        }
      }
    });
  }
  WeightedSchedule sched({1.0, 0.1, 0.6}, 41);
  ASSERT_TRUE(sim.run(sched, 2'000'000'000ull));
  const auto sa = a.snapshot();
  const auto sb = b.snapshot();
  EXPECT_EQ(sa.size() + sb.size(), 12u);
  std::uint64_t sum = std::accumulate(sa.begin(), sa.end(), 0ull);
  sum = std::accumulate(sb.begin(), sb.end(), sum);
  EXPECT_EQ(sum, 78ull);  // 1 + ... + 12
}

}  // namespace
}  // namespace wfl
