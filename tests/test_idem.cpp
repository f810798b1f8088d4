// Idempotence construction (Theorem 4.2): any number of interleaved runs of
// a thunk must look like exactly one run — same values observed by every
// run, same final memory as a single sequential execution.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "wfl/idem/cell.hpp"
#include "wfl/idem/idem.hpp"
#include "wfl/platform/real.hpp"
#include "wfl/platform/sim.hpp"
#include "wfl/sim/sim.hpp"
#include "wfl/util/rng.hpp"

namespace wfl {
namespace {

TEST(CellPacking, RoundTrips) {
  const std::uint64_t w = cell_pack(0xABCD1234u, 0x99u);
  EXPECT_EQ(cell_value(w), 0xABCD1234u);
  EXPECT_EQ(cell_tag(w), 0x99u);
}

TEST(IdemSequential, LoadStoreCas) {
  Cell<RealPlat> c{5};
  ThunkLog<RealPlat> log;
  IdemCtx<RealPlat> m(log, 100);
  EXPECT_EQ(m.load(c), 5u);
  m.store(c, 9);
  EXPECT_EQ(m.load(c), 9u);
  EXPECT_TRUE(m.cas(c, 9, 11));
  EXPECT_FALSE(m.cas(c, 9, 13));  // expected stale
  EXPECT_EQ(m.load(c), 11u);
  EXPECT_EQ(c.peek(), 11u);
}

TEST(IdemSequential, ReplayIsANoOpAndSeesSameValues) {
  Cell<RealPlat> c{1};
  ThunkLog<RealPlat> log;
  auto run = [&](std::vector<std::uint32_t>& seen) {
    IdemCtx<RealPlat> m(log, 200);
    seen.push_back(m.load(c));
    m.store(c, seen.back() + 10);
    seen.push_back(m.load(c));
    EXPECT_TRUE(m.cas(c, seen.back(), 42));
  };
  std::vector<std::uint32_t> first, second;
  run(first);
  const std::uint32_t after_once = c.peek();
  run(second);  // full replay against the same log
  EXPECT_EQ(first, second);
  EXPECT_EQ(c.peek(), after_once);
  EXPECT_EQ(c.peek(), 42u);
}

// Agreement cost (DESIGN.md §3.7): an empty slot costs its load and one
// value-reporting CAS, a decided slot its load alone, and a replay of a
// decided op reads its slot, not the cell.
TEST(IdemSteps, AgreementAndReplayCostsArePinned) {
  auto steps_of = [](auto&& op) {
    const std::uint64_t before = RealPlat::steps();
    op();
    return RealPlat::steps() - before;
  };
  ThunkLog<RealPlat> log;
  std::uint64_t got = 0;
  EXPECT_EQ(steps_of([&] { got = log.agree(0, 7); }), 2u);
  EXPECT_EQ(got, 7u);
  EXPECT_EQ(steps_of([&] { got = log.agree(0, 9); }), 1u);
  EXPECT_EQ(got, 7u);

  Cell<RealPlat> c{5};
  ThunkLog<RealPlat> tlog;
  IdemCtx<RealPlat> first(tlog, 300);
  std::uint32_t v = 0;
  EXPECT_EQ(steps_of([&] { v = first.load(c); }), 3u);  // slot, cell, CAS
  EXPECT_EQ(v, 5u);
  EXPECT_EQ(steps_of([&] { first.store(c, 6); }), 4u);  // + the cell CAS
  IdemCtx<RealPlat> replay(tlog, 300);
  EXPECT_EQ(steps_of([&] { v = replay.load(c); }), 1u);
  EXPECT_EQ(v, 5u);  // the agreed word, not the cell's 6
  EXPECT_EQ(steps_of([&] { replay.store(c, 6); }), 2u);  // slot, cell CAS
  EXPECT_EQ(c.peek(), 6u);
}

// Two runs that both find a slot empty: the second CAS fails and reports
// the first run's word, so neither run loads the slot again.
TEST(IdemSteps, LosingAgreementAdoptsTheReportedWord) {
  ThunkLog<SimPlat> log;
  std::uint64_t got[2] = {0, 0};
  std::uint64_t cost[2] = {0, 0};
  Simulator sim(1);
  for (int p = 0; p < 2; ++p) {
    sim.add_process([&, p] {
      const std::uint64_t before = SimPlat::steps();
      got[p] = log.agree(0, 10 + static_cast<std::uint64_t>(p));
      cost[p] = SimPlat::steps() - before;
    });
  }
  RoundRobinSchedule rr(2);  // load, load, CAS, CAS
  ASSERT_TRUE(sim.run(rr, 100));
  EXPECT_EQ(got[0], 10u);
  EXPECT_EQ(got[1], 10u);
  EXPECT_EQ(cost[0], 2u);
  EXPECT_EQ(cost[1], 2u);
}

TEST(IdemSequential, OnceAgreesOnFirstValue) {
  ThunkLog<RealPlat> log;
  IdemCtx<RealPlat> a(log, 0);
  IdemCtx<RealPlat> b(log, 0);
  EXPECT_EQ(a.once(111), 111u);
  EXPECT_EQ(b.once(999), 111u);  // second run adopts the first run's draw
}

TEST(IdemSequential, StoreRacySucceedsWithoutInterference) {
  Cell<RealPlat> c{0};
  ThunkLog<RealPlat> log;
  IdemCtx<RealPlat> m(log, 300);
  EXPECT_TRUE(m.store_racy(c, 77, 4));
  EXPECT_EQ(c.peek(), 77u);
}

// Footnote 1 of the paper allows *racy* critical sections ("group-locking
// mechanisms"): thunks with disjoint lock sets writing the same cells.
// store_racy is the bounded-retry variant for that regime: under sustained
// interference from other instrumented writers it must still land within
// max_rounds > the number of writes that can interfere (every failed round
// implies a foreign write landed in its window), and every run of the same
// thunk must agree on which round landed.
TEST(IdemRacy, StoreRacyLandsUnderCrossThunkInterference) {
  const auto seed = std::uint64_t{17};
  Cell<SimPlat> shared{0};
  constexpr int kWriters = 3;
  constexpr int kStoresEach = 3;
  constexpr int kRounds = (kWriters - 1) * kStoresEach + 1;
  std::vector<std::unique_ptr<ThunkLog<SimPlat>>> logs;
  for (int w = 0; w < kWriters; ++w) {
    logs.push_back(std::make_unique<ThunkLog<SimPlat>>());
  }
  bool landed[kWriters] = {};

  Simulator sim(seed);
  for (int w = 0; w < kWriters; ++w) {
    sim.add_process([&, w] {
      IdemCtx<SimPlat> m(*logs[static_cast<std::size_t>(w)],
                         static_cast<std::uint32_t>(w) * kMaxThunkOps);
      for (int i = 0; i < kStoresEach; ++i) {
        landed[w] = m.store_racy(shared, static_cast<std::uint32_t>(100 + w),
                                 kRounds);
        if (!landed[w]) return;
      }
    });
  }
  UniformSchedule sched(kWriters, seed);
  ASSERT_TRUE(sim.run(sched, 10'000'000));
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_TRUE(landed[w]) << "writer " << w << " exceeded its round budget";
  }
  // The final value is one of the written values (no torn/foreign word).
  const std::uint32_t v = shared.peek();
  EXPECT_TRUE(v == 100 || v == 101 || v == 102) << v;
}

// A helped (replayed) racy store must not double-apply: the straggler's
// rounds agree with the first run's log and its physical CASes target
// superseded words.
TEST(IdemRacy, HelpedStoreRacyIsExactlyOnce) {
  Cell<RealPlat> c{0};
  Cell<RealPlat> probe{0};
  ThunkLog<RealPlat> log;
  IdemCtx<RealPlat> run1(log, 500);
  EXPECT_TRUE(run1.store_racy(c, 9, 2));
  const std::uint64_t after_first = c.raw_load();
  // Interference after the first run finished: an independent instrumented
  // writer moves the cell on.
  ThunkLog<RealPlat> other_log;
  IdemCtx<RealPlat> other(other_log, 600);
  other.store(c, 42);
  // The straggler replays the same thunk: agreement makes its store a
  // no-op; the interferer's value must survive.
  IdemCtx<RealPlat> run2(log, 500);
  EXPECT_TRUE(run2.store_racy(c, 9, 2));
  EXPECT_EQ(cell_value(c.raw_load()), 42u);
  EXPECT_NE(c.raw_load(), after_first);
  (void)probe;
}

// The idempotence-tag map (idem.hpp). The old map,
// uint32(serial)*kMaxThunkOps + op + 1, silently recycled the whole tag
// space every 2^26 serials — and worse, near each wrap it emitted tag
// 0 == kCellInitTag (serial = k*2^26 - 1, op = kMaxThunkOps - 1),
// colliding with the initial word of every fresh cell. The modular map
// must cross those boundaries with distinct, never-zero tags.
TEST(IdemTags, SurviveTheOldWrapBoundary) {
  constexpr std::uint64_t kOldWrap = 1ull << 26;  // 2^32 / kMaxThunkOps

  // The old map's wrap collision pair: same op, serials 2^26 apart.
  for (std::uint64_t base : {std::uint64_t{1}, kOldWrap - 7, 3 * kOldWrap}) {
    for (std::uint32_t op : {0u, 1u, kMaxThunkOps - 1}) {
      const std::uint32_t t_lo = idem_tag(idem_tag_base(base), op);
      const std::uint32_t t_hi = idem_tag(idem_tag_base(base + kOldWrap), op);
      EXPECT_NE(t_lo, t_hi) << "tag recycled at old wrap: serial " << base;
    }
  }

  // The old map's tag-0 emission points: serial = k*2^26 - 1, op = 63.
  // (Old: tag_base = 2^32 - 64, tag = tag_base + 63 + 1 = 0 mod 2^32.)
  for (std::uint64_t k : {std::uint64_t{1}, std::uint64_t{2},
                          std::uint64_t{1000}}) {
    const std::uint64_t serial = k * kOldWrap - 1;
    for (std::uint32_t op = 0; op < kMaxThunkOps; ++op) {
      EXPECT_NE(idem_tag(idem_tag_base(serial), op), kCellInitTag)
          << "tag 0 emitted at serial " << serial << " op " << op;
    }
  }

  // Injectivity across a shrunk-width window straddling the boundary:
  // flatten (serial, op) and require all tags distinct while the window is
  // narrower than the 2^32-1 modulus. 64 serials x 64 ops around the wrap.
  std::vector<std::uint32_t> tags;
  for (std::uint64_t s = kOldWrap - 32; s < kOldWrap + 32; ++s) {
    for (std::uint32_t op = 0; op < kMaxThunkOps; ++op) {
      tags.push_back(idem_tag(idem_tag_base(s), op));
    }
  }
  std::sort(tags.begin(), tags.end());
  EXPECT_TRUE(std::adjacent_find(tags.begin(), tags.end()) == tags.end())
      << "tag collision inside a window far below the modulus";
}

// Behavioral face of the same bug: two thunk instances whose serials sit
// exactly one old-wrap apart write the same value to the same cell. Under
// the old map their installed words were IDENTICAL (same value, same
// tag), breaking word uniqueness; now the second store must install a
// distinct word.
TEST(IdemTags, OldWrapPairInstallsDistinctWords) {
  constexpr std::uint64_t kOldWrap = 1ull << 26;
  Cell<RealPlat> c{0};

  ThunkLog<RealPlat> log_a;
  IdemCtx<RealPlat> a(log_a, idem_tag_base(5));
  a.store(c, 42);
  const std::uint64_t word_a = c.raw_load();

  ThunkLog<RealPlat> log_b;
  IdemCtx<RealPlat> b(log_b, idem_tag_base(5 + kOldWrap));
  b.store(c, 42);
  const std::uint64_t word_b = c.raw_load();

  EXPECT_EQ(cell_value(word_a), 42u);
  EXPECT_EQ(cell_value(word_b), 42u);
  EXPECT_NE(word_a, word_b) << "old-wrap serial pair reinstalled the same "
                               "(value, tag) word";
}

// The lazy reset contract: a completed run marks the log done with its op
// high-water mark, reset_used() re-inits exactly the consumed slots (and
// only those) and clears the done word, and a replay against the
// lazily-reset log behaves like one against a fresh log.
TEST(IdemSequential, LazyResetClearsExactlyTheConsumedSlots) {
  ThunkLog<RealPlat> log;
  Cell<RealPlat> c{0};
  {
    IdemCtx<RealPlat> m(log, idem_tag_base(1));
    m.store(c, 1);
    m.store(c, 2);  // 2 ops -> slots 0..3 at most
    EXPECT_FALSE(log.done());
    log.mark_done(m.ops_used());
    EXPECT_TRUE(log.done());
  }
  EXPECT_EQ(log.reset_used(), 4u);
  EXPECT_FALSE(log.done());
  // After the lazy reset the log must be indistinguishable from fresh:
  // a new 2-op thunk agrees on new values, not stale ones.
  {
    IdemCtx<RealPlat> m(log, idem_tag_base(2));
    EXPECT_EQ(m.load(c), 2u);
    m.store(c, 7);
    log.mark_done(m.ops_used());
  }
  EXPECT_EQ(c.peek(), 7u);
  EXPECT_EQ(log.reset_used(), 4u);  // 1 load op + 1 store op -> 4 slots
  // An untouched log resets nothing.
  EXPECT_EQ(log.reset_used(), 0u);
}

TEST(IdemSequential, TagsMakeWordsUnique) {
  Cell<RealPlat> c{3};
  ThunkLog<RealPlat> log;
  IdemCtx<RealPlat> m(log, 400);
  const std::uint64_t w0 = c.raw_load();
  m.store(c, 3);  // same value, new tag: raw word must change
  const std::uint64_t w1 = c.raw_load();
  EXPECT_EQ(cell_value(w0), cell_value(w1));
  EXPECT_NE(w0, w1);
}

// ---------------------------------------------------------------------------
// Property sweep: random straight-line programs over a few cells, executed
// by several interleaved helper runs under the simulator, must leave memory
// exactly as one sequential execution, and every run must observe the
// sequential run's values.
// ---------------------------------------------------------------------------

struct OpSpec {
  enum Kind { kLoad, kStore, kCas, kOnce } kind;
  int cell;
  std::uint32_t a, b;
};

std::vector<OpSpec> random_program(std::uint64_t seed, int len, int cells) {
  Xoshiro256 rng(seed);
  std::vector<OpSpec> prog;
  for (int i = 0; i < len; ++i) {
    OpSpec op;
    op.kind = static_cast<OpSpec::Kind>(rng.next_below(4));
    op.cell = static_cast<int>(rng.next_below(cells));
    op.a = static_cast<std::uint32_t>(rng.next_below(4));
    op.b = static_cast<std::uint32_t>(rng.next_below(4));
    prog.push_back(op);
  }
  return prog;
}

// Sequential reference: plain values, and the trace a single run would see.
std::vector<std::uint32_t> reference(const std::vector<OpSpec>& prog,
                                     std::vector<std::uint32_t>& mem) {
  std::vector<std::uint32_t> trace;
  for (const OpSpec& op : prog) {
    switch (op.kind) {
      case OpSpec::kLoad:
        trace.push_back(mem[static_cast<std::size_t>(op.cell)]);
        break;
      case OpSpec::kStore:
        mem[static_cast<std::size_t>(op.cell)] = op.a;
        trace.push_back(op.a);
        break;
      case OpSpec::kCas: {
        std::uint32_t& v = mem[static_cast<std::size_t>(op.cell)];
        const bool ok = v == op.a;
        if (ok) v = op.b;
        trace.push_back(ok ? 1 : 0);
        break;
      }
      case OpSpec::kOnce:
        trace.push_back(op.a);  // first run's draw wins; all runs use op.a
        break;
    }
  }
  return trace;
}

void interpret(const std::vector<OpSpec>& prog,
               std::vector<std::unique_ptr<Cell<SimPlat>>>& cells,
               IdemCtx<SimPlat>& m, std::vector<std::uint32_t>& trace) {
  for (const OpSpec& op : prog) {
    Cell<SimPlat>& c = *cells[static_cast<std::size_t>(op.cell)];
    switch (op.kind) {
      case OpSpec::kLoad:
        trace.push_back(m.load(c));
        break;
      case OpSpec::kStore:
        m.store(c, op.a);
        trace.push_back(op.a);
        break;
      case OpSpec::kCas:
        trace.push_back(m.cas(c, op.a, op.b) ? 1 : 0);
        break;
      case OpSpec::kOnce:
        // Every run proposes its own draw; agreement must make them all
        // adopt the first proposal. The reference models the first-run draw
        // as op.a, so helper h proposes op.a + h (only h=0 can win... but
        // scheduling decides who is first). To keep the reference exact we
        // have all runs propose the same op.a and separately assert the
        // disagreement case in OnceAgreesOnFirstValue above.
        trace.push_back(
            static_cast<std::uint32_t>(m.once(op.a)));
        break;
    }
  }
}

class IdemProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IdemProperty, HelpersMatchSequentialReference) {
  const std::uint64_t seed = GetParam();
  const int kCells = 3;
  const int kLen = 12;
  const int kHelpers = 4;
  const auto prog = random_program(seed, kLen, kCells);

  std::vector<std::uint32_t> ref_mem(kCells, 0);
  const auto ref_trace = reference(prog, ref_mem);

  std::vector<std::unique_ptr<Cell<SimPlat>>> cells;
  for (int i = 0; i < kCells; ++i) {
    cells.push_back(std::make_unique<Cell<SimPlat>>(0u));
  }
  ThunkLog<SimPlat> log;
  std::vector<std::vector<std::uint32_t>> traces(
      static_cast<std::size_t>(kHelpers));

  Simulator sim(seed ^ 0x1234);
  for (int h = 0; h < kHelpers; ++h) {
    sim.add_process([&, h] {
      IdemCtx<SimPlat> m(log, /*tag_base=*/700);  // same for all runs
      interpret(prog, cells, m, traces[static_cast<std::size_t>(h)]);
    });
  }
  UniformSchedule sched(kHelpers, seed * 31 + 7);
  ASSERT_TRUE(sim.run(sched, 10'000'000));

  for (int h = 0; h < kHelpers; ++h) {
    EXPECT_EQ(traces[static_cast<std::size_t>(h)], ref_trace)
        << "helper " << h << " diverged from the sequential reference (seed "
        << seed << ")";
  }
  for (int c = 0; c < kCells; ++c) {
    EXPECT_EQ(cells[static_cast<std::size_t>(c)]->peek(),
              ref_mem[static_cast<std::size_t>(c)])
        << "cell " << c << " final value diverged (seed " << seed << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IdemProperty,
                         ::testing::Range(std::uint64_t{1},
                                          std::uint64_t{41}));

}  // namespace
}  // namespace wfl
