// Schedule-fuzzing infrastructure tests.
//
// The campaign's headline guarantees are determinism guarantees: a mutant
// is a pure function of (parent, seed), a minimized reproducer is a pure
// function of the failing trace, and a Trace replays bit-identically —
// including when the grant stream is first recorded from a live run and
// materialized into an explicit prefix. These tests pin each property
// directly, plus the on-disk corpus round-trip and the wedge watchdog's
// bounded-failure behavior.
//
// tests/fuzz_corpus/ holds one minimized reproducer per seeded fault the
// campaign is gated on (bench/fuzz_sched.cpp --fault=...). The regression
// tests replay each: the trace must still fail with its fault armed, and
// the SAME schedule must pass with the fault stripped — pinning that the
// finding is caused by the seeded fault, not by the schedule or an oracle
// misfire.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "wfl/fuzz/campaign.hpp"
#include "wfl/fuzz/corpus.hpp"
#include "wfl/fuzz/mutate.hpp"
#include "wfl/fuzz/shrink.hpp"
#include "wfl/fuzz/trace.hpp"
#include "wfl/fuzz/workload.hpp"

#include "test_plat.hpp"

namespace wfl::fuzz {
namespace {

Trace base_trace(WorkloadKind wk) {
  Trace t;
  t.workload = wk;
  t.procs = 4;
  t.locks = 2;
  t.seed = 3;
  t.tail_seed = 0x9E3779B97F4A7C15ULL;
  t.slot_cap = 30000;
  return t;
}

// --- mutator ---------------------------------------------------------------

TEST(FuzzMutate, PureFunctionOfParentAndSeed) {
  Trace parent = base_trace(WorkloadKind::kAsync);
  for (int i = 0; i < 16; ++i) {
    parent.grants.push_back(static_cast<std::uint16_t>(i % 4));
  }
  parent.crashes.push_back({2, 120});
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Trace a = mutate(parent, seed);
    const Trace b = mutate(parent, seed);
    ASSERT_EQ(a.save_string(), b.save_string()) << "seed " << seed;
  }
}

TEST(FuzzMutate, MutantsStayWellFormed) {
  Trace parent = base_trace(WorkloadKind::kEngine);
  Trace t = parent;
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    t = mutate(t, seed);  // generational chain, not just first-order
    EXPECT_LT(t.crashes.size(), static_cast<std::size_t>(t.procs));
    for (std::uint16_t g : t.grants) EXPECT_LT(g, t.procs);
    for (const auto& c : t.crashes) {
      EXPECT_GE(c.pid, 0);
      EXPECT_LT(c.pid, t.procs);
    }
    // Serialization round-trips every mutant (the corpus relies on the
    // canonical form for dedup).
    Trace back;
    ASSERT_TRUE(back.load_string(t.save_string()));
    EXPECT_TRUE(back == t);
  }
}

TEST(FuzzMutate, FuzzScheduleMatchesExplicitMutate) {
  Trace parent = base_trace(WorkloadKind::kAsync);
  for (int i = 0; i < 32; ++i) {
    parent.grants.push_back(static_cast<std::uint16_t>((i * 7) % 4));
  }
  const std::uint64_t seed = 42;
  FuzzSchedule sched(parent, seed);
  const Trace expect = mutate(parent, seed);
  EXPECT_EQ(sched.trace().save_string(), expect.save_string());
  TraceSchedule ref(expect);
  for (int i = 0; i < 2000; ++i) ASSERT_EQ(sched.next(), ref.next());
}

// --- shrinker --------------------------------------------------------------

TEST(FuzzShrink, DeterministicAndMinimalOnMonotonePredicate) {
  Trace failing = base_trace(WorkloadKind::kEngine);
  for (int i = 0; i < 64; ++i) {
    failing.grants.push_back(static_cast<std::uint16_t>(i % 4));
  }
  failing.crashes.push_back({1, 500});
  failing.crashes.push_back({3, 900});
  // Monotone synthetic predicate (no simulation): "still fails" while the
  // prefix keeps >= 8 grants and >= 1 crash. ddmin over a monotone
  // predicate must reach the boundary exactly.
  const FailPredicate pred = [](const Trace& c) {
    return c.grants.size() >= 8 && !c.crashes.empty();
  };
  ShrinkStats st1, st2;
  const Trace a = shrink(failing, pred, 400, &st1);
  const Trace b = shrink(failing, pred, 400, &st2);
  EXPECT_EQ(a.save_string(), b.save_string());
  EXPECT_EQ(st1.evals, st2.evals);
  EXPECT_EQ(a.grants.size(), 8u);
  EXPECT_EQ(a.crashes.size(), 1u);
}

TEST(FuzzShrink, RespectsBudgetAndSlotCapGate) {
  Trace failing = base_trace(WorkloadKind::kEngine);
  for (int i = 0; i < 64; ++i) failing.grants.push_back(0);
  const FailPredicate always = [](const Trace&) { return true; };
  ShrinkStats st;
  const Trace capped =
      shrink(failing, always, /*budget=*/10, &st, /*shrink_slot_cap=*/true);
  EXPECT_LE(st.evals, 10);
  // With the gate off (wedge findings), the replay budget must survive
  // untouched no matter what the predicate accepts.
  const Trace wedge = shrink(failing, always, 400, nullptr,
                             /*shrink_slot_cap=*/false);
  EXPECT_EQ(wedge.slot_cap, failing.slot_cap);
  (void)capped;
}

// --- record -> replay bit-identity -----------------------------------------

// Materializing a run's recorded grant stream into an explicit prefix
// replays bit-identically: same slot count, same oracle verdict, same
// feature vector (site counters included). Runs on TestPlat, so the
// _checked twin pins the identity under the race auditor as well.
TEST(FuzzTrace, RecordedGrantsReplayBitIdentically) {
  for (const WorkloadKind wk : {WorkloadKind::kEngine, WorkloadKind::kAsync}) {
    const Trace uniform = base_trace(wk);
    Trace materialized = uniform;
    Xoshiro256 tail(uniform.tail_seed);
    for (int i = 0; i < 33000; ++i) {  // past any live run's slot count
      materialized.grants.push_back(static_cast<std::uint16_t>(
          tail.next_below(static_cast<std::uint64_t>(uniform.procs))));
    }
    const RunResult a = run_trace<test::TestPlat>(uniform);
    const RunResult b = run_trace<test::TestPlat>(materialized);
    EXPECT_TRUE(a.ok) << a.failure;
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.slots, b.slots) << workload_name(wk);
    EXPECT_EQ(a.features, b.features) << workload_name(wk);
    ASSERT_LT(a.slots, 33000u);  // the materialized prefix really covered it
  }
}

TEST(FuzzTrace, RecorderCapturesReplayableStream) {
  Trace t = base_trace(WorkloadKind::kEngine);
  t.crashes.push_back({2, 300});
  TraceSchedule inner(t);
  TraceRecorder rec(inner);
  std::vector<int> first;
  for (int i = 0; i < 4000; ++i) first.push_back(rec.next());
  // Recorded grants are post-crash-filter pids, so replaying them through
  // the filter again is the identity: a recorded pid is never a crashed
  // pid at its slot.
  Trace replayed = t;
  replayed.grants.assign(rec.grants().begin(), rec.grants().end());
  TraceSchedule again(replayed);
  for (int i = 0; i < 4000; ++i) ASSERT_EQ(again.next(), first[i]) << i;
}

// --- corpus ----------------------------------------------------------------

TEST(FuzzCorpus, OnDiskRoundTripAndDedup) {
  Corpus c;
  Trace t1 = base_trace(WorkloadKind::kEngine);
  Trace t2 = base_trace(WorkloadKind::kAsync);
  t2.fault = "lost_wake";
  t2.grants = {0, 1, 2, 3, 3, 1};
  t2.crashes.push_back({1, 77});
  EXPECT_TRUE(c.add(t1));
  EXPECT_TRUE(c.add(t2));
  EXPECT_FALSE(c.add(t1));  // canonical-form dedup
  ASSERT_EQ(c.size(), 2u);

  const auto dir = std::filesystem::temp_directory_path() /
                   "wfl_test_fuzz_corpus";
  std::filesystem::remove_all(dir);
  ASSERT_EQ(c.save_dir(dir), 2u);
  Corpus back;
  ASSERT_EQ(back.load_dir(dir), 2u);
  // Order-insensitive equality via the canonical serialized forms.
  std::vector<std::string> want = {t1.save_string(), t2.save_string()};
  std::vector<std::string> got = {back.at(0).save_string(),
                                  back.at(1).save_string()};
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(want, got);
  std::filesystem::remove_all(dir);
}

// --- watchdog --------------------------------------------------------------

// A replay that cannot finish within the trace's slot cap must come back
// as a bounded wedge finding — failure text carries the watchdog dump,
// the run stops at the cap (no runaway), and the harness still tears the
// executor down (this test returning is the proof).
// In the _checked twin the globally-installed auditor also observes the
// explicit run_trace<SimPlat> replays below — but its happens-before
// model is only sound over CheckedPlat replays (SimPlat runs emit an
// incomplete event stream, so the audit reports phantom races). Discard
// anything it accumulated across a SimPlat replay; the audited claims in
// this file go through run_trace_checked / TestPlat, which manage the
// engine themselves.
void discard_unaudited_findings() {
  if (race::RaceEngine* eng = race::engine()) eng->clear_findings();
}

TEST(FuzzWorkload, WedgeWatchdogBoundsTheRun) {
  Trace t = base_trace(WorkloadKind::kAsync);
  t.slot_cap = 3000;  // far below the ~8k slots the workload needs
  const RunResult r = run_trace<SimPlat>(t);
  discard_unaudited_findings();
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.wedged);
  EXPECT_EQ(r.failure.rfind("wedge", 0), 0u) << r.failure;
  EXPECT_NE(r.failure.find("watchdog"), std::string::npos) << r.failure;
  EXPECT_EQ(r.slots, t.slot_cap);
}

// engine_wide is the only family whose attempts take more than two locks.
// Every built-in seed trace of it (uniform, stall burst, crash slots)
// replays clean — under CheckedPlat in the _checked twin — and together
// they submit every lock-set size from 3 to kMaxLocksPerAttempt, so a
// shape edit cannot silently fall back to pairs.
TEST(FuzzWorkload, WideSeedTracesReplayCleanAtEverySize) {
  std::uint32_t sizes = 0;
  int seen = 0;
  for (const Trace& t : detail::seed_traces("")) {
    if (t.workload != WorkloadKind::kEngineWide) continue;
    ++seen;
    const RunResult r = run_trace<test::TestPlat>(t);
    EXPECT_TRUE(r.ok) << t.save_string() << r.failure;
    sizes |= r.lock_set_sizes;
  }
  EXPECT_EQ(seen, 8);
  for (std::uint32_t l = 3; l <= kMaxLocksPerAttempt; ++l) {
    EXPECT_NE(sizes & (1u << l), 0u) << "no attempt with " << l << " locks";
  }
}

// --- checked-in reproducer regressions -------------------------------------

std::filesystem::path corpus_dir() {
#ifdef WFL_FUZZ_CORPUS_DIR
  return WFL_FUZZ_CORPUS_DIR;
#else
  return std::filesystem::path("tests") / "fuzz_corpus";
#endif
}

// Every checked-in reproducer must (a) still fail with its recorded fault
// armed — on the plain replay or the checked (race-audited) one, matching
// how the campaign found it — and (b) pass with the fault stripped: the
// schedule alone is innocent.
TEST(FuzzReproducers, EachCorpusTraceStillReproduces) {
  const auto dir = corpus_dir();
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  int seen = 0;
  for (const auto& ent : std::filesystem::directory_iterator(dir)) {
    if (ent.path().extension() != ".trace") continue;
    ++seen;
    const std::string name = ent.path().filename().string();
    Trace t;
    std::ifstream is(ent.path());
    ASSERT_TRUE(t.load(is)) << name;
    ASSERT_FALSE(t.fault.empty()) << name;

    const RunResult plain = run_trace<SimPlat>(t);
    discard_unaudited_findings();
    bool detected = !plain.ok;
    if (!detected) {
      const RunResult checked = run_trace_checked(t);
      detected = !checked.ok;
    }
    EXPECT_TRUE(detected) << name << ": reproducer no longer fails";

    Trace clean = t;
    clean.fault.clear();
    const RunResult ok_run = run_trace<SimPlat>(clean);
    discard_unaudited_findings();
    EXPECT_TRUE(ok_run.ok)
        << name << ": schedule fails even without the fault: "
        << ok_run.failure;
    // The audited form of the same claim: the bit-identical CheckedPlat
    // replay of the fault-stripped schedule is clean under the race
    // engine too.
    const RunResult audited = run_trace_checked(clean);
    EXPECT_TRUE(audited.ok)
        << name << ": audited fault-free replay fails: " << audited.failure;
  }
  EXPECT_GE(seen, 8) << "fuzz corpus went missing from " << dir;
}

}  // namespace
}  // namespace wfl::fuzz
