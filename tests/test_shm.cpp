// Shared-memory placement + survivor-driven crash recovery (DESIGN.md §10).
//
// The crash tests here are REAL: fork() a worker into its own address
// space, let it park at a chosen point of the descriptor path (announced,
// revealed, or mid-thunk), SIGKILL it, and verify that a survivor's reap
// recovers exactly what the protocol promises — a revealed attempt is
// driven to its decided fate and a won thunk completes exactly once; an
// unrevealed attempt is eliminated; the victim's announcements vanish; and
// the victim's pid is never recycled. The full sweep with baselines under
// the same kill lives in bench/exp_crash_mp.cpp; these are the tier-1
// invariants.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "wfl/wfl.hpp"

namespace wfl {
namespace {

LockConfig shm_cfg(int procs) {
  LockConfig cfg;
  cfg.kappa = static_cast<std::uint32_t>(procs);
  cfg.max_locks = 2;
  cfg.max_thunk_steps = 8;
  cfg.delay_mode = DelayMode::kOff;
  return cfg;
}

TEST(ShmArenaTest, OffsetsRoundTrip) {
  ShmArena a = ShmArena::create_anon(1u << 20);
  ASSERT_TRUE(a.valid());
  const std::uint64_t off = a.create<std::uint64_t>(std::uint64_t{42});
  EXPECT_EQ(*a.at<std::uint64_t>(off), 42u);

  Offset<std::uint64_t> o{off};
  EXPECT_FALSE(o.null());
  EXPECT_EQ(*o.in(a), 42u);
  EXPECT_EQ(Offset<std::uint64_t>::of(a, a.at<std::uint64_t>(off)).raw, off);

  a.set_root(off);
  EXPECT_EQ(a.root(), off);
  EXPECT_GE(a.generation(), 1u);
}

TEST(ShmArenaTest, NamedCreateAttach) {
  char name[64];
  std::snprintf(name, sizeof(name), "/wfl_test_shm_%d", ::getpid());
  ShmArena owner = ShmArena::create_named(name, 1u << 20);
  const std::uint64_t off = owner.create<std::uint64_t>(std::uint64_t{7});
  owner.set_root(off);
  owner.publish_ready();

  ShmArena view = ShmArena::attach_named(name);
  ASSERT_TRUE(view.valid());
  EXPECT_EQ(view.root(), off);
  EXPECT_EQ(*view.at<std::uint64_t>(view.root()), 7u);
  EXPECT_EQ(view.generation(), 2u) << "attach must bump the generation";
}

TEST(ShmArenaTest, PidProbe) {
  EXPECT_TRUE(shm_pid_alive(static_cast<int>(::getpid())));
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) ::_exit(0);
  int st = 0;
  ASSERT_EQ(::waitpid(child, &st, 0), child);
  EXPECT_FALSE(shm_pid_alive(static_cast<int>(child)));
  EXPECT_FALSE(shm_pid_alive(0));
  EXPECT_FALSE(shm_pid_alive(-1));
}

// Single process, two locks, POD thunks: every win applies its program
// exactly once (both cells move together), losses apply nothing.
TEST(ShmTableTest, AttemptsApplyThunksExactlyOnce) {
  ShmArena a = ShmArena::create_anon(8u << 20);
  auto t = ShmLockTable::create_in(a, shm_cfg(2), 2, 4);
  auto s = t->open_session();

  const std::uint64_t c0 = a.create<Cell<RealPlat>>(0u);
  const std::uint64_t c1 = a.create<Cell<RealPlat>>(0u);

  ShmThunk th;
  th.op = ShmThunk::kAddCells;
  th.n_cells = 2;
  th.cells[0] = Offset<Cell<RealPlat>>{c0};
  th.cells[1] = Offset<Cell<RealPlat>>{c1};

  std::uint64_t wins = 0;
  const std::uint32_t ids[] = {1, 3};
  for (int i = 0; i < 200; ++i) {
    if (t->try_locks(*s, ids, th)) ++wins;
  }
  EXPECT_EQ(wins, 200u) << "uncontended attempts must all win";
  EXPECT_EQ(a.at<Cell<RealPlat>>(c0)->peek(), wins);
  EXPECT_EQ(a.at<Cell<RealPlat>>(c1)->peek(), wins);
  LockStats st;
  s->stats().accumulate_into(st);
  EXPECT_EQ(st.wins, wins);
  EXPECT_FALSE(t->any_holder(*s));
  t->close_session(*s);
}

// ShmThunk holds kMaxCells cell offsets; a larger n_cells would make the
// interpreter read past the array, so try_locks refuses it up front.
TEST(ShmTableTest, OversizedThunkIsRefused) {
  ShmArena a = ShmArena::create_anon(8u << 20);
  auto t = ShmLockTable::create_in(a, shm_cfg(2), 2, 2);
  auto s = t->open_session();
  ShmThunk th;
  th.op = ShmThunk::kAddCells;
  th.n_cells = ShmThunk::kMaxCells + 1;
  const std::uint32_t ids[] = {0};
  EXPECT_DEATH(t->try_locks(*s, ids, th), "kMaxCells");
  t->close_session(*s);
}

// Every helper and reaper replays a revealed thunk, so a cell offset that
// does not name a Cell inside the arena is refused before the attempt
// publishes anything — not discovered as a segfault in every process that
// later touches the lock.
TEST(ShmTableTest, NullCellOffsetIsRefused) {
  ShmArena a = ShmArena::create_anon(8u << 20);
  auto t = ShmLockTable::create_in(a, shm_cfg(2), 2, 2);
  auto s = t->open_session();
  ShmThunk th;
  th.op = ShmThunk::kAddCells;
  th.n_cells = 1;  // cells[0] left null
  const std::uint32_t ids[] = {0};
  EXPECT_DEATH(t->try_locks(*s, ids, th), "cell offset");
  t->close_session(*s);
}

TEST(ShmTableTest, OutOfRangeCellOffsetIsRefused) {
  ShmArena a = ShmArena::create_anon(8u << 20);
  auto t = ShmLockTable::create_in(a, shm_cfg(2), 2, 2);
  auto s = t->open_session();
  ShmThunk th;
  th.op = ShmThunk::kAddCells;
  th.n_cells = 1;
  th.cells[0] = Offset<Cell<RealPlat>>{a.size() + 4096};
  const std::uint32_t ids[] = {0};
  EXPECT_DEATH(t->try_locks(*s, ids, th), "cell offset");
  t->close_session(*s);
}

// The arena-placed EbrDomain: two accessors attached to one arena share
// the epoch and every announcement, while each keeps its own retire
// buckets. A guard held through A blocks B's reclamation; abandoning A's
// participant unblocks it; and an attached accessor never runs deleters
// at teardown, because peers may still hold guards.
TEST(ShmEbrTest, AttachedAccessorsShareGuards) {
  ShmArena arena = ShmArena::create_anon(1u << 20);
  const std::uint64_t off = EbrDomain::create_in(arena, 4);
  std::vector<std::uint32_t> freed;
  const auto deleter = +[](void* ctx, std::uint32_t h) {
    static_cast<std::vector<std::uint32_t>*>(ctx)->push_back(h);
  };

  EbrDomain a(arena, off);
  const int pa = a.register_participant();
  {
    EbrDomain b(arena, off);
    const int pb = b.register_participant();
    EXPECT_NE(pa, pb) << "accessors must share the participant count";

    a.enter(pa);
    b.retire(pb, &freed, 7, deleter);
    for (int i = 0; i < 10; ++i) b.collect(pb);
    EXPECT_TRUE(freed.empty()) << "freed under a guard held through A";

    b.abandon(pa);  // the reaper's move once A's process is dead
    for (int i = 0; i < 10; ++i) b.collect(pb);
    ASSERT_EQ(freed.size(), 1u);
    EXPECT_EQ(freed[0], 7u);

    a.enter(pa);  // a peer inside a guard while B is torn down
    b.retire(pb, &freed, 8, deleter);
  }
  EXPECT_EQ(freed.size(), 1u) << "attached accessor ran a deleter";
  a.exit(pa);
}

// Pids are an audit trail, not a recyclable resource: a closed shm session
// never gets its pid reissued, and the in-process table does the same for
// a process released while parked in a guard.
TEST(ShmTableTest, RetiredPidNeverRecycledShm) {
  ShmArena a = ShmArena::create_anon(8u << 20);
  auto t = ShmLockTable::create_in(a, shm_cfg(4), 4, 2);

  auto s0 = t->open_session();
  const int pid0 = s0->pid();
  // Churn the pools so any slot reuse would surface before re-open.
  const std::uint64_t c0 = a.create<Cell<RealPlat>>(0u);
  ShmThunk th;
  th.op = ShmThunk::kAddCells;
  th.n_cells = 1;
  th.cells[0] = Offset<Cell<RealPlat>>{c0};
  const std::uint32_t ids[] = {0};
  for (int i = 0; i < 100; ++i) t->try_locks(*s0, ids, th);
  t->close_session(*s0);
  EXPECT_EQ(t->session_state(pid0), kSessClosed);

  auto s1 = t->open_session();
  EXPECT_NE(s1->pid(), pid0) << "closed pid must never be recycled";
  for (int i = 0; i < 100; ++i) t->try_locks(*s1, ids, th);
  EXPECT_EQ(a.at<Cell<RealPlat>>(c0)->peek(), 200u);
  t->close_session(*s1);
}

TEST(ShmTableTest, RetiredPidNeverRecycledInProcess) {
  LockConfig cfg = shm_cfg(3);
  LockTable<RealPlat> t(cfg, 3, 8);
  Cell<RealPlat> c{0};
  // Multi-lock attempts take the descriptor path through the pools.
  const StaticLockSet<2> ids({0, 4});
  const auto bump = [&c](IdemCtx<RealPlat>& m) { m.store(c, m.load(c) + 1); };

  LockTable<RealPlat>::Process p0;
  {
    Session<RealPlat> s0(t);
    p0 = s0.process();
    for (int i = 0; i < 200; ++i) submit(s0, ids, bump);
    // Crash-parked shape: released while an EBR guard is held.
    t.ebr_enter(p0);
  }

  // Churn pool segments with a fresh process, then register again: the
  // parked pid must not come back even after its old slots were recycled.
  int pid1 = -1;
  {
    Session<RealPlat> s1(t);
    pid1 = s1.pid();
    EXPECT_NE(pid1, p0.pid);
    for (int i = 0; i < 200; ++i) submit(s1, ids, bump);
  }
  Session<RealPlat> s2(t);
  EXPECT_NE(s2.pid(), p0.pid) << "parked pid recycled";
  EXPECT_EQ(s2.pid(), pid1) << "orderly pid should be reused";
}

// ShmLockTable::attach is documented for "same process or another one":
// destroying a second accessor in the same process must leave the first
// one's thunks runnable (each accessor resolves cell offsets against its
// own arena).
TEST(ShmTableTest, SecondAccessorTeardownKeepsThunksRunnable) {
  ShmArena a = ShmArena::create_anon(8u << 20);
  auto t = ShmLockTable::create_in(a, shm_cfg(2), 2, 2);
  const std::uint64_t c0 = a.create<Cell<RealPlat>>(0u);
  ShmThunk th;
  th.op = ShmThunk::kAddCells;
  th.n_cells = 1;
  th.cells[0] = Offset<Cell<RealPlat>>{c0};
  const std::uint32_t ids[] = {0};

  {
    auto peer = ShmLockTable::attach(a);
    auto ps = peer->open_session();
    ASSERT_TRUE(peer->try_locks(*ps, ids, th));
    peer->close_session(*ps);
  }

  auto s = t->open_session();
  ASSERT_TRUE(t->try_locks(*s, ids, th));
  EXPECT_EQ(a.at<Cell<RealPlat>>(c0)->peek(), 2u);
  t->close_session(*s);
}

// The shm help phase. Session A is revealed but has not run yet when its
// post-reveal trap hands control to session B on the same two locks. B's
// help phase must find A, drive it to a win and replay its thunk, and
// then win itself; when A resumes it finds itself won. Each program
// applies exactly once.
TEST(ShmTableTest, RevealedAttemptIsHelpedBySameProcessPeer) {
  ShmArena a = ShmArena::create_anon(8u << 20);
  auto t = ShmLockTable::create_in(a, shm_cfg(2), 2, 2);
  const std::uint64_t c0 = a.create<Cell<RealPlat>>(0u);
  const std::uint64_t c1 = a.create<Cell<RealPlat>>(0u);
  ShmThunk th;
  th.op = ShmThunk::kAddCells;
  th.n_cells = 2;
  th.cells[0] = Offset<Cell<RealPlat>>{c0};
  th.cells[1] = Offset<Cell<RealPlat>>{c1};
  const std::uint32_t ids[] = {0, 1};

  auto sa = t->open_session();
  auto sb = t->open_session();
  bool b_won = false;
  std::uint64_t cell0_after_b = 0;
  sa->trap_post_reveal = [&] {
    b_won = t->try_locks(*sb, ids, th);
    cell0_after_b = a.at<Cell<RealPlat>>(c0)->peek();
  };
  const bool a_won = t->try_locks(*sa, ids, th);

  EXPECT_TRUE(b_won) << "B must win once it has driven A to completion";
  EXPECT_EQ(cell0_after_b, 2u) << "B must replay A's thunk before its own";
  EXPECT_TRUE(a_won) << "A was driven to a win by B's help phase";
  EXPECT_EQ(a.at<Cell<RealPlat>>(c0)->peek(), 2u);
  EXPECT_EQ(a.at<Cell<RealPlat>>(c1)->peek(), 2u);
  LockStats st;
  sb->stats().accumulate_into(st);
  EXPECT_GE(st.helps, 1u);
  EXPECT_FALSE(t->any_holder(*sa));
  t->close_session(*sb);
  t->close_session(*sa);
}

struct ForkCrashRig {
  ShmArena arena = ShmArena::create_anon(16u << 20);
  std::unique_ptr<ShmLockTable> table;
  std::uint64_t c0 = 0, c1 = 0;
  std::uint64_t trap_flag = 0;  // Offset<std::atomic<uint32>>

  ForkCrashRig() {
    table = ShmLockTable::create_in(arena, shm_cfg(4), 4, 2);
    c0 = arena.create<Cell<RealPlat>>(0u);
    c1 = arena.create<Cell<RealPlat>>(0u);
    trap_flag = arena.create<std::atomic<std::uint32_t>>();
  }

  ShmThunk thunk(int trap_os_pid = 0) const {
    ShmThunk th;
    th.op = ShmThunk::kAddCells;
    th.n_cells = 2;
    th.cells[0] = Offset<Cell<RealPlat>>{c0};
    th.cells[1] = Offset<Cell<RealPlat>>{c1};
    th.trap_os_pid = trap_os_pid;
    th.trap_flag = Offset<std::atomic<std::uint32_t>>{trap_flag};
    return th;
  }

  std::uint64_t cell0() const { return arena.at<Cell<RealPlat>>(c0)->peek(); }
  std::uint64_t cell1() const { return arena.at<Cell<RealPlat>>(c1)->peek(); }
  std::atomic<std::uint32_t>& flag() const {
    return *arena.at<std::atomic<std::uint32_t>>(trap_flag);
  }

  // Confirm the child died by SIGKILL specifically.
  static void reap_os_child(pid_t child) {
    int st = 0;
    ASSERT_EQ(::waitpid(child, &st, 0), child);
    ASSERT_TRUE(WIFSIGNALED(st));
    ASSERT_EQ(WTERMSIG(st), SIGKILL);
  }
};

// Victim killed REVEALED but undriven (between its priority store and its
// run). The reaper must finish the competition on its behalf: alone on the
// lock, the victim's attempt won, so its thunk completes — exactly once —
// and the lock is free again for survivors.
TEST(ShmCrashTest, RevealedVictimIsDrivenToCompletion) {
  ForkCrashRig rig;
  auto parent = rig.table->open_session();  // pid 0, opened pre-fork

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    auto s = rig.table->open_session();
    s->trap_post_reveal = [] { ::raise(SIGKILL); };
    const std::uint32_t ids[] = {0, 1};
    rig.table->try_locks(*s, ids, rig.thunk());
    ::_exit(1);  // unreachable
  }
  ForkCrashRig::reap_os_child(child);

  EXPECT_EQ(rig.table->reap_dead(*parent), 1);
  EXPECT_EQ(rig.cell0(), 1u) << "victim's won thunk must be completed";
  EXPECT_EQ(rig.cell1(), 1u);
  EXPECT_FALSE(rig.table->any_holder(*parent)) << "lock wedged by corpse";

  // Survivors proceed: the victim's announcements are gone.
  const std::uint32_t ids[] = {0, 1};
  ASSERT_TRUE(rig.table->try_locks(*parent, ids, rig.thunk()));
  EXPECT_EQ(rig.cell0(), 2u);
  EXPECT_EQ(rig.cell1(), 2u);
  EXPECT_EQ(rig.table->reap_dead(*parent), 0) << "reap must be one-shot";
  rig.table->close_session(*parent);
}

// Victim killed ANNOUNCED but unrevealed (inserted, priority still
// pending). No getSet ever surfaced it, so elimination is the only sound
// fate: its thunk must NOT run, and the sets must come back clean.
TEST(ShmCrashTest, UnrevealedVictimIsEliminated) {
  ForkCrashRig rig;
  auto parent = rig.table->open_session();

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    auto s = rig.table->open_session();
    s->trap_pre_reveal = [] { ::raise(SIGKILL); };
    const std::uint32_t ids[] = {0, 1};
    rig.table->try_locks(*s, ids, rig.thunk());
    ::_exit(1);
  }
  ForkCrashRig::reap_os_child(child);

  EXPECT_EQ(rig.table->reap_dead(*parent), 1);
  EXPECT_EQ(rig.cell0(), 0u) << "unrevealed attempt must not be won for it";
  EXPECT_EQ(rig.cell1(), 0u);
  EXPECT_FALSE(rig.table->any_holder(*parent));

  const std::uint32_t ids[] = {0, 1};
  ASSERT_TRUE(rig.table->try_locks(*parent, ids, rig.thunk()));
  EXPECT_EQ(rig.cell0(), 1u);
  EXPECT_EQ(rig.cell1(), 1u);
  rig.table->close_session(*parent);
}

// Victim killed MID-THUNK: it won, applied cell 0 (logged), raised the
// trap flag, and froze until SIGKILL — a partially-applied, partially-
// logged program, with the EBR guard still held. The reaper's replay must
// complete cell 1 without double-applying cell 0 (the agreement log makes
// the replayed prefix write-identical), and the abandoned guard must stop
// pinning the epoch.
TEST(ShmCrashTest, MidThunkVictimCompletesExactlyOnce) {
  ForkCrashRig rig;
  auto parent = rig.table->open_session();

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    auto s = rig.table->open_session();
    const std::uint32_t ids[] = {0, 1};
    rig.table->try_locks(*s, ids,
                         rig.thunk(static_cast<int>(::getpid())));
    ::_exit(1);  // unreachable: the thunk traps and never returns
  }
  // Wait until the child is provably wedged inside its thunk, then kill.
  for (int spins = 0; rig.flag().load(std::memory_order_acquire) == 0;
       ++spins) {
    ASSERT_LT(spins, 200000) << "victim never reached the thunk trap";
    ::usleep(100);
  }
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  ForkCrashRig::reap_os_child(child);

  const std::uint64_t epoch_before = rig.table->epoch();
  EXPECT_EQ(rig.table->reap_dead(*parent), 1);
  EXPECT_EQ(rig.cell0(), 1u) << "logged prefix double-applied on replay";
  EXPECT_EQ(rig.cell1(), 1u) << "suffix of the victim's thunk lost";
  EXPECT_FALSE(rig.table->any_holder(*parent));

  // The corpse's guard no longer pins reclamation: churn must advance the
  // epoch past where the victim froze it.
  const std::uint32_t ids[] = {0, 1};
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(rig.table->try_locks(*parent, ids, rig.thunk()));
  }
  EXPECT_GT(rig.table->epoch(), epoch_before)
      << "abandoned victim still pins the EBR epoch";
  EXPECT_EQ(rig.cell0(), 301u);
  EXPECT_EQ(rig.cell1(), 301u);
  rig.table->close_session(*parent);
}

// Allocation backpressure must reap a dead guard holder on its own. The
// victim dies mid-thunk still inside its EBR guard, which pins the epoch;
// the survivor never calls reap_dead, so every descriptor and snapshot it
// retires stays pending until its pools run dry (the 1024-slot descriptor
// pool first). alloc_backpressure then has to find and reap the corpse,
// and every attempt still wins.
TEST(ShmCrashTest, AllocationBackpressureReapsDeadGuardHolder) {
  ForkCrashRig rig;
  auto parent = rig.table->open_session();

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    auto s = rig.table->open_session();
    const std::uint32_t ids[] = {0, 1};
    rig.table->try_locks(*s, ids,
                         rig.thunk(static_cast<int>(::getpid())));
    ::_exit(1);  // unreachable: the thunk traps and never returns
  }
  for (int spins = 0; rig.flag().load(std::memory_order_acquire) == 0;
       ++spins) {
    ASSERT_LT(spins, 200000) << "victim never reached the thunk trap";
    ::usleep(100);
  }
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  ForkCrashRig::reap_os_child(child);
  const int victim = 1;  // the parent opened pid 0 before the fork
  ASSERT_EQ(rig.table->session_state(victim), kSessLive);

  const std::uint32_t ids[] = {0, 1};
  constexpr std::uint64_t kAttempts = 2000;
  std::uint64_t wins = 0;
  for (std::uint64_t i = 0; i < kAttempts; ++i) {
    if (rig.table->try_locks(*parent, ids, rig.thunk())) ++wins;
  }
  EXPECT_EQ(wins, kAttempts);
  EXPECT_EQ(rig.table->session_state(victim), kSessReaped)
      << "allocation backpressure never reaped the dead guard holder";
  EXPECT_EQ(rig.cell0(), 1 + kAttempts);
  EXPECT_EQ(rig.cell1(), 1 + kAttempts);
  EXPECT_FALSE(rig.table->any_holder(*parent));
  rig.table->close_session(*parent);
}

}  // namespace
}  // namespace wfl
