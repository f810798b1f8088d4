// E13 — per-operation cost of the data-structure substrates, swept across
// the whole LockBackend registry (RealPlat, single thread): the wait-free
// locks in practical mode (delays off) against Turek-style helping locks
// and ordered two-phase locking (spin and std::mutex) running the *same*
// substrate code — each benchmark is one template instantiated per
// registry entry, registered at runtime with a "/backend:NAME" segment
// that bench_json.hpp surfaces as the wfl-bench-v1 "backend" key.
//
// This is the "is it usable as a real lock?" sanity table of the §7
// discussion: the wflock column pays the descriptor + active-set + log
// machinery; the 2PL columns are the bare-metal floor (their critical
// sections still run through IdemCtx, so the comparison isolates the
// *competition* machinery, not the instrumentation). The interesting
// number is the ratio staying a modest constant across structures — the
// paper's claim that the machinery costs O(1) per operation, not O(n).
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "wfl/wfl.hpp"

namespace {

using namespace wfl;  // NOLINT: bench file, local scope

LockConfig practical_cfg(std::uint32_t max_locks,
                         std::uint32_t thunk_steps) {
  LockConfig cfg;
  cfg.kappa = 2;
  cfg.max_locks = max_locks;
  cfg.max_thunk_steps = thunk_steps;
  cfg.delay_mode = DelayMode::kOff;
  return cfg;
}

BackendConfig single_proc(std::uint32_t max_locks, std::uint32_t thunk_steps,
                          int num_locks) {
  BackendConfig bc;
  bc.lock = practical_cfg(max_locks, thunk_steps);
  bc.max_procs = 1;
  bc.num_locks = num_locks;
  return bc;
}

void report_attempts(benchmark::State& state, std::uint64_t attempts,
                     double ops) {
  state.counters["attempts_per_op"] =
      ops > 0 ? static_cast<double>(attempts) / ops : 0.0;
  state.counters["win_rate"] =
      attempts > 0 ? ops / static_cast<double>(attempts) : 0.0;
}

// --- bank ----------------------------------------------------------------

template <typename B>
void BM_Bank_Transfer(benchmark::State& state) {
  auto space = B::make_space(single_proc(2, 8, 16));
  Bank<B> bank(*space, 16, 1000);
  typename B::Session proc(*space);
  std::uint64_t attempts = 0;
  std::uint32_t i = 0;
  for (auto _ : state) {
    attempts +=
        bank.transfer(proc, i % 16, (i + 1) % 16, 1, Policy::retry())
            .attempts;
    ++i;
  }
  report_attempts(state, attempts, static_cast<double>(state.iterations()));
}

// --- linked list ---------------------------------------------------------

template <typename B>
void BM_List_InsertErase(benchmark::State& state) {
  auto space = B::make_space(single_proc(2, 8, 512));
  LockedList<B> list(*space, 512);
  typename B::Session proc(*space);
  for (std::uint32_t k = 2; k <= 64; k += 2) list.insert(proc, k);
  std::uint64_t attempts = 0;  // unified Outcome accounting, 2 ops/iter
  for (auto _ : state) {
    list.insert(proc, 33, &attempts);
    list.erase(proc, 33, &attempts);
    // Steady state includes reclamation (single-threaded here, so every
    // iteration is a quiescent point); without it the bounded pool is
    // exhausted after ~500 erases.
    list.quiescent_recycle();
  }
  report_attempts(state, attempts,
                  2.0 * static_cast<double>(state.iterations()));
}

// --- BST -----------------------------------------------------------------

template <typename B>
void BM_Bst_InsertErase(benchmark::State& state) {
  auto space = B::make_space(single_proc(3, 16, 1024));
  LockedBst<B> bst(*space, 1024);
  typename B::Session proc(*space);
  for (std::uint32_t k = 10; k <= 300; k += 10) bst.insert(proc, k);
  for (auto _ : state) {
    bst.insert(proc, 155);
    bst.erase(proc, 155);
  }
}

// --- hash map -------------------------------------------------------------

template <typename B>
void BM_Map_PutGetErase(benchmark::State& state) {
  auto space = B::make_space(
      single_proc(2, LockedHashMap<B>::thunk_step_budget(), 64));
  LockedHashMap<B> map(*space, 64, 512);
  typename B::Session proc(*space);
  for (std::uint64_t k = 1; k <= 100; ++k) {
    map.put(proc, k, static_cast<std::uint32_t>(k));
  }
  std::uint32_t v = 0;
  for (auto _ : state) {
    map.put(proc, 777, 1);
    map.get_locked(proc, 777, &v);
    map.erase(proc, 777);
    benchmark::DoNotOptimize(v);
  }
}

template <typename B>
void BM_Map_Swap(benchmark::State& state) {
  auto space = B::make_space(
      single_proc(2, LockedHashMap<B>::thunk_step_budget(), 64));
  LockedHashMap<B> map(*space, 64, 128);
  typename B::Session proc(*space);
  map.put(proc, 1, 10);
  map.put(proc, 2, 20);
  std::uint64_t attempts = 0;  // unified Outcome accounting
  for (auto _ : state) {
    map.swap(proc, 1, 2, &attempts);
  }
  report_attempts(state, attempts, static_cast<double>(state.iterations()));
}

// --- queue -----------------------------------------------------------------

template <typename B>
void BM_Queue_EnqDeq(benchmark::State& state) {
  auto space = B::make_space(single_proc(2, 16, 2));
  typename B::Session proc(*space);
  // Pool must cover total enqueues in the bench run (nodes are retired,
  // not recycled); size generously and reset via fresh queue per chunk.
  for (auto _ : state) {
    state.PauseTiming();
    LockedQueue<B> q(*space, 0, 1, 1u << 16);
    state.ResumeTiming();
    std::uint32_t v = 0;
    for (int i = 0; i < 1000; ++i) {
      q.enqueue(proc, static_cast<std::uint32_t>(i));
      q.dequeue(proc, &v);
    }
    benchmark::DoNotOptimize(v);
  }
}

// --- graph -----------------------------------------------------------------

template <typename B>
void BM_Graph_ColourRing(benchmark::State& state) {
  const std::uint32_t n = 64;
  auto space = B::make_space(single_proc(
      3, LockedGraph<B>::thunk_step_budget(2), static_cast<int>(n)));
  LockedGraph<B> g(*space, LockedGraph<B>::ring(n));
  typename B::Session proc(*space);
  std::uint32_t v = 0;
  for (auto _ : state) {
    g.colour_vertex(proc, v);
    v = (v + 1) % n;
  }
}

// --- registry sweep --------------------------------------------------------

// One registration per (substrate op, backend): every future combination
// is one line here, not a new benchmark function.
void register_backend_sweeps() {
  RealBackends::for_each([](auto tag) {
    using B = typename decltype(tag)::type;
    const std::string suffix = std::string("/backend:") + B::name();
    auto reg = [&suffix](const char* name, void (*fn)(benchmark::State&)) {
      return benchmark::RegisterBenchmark((name + suffix).c_str(), fn);
    };
    reg("Bank_Transfer", BM_Bank_Transfer<B>);
    reg("List_InsertErase", BM_List_InsertErase<B>);
    // Each iteration permanently retires nodes (no recycling by design);
    // the iteration caps keep total demand inside the bounded pools.
    reg("Bst_InsertErase", BM_Bst_InsertErase<B>)->Iterations(400);
    reg("Map_PutGetErase", BM_Map_PutGetErase<B>)->Iterations(380);
    reg("Map_Swap", BM_Map_Swap<B>);
    reg("Queue_EnqDeq", BM_Queue_EnqDeq<B>)
        ->Unit(benchmark::kMicrosecond);
    reg("Graph_ColourRing", BM_Graph_ColourRing<B>);
  });
}

// --- transactions (wait-free executor only: PreparedTxn is WFL-specific) ---

void BM_Txn_BuildAndRunTwoLegs(benchmark::State& state) {
  LockTable<RealPlat> space(practical_cfg(4, 24), 1, 8);
  Session<RealPlat> proc(space);
  std::vector<std::unique_ptr<Cell<RealPlat>>> acct;
  for (int i = 0; i < 4; ++i) {
    acct.push_back(std::make_unique<Cell<RealPlat>>(1000u));
  }
  Cell<RealPlat>* a0 = acct[0].get();
  Cell<RealPlat>* a1 = acct[1].get();
  Cell<RealPlat>* a2 = acct[2].get();
  Cell<RealPlat>* a3 = acct[3].get();
  for (auto _ : state) {
    TxnBuilder<RealPlat> b;
    const std::uint32_t leg1[] = {0, 1};
    const std::uint32_t leg2[] = {2, 3};
    b.op(leg1, [a0, a1](IdemCtx<RealPlat>& m) {
      m.store(*a0, m.load(*a0) - 1);
      m.store(*a1, m.load(*a1) + 1);
    });
    b.op(leg2, [a2, a3](IdemCtx<RealPlat>& m) {
      m.store(*a2, m.load(*a2) - 1);
      m.store(*a3, m.load(*a3) + 1);
    });
    benchmark::DoNotOptimize(std::move(b).build().submit(proc, Policy::retry()));
  }
}
BENCHMARK(BM_Txn_BuildAndRunTwoLegs);

void BM_Txn_RunPrebuilt(benchmark::State& state) {
  LockTable<RealPlat> space(practical_cfg(4, 24), 1, 8);
  Session<RealPlat> proc(space);
  auto cell = std::make_unique<Cell<RealPlat>>(0u);
  Cell<RealPlat>* cp = cell.get();
  TxnBuilder<RealPlat> b;
  const std::uint32_t ids[] = {0, 1};
  b.op(ids, [cp](IdemCtx<RealPlat>& m) { m.store(*cp, m.load(*cp) + 1); });
  auto txn = std::move(b).build();
  for (auto _ : state) {
    benchmark::DoNotOptimize(txn.submit(proc, Policy::retry()));
  }
}
BENCHMARK(BM_Txn_RunPrebuilt);

}  // namespace

// Machine-comparable wfl-bench-v1 JSON on stdout (see bench_json.hpp);
// backend-swept entries carry the "backend" key.
WFL_BENCH_JSON_MAIN_WITH(register_backend_sweeps)
