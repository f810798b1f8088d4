// Umbrella header for the wflock library.
//
// Quickstart:
//
//   using Plat = wfl::RealPlat;
//   wfl::LockConfig cfg;           // κ, L, T bounds + delay mode
//   wfl::LockTable<Plat> table(cfg, /*max_procs=*/8, /*num_locks=*/100);
//   wfl::Session<Plat> session(table);        // RAII, once per thread
//   wfl::Cell<Plat> balance{100};
//   wfl::StaticLockSet<2> locks({3, 7}, cfg);   // sorted+deduped+checked
//   wfl::Outcome o = wfl::submit(session, locks,
//       [&](wfl::IdemCtx<Plat>& m) {
//         m.store(balance, m.load(balance) + 1);  // the critical section
//       });  // Policy::one_shot() default; o.won / o.attempts / steps
//   // Policy::retry() loops until a win (the randomized wait-free
//   // corollary); a PreparedTxn (core/txn.hpp) submits the same way.
//
// The same code runs deterministically under the simulator by swapping
// Plat for wfl::SimPlat and executing inside wfl::Simulator processes.
#pragma once

#include "wfl/active/active_set.hpp"
#include "wfl/active/multi_set.hpp"
#include "wfl/apps/bank.hpp"
#include "wfl/apps/hashmap.hpp"
#include "wfl/apps/list.hpp"
#include "wfl/apps/philosophers.hpp"
#include "wfl/baseline/backends.hpp"
#include "wfl/baseline/lehmann_rabin.hpp"
#include "wfl/baseline/mutex2pl.hpp"
#include "wfl/baseline/spin2pl.hpp"
#include "wfl/baseline/turek.hpp"
#include "wfl/core/async_executor.hpp"
#include "wfl/core/attempt.hpp"
#include "wfl/core/backend.hpp"
#include "wfl/core/config.hpp"
#include "wfl/core/descriptor.hpp"
#include "wfl/core/executor.hpp"
#include "wfl/core/lock_set.hpp"
#include "wfl/core/lock_table.hpp"
#include "wfl/core/process.hpp"
#include "wfl/core/session.hpp"
#include "wfl/core/shm_table.hpp"
#include "wfl/core/txn.hpp"
#include "wfl/idem/cell.hpp"
#include "wfl/idem/idem.hpp"
#include "wfl/mem/arena.hpp"
#include "wfl/mem/ebr.hpp"
#include "wfl/platform/checked.hpp"
#include "wfl/platform/real.hpp"
#include "wfl/platform/sim.hpp"
#include "wfl/sim/sim.hpp"
#include "wfl/util/rng.hpp"
#include "wfl/util/stats.hpp"
