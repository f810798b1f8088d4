// The backend registry: every lock discipline in the repo, as a
// compile-time list experiment drivers sweep with BackendList::for_each.
//
// Adding a backend here (and nothing else) puts it into bench_service,
// exp_throughput, exp_crash, exp_waitfree_tail and the backend-equivalence
// tests — one line of registration instead of a bespoke driver per
// experiment.
//
// Two baselines stay outside the registry, because neither is a lock-set
// discipline that runs in-process on a Space:
//   * LehmannRabinTable (baseline/lehmann_rabin.hpp) is a dining
//     philosophers protocol: a philosopher's two forks are fixed by its
//     seat, so there is no lock set to submit;
//   * exp_crash_mp's spin and mutex words live in memory shared between
//     OS processes, to show what a SIGKILLed holder leaves behind; an
//     in-process Space cannot outlive the process that holds it.
#pragma once

#include "wfl/baseline/mutex2pl.hpp"
#include "wfl/baseline/spin2pl.hpp"
#include "wfl/baseline/turek.hpp"
#include "wfl/core/backend.hpp"
#include "wfl/platform/real.hpp"
#include "wfl/platform/sim.hpp"

namespace wfl {

static_assert(LockBackend<WflBackend<SimPlat>>);
static_assert(LockBackend<WflBackend<RealPlat>>);
static_assert(LockBackend<TurekBackend<SimPlat>>);
static_assert(LockBackend<TurekBackend<RealPlat>>);
static_assert(LockBackend<Spin2plBackend<SimPlat>>);
static_assert(LockBackend<Spin2plBackend<RealPlat>>);
static_assert(LockBackend<Mutex2plBackend>);

// Deterministic-simulator sweeps: every discipline that can run as fibers.
// (mutex2pl blocks the OS thread all fibers share, so it is real-only.)
template <typename Plat>
using SimBackends =
    BackendList<WflBackend<Plat>, TurekBackend<Plat>, Spin2plBackend<Plat>>;

// Real-thread sweeps: everything.
using RealBackends =
    BackendList<WflBackend<RealPlat>, TurekBackend<RealPlat>,
                Spin2plBackend<RealPlat>, Mutex2plBackend>;

}  // namespace wfl
