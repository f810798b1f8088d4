// Dynamic happens-before analysis over the simulator's deterministic
// interleavings (the tentpole of the analysis layer; see DESIGN.md §7).
//
// Three cooperating pieces:
//
//   1. CheckedPlat (platform/checked.hpp) forwards every Plat::Atomic
//      operation — with its address, operation kind, memory_order and
//      value — into the engine.
//   2. Raw atomics outside the step model are race::Atomic<T> (below): a
//      std::atomic<T> whose every operation takes its memory_order and
//      its Site in check/ordering_contracts.hpp, executes with that order
//      and reports that order and the value it produced. The engine audits
//      the site's contract against the operation that ran and feeds the
//      same vector-clock model.
//   3. Known plain-memory protocols (descriptor line group A, SlotCache
//      batches, fiber stacks, AsyncOp outcomes) carry WFL_PLAIN_READ /
//      WFL_PLAIN_WRITE region annotations checked FastTrack-style against
//      the clocks.
//
// The model: one vector clock per logical process (simulator pid; the
// setup/teardown main context is process slot 0). Synchronization edges are
// derived from the executed orders — a release-class store replaces the
// location's sync clock, an RMW joins into it (release-sequence
// continuation), an acquire-class load joins it into the reader, relaxed
// accesses carry no edge, and seq_cst operations additionally join a
// global SC clock both ways (the simulator executes one total order, and
// C++ guarantees a single total order S over seq_cst operations, so
// treating observed SC predecessors as ordered is sound for auditing this
// execution). The tree has no fences, so the model has none. A conflicting
// plain access not ordered by those edges is a finding; so is an operation
// weaker than its site's contract. Findings carry a reproducer: the
// simulator seed plus the slot trace of the unordered pair.
//
// When no engine is installed every hook is one relaxed load and a
// predicted branch; RealPlat builds and benches pay nothing else.
// Engine state is owned by the installing thread. Events raised from other
// OS threads (RealPlat tests in the same binary) only *poison* the touched
// location under the engine mutex — cross-thread interleavings are TSan's
// job (ci: tsan), not this model's.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "wfl/check/ordering_contracts.hpp"

namespace wfl::race {

enum class Op : std::uint8_t {
  kLoad,
  kStore,
  kCasOk,
  kCasFail,  // value = the observed (expected-out) word
  kExchange,
  kFetchAdd,  // value = the post-add word
  kFetchSub,  // value = the post-subtraction word
  kInit,
  kPeek,
};

struct Finding {
  const char* kind;  // "contract" | "plain-race" | "init-race" |
                     // "peek-race" | "shadow"
  Site site;
  const void* addr;
  std::string message;  // full text, includes the seed+slot reproducer
};

class RaceEngine {
 public:
  RaceEngine();
  ~RaceEngine();

  RaceEngine(const RaceEngine&) = delete;
  RaceEngine& operator=(const RaceEngine&) = delete;

  // Make this engine the process-global event sink. One at a time; the
  // destructor uninstalls. Must be called on the owning (constructing)
  // thread — the thread that runs the simulator.
  void install();
  void uninstall();

  // Seeded-mutation support for detector self-tests: the engine *model* is
  // mutated, not the program. kDowngradeOrder treats operations at `site`
  // as having `order` instead of the order they ran with. Under the
  // simulator all fibers share one OS thread, so really weakening an order
  // is unobservable at runtime — mutating the model is the faithful way to
  // test "would we catch this edit?".
  struct Mutation {
    enum class Kind : std::uint8_t { kNone, kDowngradeOrder };
    Kind kind = Kind::kNone;
    Site site = Site::kUnknown;
    std::memory_order order = std::memory_order_relaxed;
  };
  void set_mutation(Mutation m);

  const std::vector<Finding>& findings() const;
  void clear_findings();

  std::uint64_t events() const;         // processed on the owner thread
  std::uint64_t foreign_events() const; // poison-only, from other threads
  std::uint64_t last_seed() const;      // seed of the most recent sim run

  // The most recent event, which must be an atomic operation, as the
  // engine recorded it (the order is the effective one, after any
  // mutation). For detector self-tests.
  struct AtomicEvent {
    const void* addr;
    Op op;
    std::memory_order order;
    Site site;
    std::uint64_t val;
  };
  AtomicEvent last_atomic() const;

  // Print all findings plus, per finding, the tail of the event trace
  // filtered to the conflicting address (the "shrunk" reproducer).
  void report(std::ostream& os) const;

  struct Impl;
  Impl& impl() { return *impl_; }

 private:
  std::unique_ptr<Impl> impl_;
};

// Process-global engine pointer. Relaxed access: installation happens-before
// use via test sequencing on the owner thread; other threads only ever
// poison under the engine's own mutex.
inline std::atomic<RaceEngine*> g_engine{nullptr};

inline RaceEngine* engine() {
  return g_engine.load(std::memory_order_relaxed);
}

// Out-of-line event sinks (race.cpp).
void atomic_event_slow(RaceEngine* e, const void* addr, Op op,
                       std::memory_order order, Site site, std::uint64_t val);
void plain_event_slow(RaceEngine* e, const void* region, bool is_write,
                      Site site);
void lifetime_event_slow(RaceEngine* e, const void* addr, bool created,
                         std::uint64_t val);
void mutex_event_slow(RaceEngine* e, const void* mtx, bool acquire);
void tag_next_slow(RaceEngine* e, Site site);
void run_boundary_slow(RaceEngine* e, bool entering, std::uint64_t seed);

// Inline front doors: a relaxed load + branch when no engine is installed.
inline void atomic_event(const void* addr, Op op, std::memory_order order,
                         Site site, std::uint64_t val) {
  if (RaceEngine* e = engine()) atomic_event_slow(e, addr, op, order, site, val);
}
inline void plain_read(const void* region, Site site) {
  if (RaceEngine* e = engine()) plain_event_slow(e, region, false, site);
}
inline void plain_write(const void* region, Site site) {
  if (RaceEngine* e = engine()) plain_event_slow(e, region, true, site);
}
// Atomic cell lifetime (race::Atomic ctor/dtor): seeds the shadow value and
// retires the address so heap reuse cannot alias stale state.
inline void created(const void* addr, std::uint64_t val) {
  if (RaceEngine* e = engine()) lifetime_event_slow(e, addr, true, val);
}
inline void destroyed(const void* addr) {
  if (RaceEngine* e = engine()) lifetime_event_slow(e, addr, false, 0);
}
inline void mutex_acquire(const void* mtx) {
  if (RaceEngine* e = engine()) mutex_event_slow(e, mtx, true);
}
inline void mutex_release(const void* mtx) {
  if (RaceEngine* e = engine()) mutex_event_slow(e, mtx, false);
}

// RAII companion for a std::lock_guard: declare one right after the guard
// so lock-model events bracket the critical section even on early returns.
class MutexScope {
 public:
  explicit MutexScope(const void* mtx) : mtx_(mtx) { mutex_acquire(mtx_); }
  ~MutexScope() { mutex_release(mtx_); }
  MutexScope(const MutexScope&) = delete;
  MutexScope& operator=(const MutexScope&) = delete;

 private:
  const void* mtx_;
};
// Tag the *next* atomic event of the calling logical process with `site`
// (for Plat::Atomic ops, whose call sites can't pass one — e.g. the
// thin-word publish CAS).
inline void tag_next(Site site) {
  if (RaceEngine* e = engine()) tag_next_slow(e, site);
}
// Simulator run boundary: joins all clocks (everything before the run
// happens-before everything in it, and the run happens-before teardown)
// and records the seed for reproducers. Called from Simulator::run().
inline void run_boundary(bool entering, std::uint64_t seed) {
  if (RaceEngine* e = engine()) run_boundary_slow(e, entering, seed);
}


// A value's 64-bit image for the shadow check (memcpy-encoded); wider or
// non-trivial T degrade to 0 and skip shadow checking.
template <typename T>
std::uint64_t enc(T v) {
  if constexpr (std::is_trivially_copyable_v<T> && sizeof(T) <= 8) {
    std::uint64_t x = 0;
    std::memcpy(&x, &v, sizeof(T));
    return x;
  } else {
    return 0;
  }
}

// The raw atomic of the infrastructure outside the step model (EBR, pools,
// queues, executor state) and the storage of CheckedPlat's Atomic. A
// std::atomic<T> of the same size and layout, so arena placement is
// unchanged; every operation takes its memory_order and its Site, executes
// with that order, and reports the order and the value it produced — the
// stored value, the observed word of a failed CAS, the result of a
// fetch_add/fetch_sub. Construction and destruction seed and retire the
// address's shadow state, so an atomic built on a reused heap address does
// not alias its predecessor.
template <typename T>
class Atomic {
 public:
  Atomic() noexcept : Atomic(T{}) {}
  explicit Atomic(T v) noexcept : v_(v) { created(&v_, enc(v)); }
  ~Atomic() {
    static_assert(sizeof(Atomic) == sizeof(std::atomic<T>) &&
                  alignof(Atomic) == alignof(std::atomic<T>));
    destroyed(&v_);
  }

  Atomic(const Atomic&) = delete;
  Atomic& operator=(const Atomic&) = delete;

  T load(std::memory_order o, Site s) const {
    const T v = v_.load(o);
    report(Op::kLoad, o, s, v);
    return v;
  }
  void store(T v, std::memory_order o, Site s) {
    v_.store(v, o);
    report(Op::kStore, o, s, v);
  }
  T exchange(T v, std::memory_order o, Site s) {
    const T prev = v_.exchange(v, o);
    report(Op::kExchange, o, s, v);
    return prev;
  }
  // The failure order is the one std::atomic derives from `o`.
  bool compare_exchange_strong(T& expected, T desired, std::memory_order o,
                               Site s) {
    const bool ok = v_.compare_exchange_strong(expected, desired, o);
    return cas_done(ok, expected, desired, o, s);
  }
  bool compare_exchange_weak(T& expected, T desired, std::memory_order o,
                             Site s) {
    const bool ok = v_.compare_exchange_weak(expected, desired, o);
    return cas_done(ok, expected, desired, o, s);
  }
  T fetch_add(T d, std::memory_order o, Site s) {
    const T prev = v_.fetch_add(d, o);
    report(Op::kFetchAdd, o, s, static_cast<T>(prev + d));
    return prev;
  }
  T fetch_sub(T d, std::memory_order o, Site s) {
    const T prev = v_.fetch_sub(d, o);
    report(Op::kFetchSub, o, s, static_cast<T>(prev - d));
    return prev;
  }

  // Construction-only store and quiescent debug read (contracts kInitOnly
  // and kQuiescentRead): the engine checks the location really is quiet.
  void init(T v) {
    v_.store(v, std::memory_order_relaxed);
    report(Op::kInit, std::memory_order_relaxed, Site::kAtomicInit, v);
  }
  T peek() const {
    const T v = v_.load(std::memory_order_relaxed);
    report(Op::kPeek, std::memory_order_relaxed, Site::kAtomicPeek, v);
    return v;
  }

 private:
  void report(Op op, std::memory_order o, Site s, T v) const {
    atomic_event(&v_, op, o, s, enc(v));
  }
  bool cas_done(bool ok, T observed, T desired, std::memory_order o, Site s) {
    if (ok) {
      report(Op::kCasOk, o, s, desired);
    } else {
      const std::memory_order f = o == std::memory_order_acq_rel
                                      ? std::memory_order_acquire
                                  : o == std::memory_order_release
                                      ? std::memory_order_relaxed
                                      : o;
      report(Op::kCasFail, f, s, observed);
    }
    return ok;
  }

  std::atomic<T> v_;
};

}  // namespace wfl::race

// Annotation macros used at product call sites; `site` is a Site
// enumerator name.
#define WFL_PLAIN_READ(region, site) \
  ::wfl::race::plain_read((region), ::wfl::race::Site::site)
#define WFL_PLAIN_WRITE(region, site) \
  ::wfl::race::plain_write((region), ::wfl::race::Site::site)
#define WFL_CHK_TAG(site) ::wfl::race::tag_next(::wfl::race::Site::site)
