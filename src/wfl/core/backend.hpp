// The LockBackend concept: one submission shape over every lock
// implementation in the repo.
//
// The paper's headline claims are comparative — wait-free tryLocks
// (Algorithm 3) against Turek/Shasha/Prakash-style helping locks and
// against blocking two-phase locking — yet each implementation used to
// expose its own ad-hoc interface (try_locks vs apply vs locked /
// try_locked), so every comparison was a bespoke driver and every
// substrate was hard-wired to LockTable. A backend packages one lock
// discipline behind the PR-2 submit() shape:
//
//   * `Platform` — the step-counting platform the backend runs on;
//   * `Space`    — the lock universe. Uniformly constructible from a
//     BackendConfig (via make_space) and uniformly inspectable:
//     num_locks(), max_procs(), config() — non-WFL spaces carry the
//     declared workload bounds (L, T) too, and enforce L honestly;
//   * `Session`  — RAII registration of one logical process (move-only,
//     pid() < max_procs, space()); slots are recycled across sessions;
//   * `submit(session, LockSetView, thunk, Policy) -> Outcome` — one
//     bounded critical-section submission. Thunks always take
//     IdemCtx<Platform>& so the same substrate code runs replay-safe
//     under helping backends and exactly-once under blocking ones.
//
// Progress semantics are reported, not papered over: progress() says what
// an attempt/operation really guarantees, and each adapter documents how
// Policy maps onto its discipline (a blocking backend may satisfy
// Policy::retry() with one unbounded acquisition; a helping backend's
// single "attempt" may do unbounded work on others' behalf).
//
// Application substrates (apps/*.hpp) are templated on a backend, with a
// platform shorthand: `Bank<SimPlat>` means `Bank<WflBackend<SimPlat>>`
// (resolve_backend_t below), so existing wait-free call sites read
// unchanged while `Bank<TurekBackend<SimPlat>>` swaps the discipline.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <type_traits>
#include <utility>
#include <vector>

#include "wfl/core/config.hpp"
#include "wfl/core/executor.hpp"
#include "wfl/core/lock_set.hpp"
#include "wfl/core/lock_table.hpp"
#include "wfl/core/session.hpp"
#include "wfl/idem/idem.hpp"
#include "wfl/util/assert.hpp"

namespace wfl {

// What one submission guarantees about the caller's own steps.
enum class BackendProgress {
  kWaitFree,  // every attempt completes in bounded own steps (Theorem 1.1)
  kLockFree,  // operations always complete; own-step work is unbounded
  kBlocking,  // a stalled lock holder stalls the caller
};

inline const char* progress_name(BackendProgress p) {
  switch (p) {
    case BackendProgress::kWaitFree: return "wait-free";
    case BackendProgress::kLockFree: return "lock-free";
    case BackendProgress::kBlocking: return "blocking";
  }
  return "?";
}

// Uniform construction knobs. Every backend space is buildable from this
// one struct, which is what lets experiment drivers sweep a registry of
// backends instead of hand-rolling per-backend setup. `lock` carries the
// declared workload bounds: WFL uses all of κ/L/T and the delay mode; the
// baselines honor the L budget (submissions above it abort, same as WFL)
// and ignore the bounds their disciplines lack. A discipline's private
// tuning (Spin2plBackend::kPatience) is a constant of its adapter.
struct BackendConfig {
  LockConfig lock;
  int max_procs = 1;
  int num_locks = 1;
};

// A no-capture thunk usable in unevaluated concept checks.
template <typename Plat>
struct NoopThunk {
  void operator()(IdemCtx<Plat>&) const {}
};

template <typename B>
concept LockBackend = requires(typename B::Space& space,
                               typename B::Session& session,
                               const BackendConfig& cfg) {
  typename B::Platform;
  typename B::Space;
  typename B::Session;
  { B::name() } -> std::convertible_to<const char*>;
  { B::progress() } -> std::same_as<BackendProgress>;
  { B::make_space(cfg) } -> std::same_as<std::unique_ptr<typename B::Space>>;
  { space.num_locks() } -> std::convertible_to<int>;
  { space.max_procs() } -> std::convertible_to<int>;
  { space.config() } -> std::convertible_to<const LockConfig&>;
  { session.space() } -> std::same_as<typename B::Space&>;
  { session.pid() } -> std::convertible_to<int>;
  { B::submit(session, LockSetView{}, NoopThunk<typename B::Platform>{},
              Policy{}) } -> std::same_as<Outcome>;
};

// ---------------------------------------------------------------------------
// The wait-free backend: the existing LockTable / Session / submit() stack,
// restated as a LockBackend. Zero adaptation — the concept was shaped on it.
// ---------------------------------------------------------------------------

template <typename Plat>
struct WflBackend {
  using Platform = Plat;
  using Space = LockTable<Plat>;
  using Session = BasicSession<Space>;

  static const char* name() { return "wflock"; }
  static BackendProgress progress() { return BackendProgress::kWaitFree; }

  static std::unique_ptr<Space> make_space(const BackendConfig& cfg) {
    return std::make_unique<Space>(cfg.lock, cfg.max_procs, cfg.num_locks);
  }

  template <typename F>
  static Outcome submit(Session& session, LockSetView locks, const F& f,
                        Policy policy = Policy::one_shot()) {
    return ::wfl::submit(session, locks, f, policy);
  }

  // Native batch submission (guard amortization; core/executor.hpp).
  static BatchOutcome submit_batch(Session& session,
                                   std::span<const PreparedOp<Plat>> ops,
                                   Policy policy = Policy::one_shot(),
                                   Outcome* per_op = nullptr) {
    return ::wfl::submit_batch(session, ops, policy, per_op);
  }
};

// Defaulted batch submission over any LockBackend: backends that expose a
// native submit_batch (the WFL stack, with its guard amortization) use it;
// every other backend gets the loop-of-submits semantics automatically, so
// registry sweeps and batch-shaped drivers run against all baselines
// without each adapter growing a bespoke method.
template <typename B>
BatchOutcome backend_submit_batch(
    typename B::Session& session,
    std::span<const PreparedOp<typename B::Platform>> ops,
    Policy policy = Policy::one_shot(), Outcome* per_op = nullptr) {
  if constexpr (requires { B::submit_batch(session, ops, policy, per_op); }) {
    return B::submit_batch(session, ops, policy, per_op);
  } else {
    BatchOutcome out;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Outcome o = B::submit(session, ops[i].locks(), ops[i].armed(),
                                  policy);
      out.add(o);
      if (per_op != nullptr) per_op[i] = o;
    }
    return out;
  }
}

// Substrate shorthand resolution: a bare platform names the wait-free
// backend; anything exposing the backend member types is used as-is.
template <typename T>
concept BackendShaped = requires {
  typename T::Platform;
  typename T::Space;
  typename T::Session;
};

template <typename T>
using resolve_backend_t =
    std::conditional_t<BackendShaped<T>, T, WflBackend<T>>;

// ---------------------------------------------------------------------------
// Adapter plumbing shared by the baseline backends.
// ---------------------------------------------------------------------------

// Bounded process-slot allocator with reuse, for spaces whose underlying
// implementation has no (or non-recycling) registration. Registration is
// off every attempt path, so a plain mutex is fine (and is outside the
// step model for the same reason reclamation is — DESIGN.md #2).
class ProcSlots {
 public:
  explicit ProcSlots(int max_procs) {
    WFL_CHECK(max_procs > 0);
    free_.reserve(static_cast<std::size_t>(max_procs));
    for (int i = max_procs; i-- > 0;) free_.push_back(i);
  }

  int acquire() {
    std::lock_guard<std::mutex> g(mu_);
    WFL_CHECK_MSG(!free_.empty(),
                  "live sessions exceed the space's max_procs");
    const int pid = free_.back();
    free_.pop_back();
    return pid;
  }

  void release(int pid) {
    std::lock_guard<std::mutex> g(mu_);
    free_.push_back(pid);
  }

 private:
  std::mutex mu_;
  std::vector<int> free_;
};

// The RAII session every baseline adapter uses: owns one pid slot of one
// adapter space (acquire_pid/release_pid), mirroring BasicSession's
// move-only shape.
template <typename SpaceT>
class SlotSession {
 public:
  explicit SlotSession(SpaceT& space)
      : space_(&space), pid_(space.acquire_pid()) {}

  ~SlotSession() {
    if (space_ != nullptr) space_->release_pid(pid_);
  }

  SlotSession(const SlotSession&) = delete;
  SlotSession& operator=(const SlotSession&) = delete;

  SlotSession(SlotSession&& other) noexcept
      : space_(std::exchange(other.space_, nullptr)), pid_(other.pid_) {}
  SlotSession& operator=(SlotSession&& other) noexcept {
    if (this != &other) {
      if (space_ != nullptr) space_->release_pid(pid_);
      space_ = std::exchange(other.space_, nullptr);
      pid_ = other.pid_;
    }
    return *this;
  }

  bool active() const { return space_ != nullptr; }
  SpaceT& space() const {
    WFL_DASSERT(space_ != nullptr);
    return *space_;
  }
  int pid() const { return pid_; }

 private:
  SpaceT* space_;
  int pid_ = -1;
};

// Per-submission idempotence context for backends whose critical sections
// run exactly once under mutual exclusion (no helpers). The log lives in
// stable per-pid storage owned by the space; the tag base is drawn from a
// space-wide serial so installed words stay unique across submissions
// (the IdemCtx ctor contract).
template <typename Plat>
class ExclusiveIdem {
 public:
  explicit ExclusiveIdem(int max_procs) {
    logs_.reserve(static_cast<std::size_t>(max_procs));
    for (int i = 0; i < max_procs; ++i) {
      logs_.push_back(std::make_unique<ThunkLog<Plat>>());
    }
  }

  IdemCtx<Plat> ctx_for(int pid) {
    ThunkLog<Plat>& log = *logs_[static_cast<std::size_t>(pid)];
    log.reset();  // exclusive: nobody else can be replaying this log
    const std::uint64_t serial =
        serial_.fetch_add(1, std::memory_order_relaxed);
    return IdemCtx<Plat>(log, idem_tag_base(serial));
  }

 private:
  std::vector<std::unique_ptr<ThunkLog<Plat>>> logs_;
  std::atomic<std::uint64_t> serial_{1};
};

// ---------------------------------------------------------------------------
// Registry: a compile-time backend list experiment drivers sweep, so a new
// substrate x backend x platform combination is one line of registration
// instead of a bespoke driver.
// ---------------------------------------------------------------------------

template <typename B>
struct BackendTag {
  using type = B;
};

template <typename... Bs>
struct BackendList {
  static constexpr std::size_t size = sizeof...(Bs);

  // f is invoked once per backend with a BackendTag<B> value:
  //   list::for_each([&](auto tag) { using B = typename decltype(tag)::type; ... });
  template <typename F>
  static void for_each(F&& f) {
    (f(BackendTag<Bs>{}), ...);
  }
};

}  // namespace wfl
