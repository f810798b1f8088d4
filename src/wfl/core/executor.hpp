// The executor: the one submission API for "run this bounded thunk under
// these locks". Every caller — applications, substrates, transactions,
// experiments — takes locks the same way:
//
//   Outcome o = submit(session, locks, thunk, Policy::retry());
//
// where Policy picks one-shot / capped / until-success and Outcome is the
// single accounting shape: attempts, own steps and the last attempt's
// pre/post-reveal work, reported the same way on every path.
//
// Progress semantics are inherited, not invented here: a single attempt is
// wait-free in O(κ²L²T) own steps (Theorem 1.1), and the until-success
// policy is the randomized wait-free corollary — attempts win w.p. >=
// 1/(κL) independently, so the attempt count is geometric with mean <= κL
// and a loser re-attempts at once (independence needs no backoff). The
// deterministic escape hatch is Policy::attempts(n).
//
// Thunk contract: `f` must be copyable — submit re-arms it per attempt and
// each attempt's descriptor stores its own copy — and must capture by
// value or point only at state that outlives the space's reclamation grace
// period; a straggling helper may replay the thunk after submit() returns.
#pragma once

#include <cstdint>
#include <cstring>
#include <new>
#include <optional>
#include <span>
#include <type_traits>

#include "wfl/core/config.hpp"
#include "wfl/core/lock_set.hpp"
#include "wfl/core/session.hpp"

namespace wfl {

// What submit() should do when an attempt loses its locks.
struct Policy {
  // Attempt budget: 0 = retry until an attempt wins (randomized wait-free;
  // terminates w.p. 1 with geometric tail), n >= 1 = at most n attempts.
  std::uint64_t max_attempts = 1;

  static constexpr Policy one_shot() { return Policy{1}; }
  static constexpr Policy retry() { return Policy{0}; }
  static constexpr Policy attempts(std::uint64_t n) { return Policy{n}; }
};

// Unified accounting. A one-shot submission reports its attempt's
// AttemptInfo; a retrying one sums attempts and steps across attempts.
struct Outcome {
  bool won = false;               // did any attempt win all its locks?
  std::uint64_t attempts = 0;     // attempts consumed, including the winner
  std::uint64_t total_steps = 0;  // own steps across all attempts
  // The final attempt's work segments (the T0/T1-bounded quantities).
  std::uint64_t pre_reveal_work = 0;
  std::uint64_t post_reveal_work = 0;
  // Always 0: no submission path idles between attempts. Kept only
  // because the benchmark suite and bench_async still read it.
  std::uint64_t backoff_steps = 0;

  explicit operator bool() const { return won; }
};

// A prepared submission: one validated lock set plus a re-armable thunk,
// the unit of submit_batch. Construction captures the lock ids BY VALUE
// (so the op outlives whatever StaticLockSet built the view) and copies
// the callable into inline storage. The callable must be trivially
// copyable and fit kInlineBytes — which every lock thunk in this repo
// already satisfies (they capture pointers and scalars; that is also what
// the replay-after-return contract forces them towards). Non-trivial
// state belongs behind a pointer the caller keeps alive through the
// space's grace period, exactly as for submit().
//
// armed() hands out a self-contained trivially-copyable closure that any
// LockBackend's submit() accepts as `f` — arming per attempt is a memcpy,
// so a PreparedOp built once amortizes lock-set validation and thunk
// marshalling across every attempt and every batch it is submitted in.
template <typename Plat>
class PreparedOp {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  struct Armed {
    alignas(std::max_align_t) unsigned char bytes[kInlineBytes];
    void (*invoke)(const void*, IdemCtx<Plat>&);
    void operator()(IdemCtx<Plat>& m) const { invoke(bytes, m); }
  };

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, PreparedOp> &&
             std::is_invocable_v<std::decay_t<F>&, IdemCtx<Plat>&>)
  PreparedOp(LockSetView locks, F f) {  // NOLINT: two-arg, no confusion
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kInlineBytes,
                  "PreparedOp callable exceeds inline storage");
    static_assert(std::is_trivially_copyable_v<Fn>,
                  "PreparedOp callables must be trivially copyable");
    WFL_CHECK(locks.size() <= kMaxLocksPerAttempt);
    n_locks_ = locks.size();
    for (std::uint32_t i = 0; i < n_locks_; ++i) ids_[i] = locks[i];
    ::new (static_cast<void*>(armed_.bytes)) Fn(std::move(f));
    armed_.invoke = [](const void* s, IdemCtx<Plat>& m) {
      (*static_cast<const Fn*>(s))(m);
    };
  }

  LockSetView locks() const {
    return LockSetView::presorted({ids_, n_locks_});
  }
  const Armed& armed() const { return armed_; }
  void operator()(IdemCtx<Plat>& m) const { armed_(m); }

 private:
  std::uint32_t ids_[kMaxLocksPerAttempt] = {};
  std::uint32_t n_locks_ = 0;
  Armed armed_;
};

// Aggregate accounting for one batch submission.
struct BatchOutcome {
  std::uint64_t ops = 0;            // ops submitted
  std::uint64_t wins = 0;           // ops whose final attempt won
  std::uint64_t attempts = 0;       // attempts across all ops
  std::uint64_t total_steps = 0;    // own steps across all ops

  explicit operator bool() const { return wins == ops; }

  // The single accumulation points every batch path shares (executor,
  // backend fallback, substrate entry points) — a new Outcome field gets
  // folded in exactly here or nowhere.
  void add(const Outcome& o) {
    ops += 1;
    wins += o.won ? 1 : 0;
    attempts += o.attempts;
    total_steps += o.total_steps;
  }
  BatchOutcome& operator+=(const BatchOutcome& o) {
    ops += o.ops;
    wins += o.wins;
    attempts += o.attempts;
    total_steps += o.total_steps;
    return *this;
  }
};

// One tryLock attempt folded into an Outcome: the per-attempt core every
// submission loop shares. submit() wraps it in an immediate-retry loop;
// async_submit (core/async_executor.hpp) wraps the SAME core in a
// park/wake loop — an attempt that loses suspends its submission instead
// of holding an OS thread. Returns out.won.
template <typename Space, typename F>
bool submit_attempt(BasicSession<Space>& session, LockSetView locks,
                    const F& f, Outcome& out) {
  AttemptInfo info;
  typename Space::Thunk thunk{F(f)};
  const bool won = session.space().try_locks(session.process(), locks,
                                             std::move(thunk), &info);
  ++out.attempts;
  out.total_steps += info.total_steps;
  out.pre_reveal_work = info.pre_reveal_work;
  out.post_reveal_work = info.post_reveal_work;
  out.won = won;
  return won;
}

// True when `policy` has no attempts left after `out`'s. Shared by the
// sync and async submission loops so the budget accounting cannot drift.
inline bool policy_exhausted(const Policy& policy, const Outcome& out) {
  return policy.max_attempts != 0 && out.attempts >= policy.max_attempts;
}

// Submits `f` on `locks` through `session` under `policy`. The lock-set
// invariants (sorted, deduplicated, within capacity) are carried by the
// LockSetView type; the configured L budget is enforced here, once —
// nothing is re-validated per attempt.
template <typename Space, typename F>
Outcome submit(BasicSession<Space>& session, LockSetView locks, const F& f,
               Policy policy = Policy::one_shot()) {
  WFL_CHECK_MSG(locks.size() <= session.space().config().max_locks,
                "lock set exceeds the configured L bound");
  Outcome out;
  for (;;) {
    if (submit_attempt(session, locks, f, out)) return out;
    if (policy_exhausted(policy, out)) return out;
  }
}

// Submits every op of `ops` in order through `session` under one `policy`,
// amortizing the per-op fixed costs across the batch:
//
//   * lock-set validation — each PreparedOp carries its invariants from
//     construction; only the L budget is checked, once per op, up front;
//   * thunk marshalling — arming an attempt is a memcpy of the op's
//     inline closure;
//   * EBR guard entry — in DelayMode::kOff the session's inspector guard
//     (BasicSession::guard()) is held around the whole batch, so every per-attempt guard acquisition
//     inside collapses to a re-entrancy depth bump (plain private
//     increment) instead of a fence + seq_cst epoch validation. The guard
//     is NOT pre-entered under the paper's delays: there an attempt
//     releases it across its delay segments to keep reclamation flowing,
//     and a batch-held guard would defeat that.
//
// Op-visible semantics are identical to a loop of submit() calls — the
// pre-entered guard is invisible to the step model (reclamation is outside
// it, DESIGN.md #2): an uncontended batch is step-for-step equivalent to
// the loop (asserted by test_fastpath's sim test; under contention only
// reclamation timing — never an outcome — can differ). Reclamation stalls
// table-wide for the duration of the batch; callers pick batch sizes
// accordingly (tens to hundreds, not millions).
//
// `per_op`, when non-null, must point at ops.size() Outcomes and receives
// each op's individual accounting.
template <typename Space>
BatchOutcome submit_batch(BasicSession<Space>& session,
                          std::span<const PreparedOp<typename Space::Platform>> ops,
                          Policy policy = Policy::one_shot(),
                          Outcome* per_op = nullptr) {
  Space& space = session.space();
  for (const auto& op : ops) {
    WFL_CHECK_MSG(op.locks().size() <= space.config().max_locks,
                  "batch op lock set exceeds the configured L bound");
  }
  const bool hold_guards =
      space.config().delay_mode == DelayMode::kOff && ops.size() > 1;

  std::optional<typename BasicSession<Space>::EbrGuard> guard;
  if (hold_guards) guard.emplace(session);

  BatchOutcome out;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Outcome o = submit(session, ops[i].locks(), ops[i].armed(), policy);
    out.add(o);
    if (per_op != nullptr) per_op[i] = o;
  }
  return out;
}

}  // namespace wfl
