// Static transactions: compose several lock-scoped sub-operations into one
// tryLock attempt.
//
// The paper's locks take their whole lock set up front ("these locks must
// be specified in advance and cannot be acquired from within a thunk",
// §7). That is exactly the *static transaction* regime Turek et al. support
// via ordered two-phase locking (§3) — except that with tryLocks no lock
// ordering discipline is needed at all and the attempt is wait-free. This
// header provides the builder: accumulate (lock-set fragment, sub-thunk)
// pairs, then build a PreparedTxn whose combined lock set is deduplicated
// and whose combined thunk runs the sub-thunks in sequence against one
// shared idempotence log.
//
// Lifetime: the combined thunk captures the op program through a
// shared_ptr, so a straggling helper replaying the thunk after the owner
// moved on keeps the program alive — the builder and the PreparedTxn may
// die freely. This is the one deliberately allocating path in the library
// (one allocation per *built program*, zero per attempt); the core lock
// path stays allocation-free.
//
// Budgets: the combined lock set must fit the space's max_locks and the
// summed sub-thunk step budgets (declared per op(), like every stated
// bound in the paper's model: L, T, κ are promises, not measurements) must
// fit max_thunk_steps — both are checked before every run.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "wfl/core/executor.hpp"
#include "wfl/core/lock_table.hpp"
#include "wfl/core/session.hpp"
#include "wfl/util/assert.hpp"

namespace wfl {

template <typename Plat>
class PreparedTxn;

template <typename Plat>
class TxnBuilder {
 public:
  using SubThunk = FixedFunction<void(IdemCtx<Plat>&), 64>;

  TxnBuilder() : prog_(std::make_shared<Program>()) {}

  // Adds one sub-operation: `lock_ids` it needs, the code to run, and the
  // sub-thunk's instrumented step budget — the number of m.load/m.store
  // calls it may issue, a caller-stated bound exactly like the space's T.
  // The budgets sum across ops and are validated against max_thunk_steps
  // before every run. The sub-thunk obeys the usual capture contract (by
  // value, or pointers to structure-lifetime state).
  template <typename F>
  TxnBuilder& op(std::span<const std::uint32_t> lock_ids, F&& f,
                 std::uint32_t step_budget = 1) {
    WFL_CHECK_MSG(prog_ != nullptr, "builder already consumed by build()");
    WFL_CHECK(step_budget >= 1);
    for (std::uint32_t id : lock_ids) locks_.push_back(id);
    prog_->ops.emplace_back(std::forward<F>(f));
    step_budget_ += step_budget;
    return *this;
  }

  // Locks without code: reserve a lock in the combined set (e.g. to pin a
  // neighbour that the transaction reads only optimistically).
  TxnBuilder& touch(std::uint32_t lock_id) {
    WFL_CHECK_MSG(prog_ != nullptr, "builder already consumed by build()");
    locks_.push_back(lock_id);
    return *this;
  }

  // Finalizes: dedups + sorts the lock set, freezes the program. The
  // builder is consumed.
  PreparedTxn<Plat> build() && {
    WFL_CHECK_MSG(prog_ != nullptr, "builder already consumed by build()");
    WFL_CHECK_MSG(!prog_->ops.empty() || !locks_.empty(),
                  "empty transaction");
    std::sort(locks_.begin(), locks_.end());
    locks_.erase(std::unique(locks_.begin(), locks_.end()), locks_.end());
    return PreparedTxn<Plat>(std::move(locks_),
                             std::shared_ptr<const Program>(std::move(prog_)),
                             step_budget_);
  }

 private:
  friend class PreparedTxn<Plat>;
  struct Program {
    std::vector<SubThunk> ops;
  };

  std::vector<std::uint32_t> locks_;
  std::shared_ptr<Program> prog_;
  std::uint32_t step_budget_ = 0;
};

// An immutable, repeatedly-runnable transaction. Copyable (copies share
// the program).
template <typename Plat>
class PreparedTxn {
 public:
  using Table = LockTable<Plat>;
  using Program = typename TxnBuilder<Plat>::Program;

  // Submits the whole transaction through the unified executor
  // (core/executor.hpp). Default policy is one attempt;
  // Policy::retry() gives the randomized wait-free run-to-completion.
  Outcome submit(Session<Plat>& session, Policy policy = Policy::one_shot()) {
    check_budgets(session.space());
    std::shared_ptr<const Program> prog = prog_;  // captured by value
    return wfl::submit(
        session, LockSetView::presorted(locks_),
        [prog](IdemCtx<Plat>& m) {
          for (const auto& op : prog->ops) op(m);
        },
        policy);
  }

  std::span<const std::uint32_t> lock_set() const { return locks_; }
  std::size_t op_count() const { return prog_->ops.size(); }
  std::uint32_t step_budget() const { return step_budget_; }

 private:
  friend class TxnBuilder<Plat>;
  PreparedTxn(std::vector<std::uint32_t> locks,
              std::shared_ptr<const Program> prog, std::uint32_t step_budget)
      : locks_(std::move(locks)),
        prog_(std::move(prog)),
        step_budget_(step_budget) {}

  // Both stated bounds are checked: the combined lock set against L and
  // the summed per-op step budgets against T.
  void check_budgets(const Table& table) const {
    WFL_CHECK_MSG(locks_.size() <= table.config().max_locks,
                  "combined txn lock set exceeds the configured L bound");
    WFL_CHECK_MSG(step_budget_ <= table.config().max_thunk_steps,
                  "combined txn step budget exceeds the configured T bound");
  }

  std::vector<std::uint32_t> locks_;
  std::shared_ptr<const Program> prog_;
  std::uint32_t step_budget_ = 0;
};

// Batch submission of several prepared transactions through one session:
// the same per-batch EBR guard amortization as executor::submit_batch
// (kOff mode only — see that function's contract). Each transaction's L
// and T budgets are still checked by its own submit() — once per
// submission, off the attempt path, same as a plain loop. Transactions
// keep their shared-program lifetime semantics, so helpers may replay a
// txn thunk after the batch returns.
template <typename Plat>
BatchOutcome submit_txn_batch(Session<Plat>& session,
                              std::span<PreparedTxn<Plat>> txns,
                              Policy policy = Policy::one_shot(),
                              Outcome* per_op = nullptr) {
  LockTable<Plat>& space = session.space();
  const bool hold_guards =
      space.config().delay_mode == DelayMode::kOff && txns.size() > 1;
  std::optional<typename Session<Plat>::EbrGuard> guard;
  if (hold_guards) guard.emplace(session);
  BatchOutcome out;
  for (std::size_t i = 0; i < txns.size(); ++i) {
    const Outcome o = txns[i].submit(session, policy);
    out.add(o);
    if (per_op != nullptr) per_op[i] = o;
  }
  return out;
}

}  // namespace wfl
