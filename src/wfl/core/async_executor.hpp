// AsyncExecutor: fiber-multiplexed submission — 100k+ in-flight sessions
// on a fixed worker pool.
//
// submit() burns an OS thread per in-flight submission: an attempt that
// loses its locks re-attempts at once on its thread. That shape caps
// concurrency at "threads you can afford" and spends every retry of a
// still-held lock set spinning. The async executor inverts it:
//
//   Ticket t = exec.async_submit(client, locks, thunk, policy);
//   ...                                  // 100k of these outstanding
//   const Outcome& o = t.wait();
//
// A submission becomes an AsyncOp — a small heap record (~300 B), not a
// thread and not a suspended stack. Ready ops wait in LOCK-FREE run
// queues (util/work_queue.hpp), no mutex anywhere on the path: one
// shared MPSC injector takes all external dispatch (submissions, cancel
// and shutdown sweeps, wakes posted from non-worker threads), and each
// of the N worker threads (N ~ cores) owns a Chase–Lev deque for the ops
// it wakes during its own cycles. A worker runs its own deque LIFO; when
// that is empty it takes the injector's whole chain in one exchange,
// runs the oldest op and spills the rest onto its deque; failing both,
// it steals from the top of a peer's deque. Inline mode (no workers)
// pops the same injector one op at a time, claim-or-skip, from
// run_ready(). A worker with work draws a pooled fiber and runs ONE
// attempt cycle of the existing engine on it: link wait nodes,
// submit_attempt(), then either complete or park. Parking is returning:
// the fiber finishes and goes back to the pool, the op stays linked on
// its locks' wait lists, and the worker moves on. Zero own steps are
// spent backing off — the bench asserts backoff_spin_steps == 0 under
// full contention.
//
// Wake coalescing: each worker carries a state word (kWkAwake / kWkIdle /
// kWkSignalled). An external producer pushes onto the injector and posts
// a futex only if EVERY worker reads kWkIdle, and then only after
// winning one kWkIdle -> kWkSignalled CAS; a worker seen kWkAwake will
// probe the injector before sleeping, and one seen kWkSignalled already
// owes a wake — both cases skip the syscall (counted in wake_skips()).
// Soundness is a seq_cst store-buffering Dekker: producer does
// push-then-read-states, worker does set-idle-then-probe-injector; in
// the seq_cst total order one side must see the other, so either the
// producer posts or the worker's probe finds the push. Work conservation
// is the workers' half: a worker that spills a taken chain, or builds a
// backlog on its own deque, wakes one idle sibling to come steal
// (best-effort — a missed sibling wake costs parallelism for one cycle,
// never progress, because an owner drains its own deque before it can
// ever park).
//
// Wakes come from the lock table itself. LockTable::attempt() and the
// thin-word fast path post a release event (WakeSink::on_release) for
// every lock an attempt's descriptor left — on wins, losses, revocations
// and claim expiry alike. The executor is the sink: an event on lock X
// wakes one parked op from X's wait list (re-enqueueing it) or signals
// one op whose attempt is currently running.
//
// Lost-wake soundness (the prepare-to-wait argument):
//
//   1. An op links its wait nodes on ALL its locks BEFORE its attempt
//      reads any lock state, and stays linked until it completes.
//   2. After a losing attempt, the worker CASes the op kRunning ->
//      kParked. A release event delivered in between CASes kRunning ->
//      kSignalled instead; the park CAS then fails and the cycle retries
//      immediately. If instead that final attempt won (or exhausted its
//      policy), complete() observes the kSignalled on its kDone exchange
//      and re-delivers the wake across the op's locks — a signal
//      consumed by an op that will never retry is re-posted, not
//      swallowed. So every event that post-dates the node link either
//      wakes a parked op, converts into an immediate retry, or is
//      absorbed by an op that is already signalled — never dropped while
//      a waiter could need it. Events that PRE-date the link are covered
//      by the attempt that follows the link: it reads current lock state.
//   3. Wake-one does not strand later waiters: every attempt — including
//      a woken op's losing retry — ends by posting events on all its
//      locks (its multiRemove changed them), so the baton passes down the
//      list as long as any attempt is in flight. An op never parks
//      without having posted events as its final shared-memory act.
//      (Its own nodes are skipped during its own attempt's events — the
//      running_by_pid_ slot of the event's origin pid — so it cannot
//      signal itself into a hot self-retry loop.)
//
// Processes: attempts run under the WORKER's registered process, not the
// submitter's — κ in the engine's O(κ²L²T) bound scales with workers,
// not with in-flight submissions, and the thin-word pid encoding's
// max_procs cap (< 2^15) never meets the 100k+ op count. The submitting
// AsyncClient is liveness bookkeeping only: crash() makes its pending
// ops complete as cancelled instead of wedging their wait lists. In
// inline mode (workers == 0) there are no worker processes and cycles
// run under the CLIENT's session on whatever fiber drives run_ready() —
// which is what makes async_submit sim-deterministic and, uncontended,
// step-identical to submit() (asserted in test_async.cpp).
//
// Guard-drop rule: a cycle must end — park or complete — with no EBR
// guard held (a parked op holding a guard would stall the table's
// reclamation indefinitely). The engine already brackets guards inside
// try_locks; the cycle WFL_CHECKs Space::any_guard_held on its way out.
//
// Modes: async submission is a DelayMode::kOff facility (checked at
// construction). kTheory timing is owned by the paper's delay schedule;
// parking would perturb the reveal-time argument, and bit-identical
// kTheory step traces are a hard regression gate. The executor's own
// plumbing (queues, wait lists, state CASes) is raw atomics and mutexes,
// outside the step model, same as reclamation (DESIGN.md #2).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "wfl/check/race.hpp"
#include "wfl/core/backend.hpp"
#include "wfl/core/executor.hpp"
#include "wfl/core/lock_set.hpp"
#include "wfl/core/session.hpp"
#include "wfl/fuzz/sites.hpp"
#include "wfl/util/align.hpp"
#include "wfl/util/assert.hpp"
#include "wfl/util/fiber.hpp"
#include "wfl/util/work_queue.hpp"

namespace wfl {

// Liveness handle for one logical submitter. An AsyncClient is NOT a
// registered process (that is the whole point — clients are cheap and
// unbounded); it is the cancellation scope its submissions complete
// under, plus the session inline mode runs them on. Must outlive its
// in-flight ops: wait on the tickets, or crash() and drain, before
// destroying it.
template <typename Space>
class BasicAsyncClient {
 public:
  explicit BasicAsyncClient(BasicSession<Space>& session)
      : session_(&session) {}

  BasicAsyncClient(const BasicAsyncClient&) = delete;
  BasicAsyncClient& operator=(const BasicAsyncClient&) = delete;

  bool live() const {
    return live_.load(std::memory_order_acquire, race::Site::kAsyncClientLive);
  }

  // Crash-harness hook: pending submissions complete as cancelled
  // (won == false) the next time a worker touches them; parked ones are
  // re-queued by AsyncExecutor::cancel_client. The session itself is the
  // caller's to abandon (LockTable::abandon_process) — the two are
  // independent layers.
  void crash() {
    live_.store(false, std::memory_order_release,
                race::Site::kAsyncClientLive);
  }

  BasicSession<Space>& session() const { return *session_; }

  // Inline-mode cycle latch: one registered process runs one attempt at
  // a time, so two fibers driving run_ready() must not both run cycles
  // under this client's session. Claim-or-skip, never block.
  bool try_acquire_inline() {
    bool expect = false;
    const bool ok = inline_busy_.compare_exchange_strong(
        expect, true, std::memory_order_acquire);
    // A lock in all but name; the analysis layer models it as one.
    if (ok) race::mutex_acquire(&inline_busy_);
    return ok;
  }
  void release_inline() {
    race::mutex_release(&inline_busy_);
    inline_busy_.store(false, std::memory_order_release);
  }

 private:
  BasicSession<Space>* session_;
  race::Atomic<bool> live_{true};
  std::atomic<bool> inline_busy_{false};
};

template <typename Plat>
class AsyncExecutor {
 public:
  using Space = LockTable<Plat>;
  using Session = BasicSession<Space>;
  using Client = BasicAsyncClient<Space>;

  struct Options {
    // 0 = inline mode: no threads; cycles run on whoever calls
    // run_ready() / Ticket::wait(). Deterministic under SimPlat.
    int workers = 1;
  };

 private:
  // The in-flight submission record. Everything a parked submission IS:
  // no stack, no thread, no registered process.
  struct AsyncOp {
    // Cycle ownership state machine (raw atomics; plumbing, not steps):
    //   kQueued    in a run queue, never yet attempted
    //   kRunning   a cycle owns it (attempting, or queued for re-attempt)
    //   kSignalled kRunning + a release event arrived: must re-attempt
    //   kParked    linked on its locks' wait lists, waiting for an event
    //   kDone      outcome final; ticket side may read out
    static constexpr std::uint32_t kQueued = 0;
    static constexpr std::uint32_t kRunning = 1;
    static constexpr std::uint32_t kSignalled = 2;
    static constexpr std::uint32_t kParked = 3;
    static constexpr std::uint32_t kDone = 4;

    AsyncOp(Client& c, LockSetView locks, typename PreparedOp<Plat>::Armed a,
            Policy p)
        : client(&c), policy(p), armed(a) {
      n_locks = locks.size();
      for (std::uint32_t i = 0; i < n_locks; ++i) ids[i] = locks[i];
    }

    LockSetView locks() const {
      return LockSetView::presorted({ids, n_locks});
    }

    Client* client;
    Policy policy;
    typename PreparedOp<Plat>::Armed armed;
    std::uint32_t ids[kMaxLocksPerAttempt] = {};
    std::uint32_t n_locks = 0;
    bool linked = false;   // nodes in wait lists (cycle-owned, no races)
    bool cancelled = false;
    Outcome out;

    race::Atomic<std::uint32_t> state{kQueued};
    // Two owners: the Ticket and the executor. Last one out deletes.
    race::Atomic<std::uint32_t> refs{2};
    typename Plat::Wake done_wake;

    // Intrusive wait-list nodes, one per lock of the set. Touched only
    // under the owning list's latch (and `linked` only by the cycle).
    struct WaitNode {
      AsyncOp* op = nullptr;
      WaitNode* prev = nullptr;
      WaitNode* next = nullptr;
    };
    WaitNode nodes[kMaxLocksPerAttempt];

    // MPSC injector link (work_queue.hpp): written by the pushing thread
    // before the head CAS publishes it, read by the sole consumer.
    race::Atomic<AsyncOp*> q_next{nullptr};

    // The owning executor's live-record gauge (see live_ops()).
    std::atomic<std::uint64_t>* live_gauge = nullptr;

    void unref() {
      if (refs.fetch_sub(1, std::memory_order_acq_rel,
                         race::Site::kAsyncRefsDrop) == 1) {
        live_gauge->fetch_sub(1, std::memory_order_relaxed);
        // Retire the outcome region before the storage can be heap-reused
        // (the atomics retire themselves).
        race::destroyed(&out);
        delete this;
      }
    }
  };

 public:
  // Completion handle for one async submission. Move-only; dropping it
  // without wait() is fine (the op completes and self-frees). Tickets
  // must not outlive their executor: the op record references the
  // executor's live-record gauge until it is freed.
  class Ticket {
   public:
    Ticket() = default;
    Ticket(Ticket&& o) noexcept
        : op_(std::exchange(o.op_, nullptr)),
          exec_(std::exchange(o.exec_, nullptr)) {}
    Ticket& operator=(Ticket&& o) noexcept {
      if (this != &o) {
        reset();
        op_ = std::exchange(o.op_, nullptr);
        exec_ = std::exchange(o.exec_, nullptr);
      }
      return *this;
    }
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;
    ~Ticket() { reset(); }

    bool valid() const { return op_ != nullptr; }
    bool done() const {
      if (op_ == nullptr) return false;
      return op_->state.load(std::memory_order_acquire,
                             race::Site::kAsyncStateLoad) == AsyncOp::kDone;
    }
    // True while the submission is parked on its wait nodes (it lost an
    // attempt and no wake has arrived) — the state cancel_client's
    // parked-claim exists for. Introspection for tests and the schedule
    // fuzzer's crash targeting; racy by nature, use as a hint only.
    bool parked() const {
      if (op_ == nullptr) return false;
      return op_->state.load(std::memory_order_acquire,
                             race::Site::kAsyncStateLoad) == AsyncOp::kParked;
    }

    // Blocks until the submission completes and returns its Outcome.
    // Worker mode blocks the calling thread (futex wait under RealPlat).
    // Inline mode DRIVES the executor from here — it runs ready cycles
    // on the caller, interleaving Plat::step() while idle so simulator
    // peers get scheduled.
    const Outcome& wait() {
      WFL_CHECK(op_ != nullptr);
      if (exec_->options_.workers == 0) {
        while (!done()) {
          if (exec_->run_ready(1) == 0) Plat::step();
        }
      } else {
        while (!done()) {
          const std::uint32_t seen = op_->done_wake.prepare();
          if (done()) break;
          op_->done_wake.wait(seen);
        }
      }
      WFL_PLAIN_READ(&op_->out, kAsyncOutcome);
      return op_->out;
    }

    // Non-blocking: the Outcome if complete, nullptr otherwise.
    const Outcome* poll() const {
      if (!done()) return nullptr;
      WFL_PLAIN_READ(&op_->out, kAsyncOutcome);
      return &op_->out;
    }

   private:
    friend class AsyncExecutor;
    Ticket(AsyncOp* op, AsyncExecutor* exec) : op_(op), exec_(exec) {}
    void reset() {
      if (op_ != nullptr) op_->unref();
      op_ = nullptr;
    }

    AsyncOp* op_ = nullptr;
    AsyncExecutor* exec_ = nullptr;
  };

  explicit AsyncExecutor(Space& space, Options opt = {})
      : space_(&space),
        options_(opt),
        fibers_(kCycleStackBytes, kMaxIdleFibers),
        wait_lists_(static_cast<std::size_t>(space.num_locks())),
        running_by_pid_(static_cast<std::size_t>(space.max_procs())) {
    WFL_CHECK_MSG(space.config().delay_mode == DelayMode::kOff,
                  "async submission requires DelayMode::kOff — kTheory "
                  "owns an attempt's timing (see header)");
    // SimPlat's Wake::wait spins on Plat::step(), which yields into the
    // fiber scheduler — only valid on a simulator fiber. Worker OS
    // threads would drive the scheduler from foreign threads; the
    // simulator gets inline mode only (which is also what makes it
    // deterministic).
    WFL_CHECK_MSG(!Plat::kSimulated || options_.workers == 0,
                  "simulated platforms require workers == 0 (inline "
                  "mode): worker threads cannot drive the fiber "
                  "scheduler");
    sink_.exec = this;
    space_->set_wake_sink(&sink_);
    workers_.reserve(static_cast<std::size_t>(options_.workers));
    for (int w = 0; w < options_.workers; ++w) {
      workers_.push_back(std::make_unique<Worker>(*space_));
    }
    for (int w = 0; w < options_.workers; ++w) {
      workers_[static_cast<std::size_t>(w)]->thread =
          std::thread([this, w] { worker_main(w); });
    }
  }

  ~AsyncExecutor() { shutdown(); }

  AsyncExecutor(const AsyncExecutor&) = delete;
  AsyncExecutor& operator=(const AsyncExecutor&) = delete;

  // Submits `f` on `locks` for `client` under `policy`. Returns
  // immediately; the attempt cycles run on the worker pool (or on
  // whoever drives run_ready() in inline mode). Same thunk contract as
  // submit(): trivially copyable, <= PreparedOp inline capacity, capture
  // only state outliving the space's grace period.
  template <typename F>
  Ticket async_submit(Client& client, LockSetView locks, F f,
                      Policy policy = Policy::retry()) {
    WFL_CHECK(!stopping_.load(std::memory_order_acquire));
    // The L bound, and every id below num_locks(): link_nodes indexes
    // wait_lists_ by id.
    check_lock_set(*space_, locks);
    const PreparedOp<Plat> prep(locks, std::move(f));
    auto* op = new AsyncOp(client, locks, prep.armed(), policy);
    op->live_gauge = &live_ops_;
    live_ops_.fetch_add(1, std::memory_order_relaxed);
    // acq_rel, matching the drain side: the shutdown loop's acquire load
    // must never observe a count weaker than the queue state it mirrors.
    in_flight_.fetch_add(1, std::memory_order_acq_rel,
                         race::Site::kAsyncInFlight);
    dispatch(op);
    return Ticket(op, this);
  }

  // Inline-mode driver: run up to `max_cycles` ready cycles on the
  // caller (0 = drain everything ready). Returns cycles run; an op
  // whose client is mid-cycle on another fiber is requeued and the
  // drain returns (the caller steps and retries — see Ticket::wait).
  std::size_t run_ready(std::size_t max_cycles = 0) {
    // Workers take the injector whole (take_injected); a concurrent
    // pop() here would break its single-consumer discipline.
    WFL_CHECK_MSG(options_.workers == 0, "run_ready() drives inline mode");
    fuzz_limbo_drain();
    std::size_t ran = 0;
    while (max_cycles == 0 || ran < max_cycles) {
      AsyncOp* op = inline_pop();
      if (op == nullptr) break;
      if (!op->client->try_acquire_inline()) {
        injector_.push(op);
        break;
      }
      run_cycle(op, op->client->session());
      op->client->release_inline();
      ++ran;
    }
    return ran;
  }

  // Crash path: every pending submission of `client` completes as
  // cancelled. Running cycles are signalled (they re-check liveness and
  // cancel themselves); parked ops are claimed and re-queued so a worker
  // finishes them off. Waiters of OTHER clients on the same locks are
  // untouched — cancellation posts no lock-table events and unlinking
  // happens in the op's own final cycle.
  void cancel_client(Client& client) {
    client.crash();
    for (WaitList& wl : wait_lists_) {
      std::lock_guard<std::mutex> g(wl.mu);
      race::MutexScope chk(&wl.mu);
      for (typename AsyncOp::WaitNode* n = wl.head; n != nullptr;
           n = n->next) {
        AsyncOp* op = n->op;
        if (op->client != &client) continue;
        std::uint32_t expect = AsyncOp::kParked;
        if (op->state.compare_exchange_strong(expect, AsyncOp::kRunning,
                                              std::memory_order_acq_rel,
                                              race::Site::kAsyncStateCas)) {
          WFL_FUZZ_SITE(kSiteAsyncCancelSweep);
          if (fuzz::fault_on(fuzz::Fault::kShutdownHang)) {
            // Seeded fault (fuzz mutation gate): the PR 6 shutdown hang.
            // The sweep claims the crashed client's parked op, but its
            // dispatch lands on a pool whose workers already exited —
            // claimed, cancelled work no one will ever run, so the
            // in-flight drain spins forever. Modeled by diverting the
            // claimed op to a limbo stack that only drains once the
            // fault is disarmed (run_ready re-absorbs it, keeping the
            // harness teardown after a finding sound).
            fuzz_limbo_push(op);
          } else {
            dispatch(op);
          }
        } else if (expect == AsyncOp::kRunning) {
          op->state.compare_exchange_strong(expect, AsyncOp::kSignalled,
                                            std::memory_order_acq_rel,
                                            race::Site::kAsyncStateCas);
        }
      }
    }
  }

  Space& space() const { return *space_; }
  int workers() const { return options_.workers; }

  // Submissions accepted and not yet complete (queued, attempting, or
  // parked).
  std::uint64_t in_flight() const {
    return in_flight_.load(std::memory_order_acquire,
                           race::Site::kAsyncInFlight);
  }
  // Live session records: submitted and the Outcome not yet consumed
  // (the Ticket still open), whatever the op's state. This is the
  // bench's headline gauge — holding >= 100k of these on a fixed pool
  // is the point of the subsystem: a session costs ~300 B of heap, not
  // a thread, a stack, or a registered process.
  std::uint64_t live_ops() const {
    return live_ops_.load(std::memory_order_acquire);
  }
  std::uint64_t completed() const {
    return completed_.load(std::memory_order_acquire);
  }
  std::uint64_t parks() const { return sum_counter(&Counters::parks); }
  std::uint64_t wakes() const { return sum_counter(&Counters::wakes); }
  std::uint64_t signals() const { return sum_counter(&Counters::signals); }
  std::uint64_t steals() const { return sum_counter(&Counters::steals); }
  // Futex posts issued / elided by the coalescing word (see header).
  std::uint64_t wake_posts() const {
    return sum_counter(&Counters::wake_posts);
  }
  std::uint64_t wake_skips() const {
    return sum_counter(&Counters::wake_skips);
  }
  std::uint64_t fibers_created() const { return fibers_.created(); }
  std::uint64_t fibers_reused() const { return fibers_.reused(); }

 private:
  // One wait list per lock: intrusive doubly-linked, FIFO wake order
  // (wakers scan from head, links push at tail). A plain mutex, not a
  // Plat::Atomic spin: critical sections are a few pointer writes, and
  // the latch must not count as model steps.
  struct WaitList {
    std::mutex mu;
    typename AsyncOp::WaitNode* head = nullptr;
    typename AsyncOp::WaitNode* tail = nullptr;
  };

  // Per-context event counters, cache-padded so hot-path bumps never
  // share a line across workers (the shared fetch_add counters this
  // replaces were a measurable contention source at high churn). Pure
  // monotone gauges — intentionally unhooked (ordering_contracts.hpp
  // header: advisory telemetry carries no ordering obligation).
  struct alignas(kCacheLine) Counters {
    std::atomic<std::uint64_t> parks{0};
    std::atomic<std::uint64_t> wakes{0};
    std::atomic<std::uint64_t> signals{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> wake_posts{0};
    std::atomic<std::uint64_t> wake_skips{0};
  };

  // Wake-coalescing worker states (see header).
  static constexpr std::uint32_t kWkAwake = 0;
  static constexpr std::uint32_t kWkIdle = 1;
  static constexpr std::uint32_t kWkSignalled = 2;

  struct Worker {
    explicit Worker(Space& s) : session(s) {}

    Session session;  // the registered process attempts run under
    ChaseLevDeque<AsyncOp*> deque;  // owner push/take bottom, thieves top
    race::Atomic<std::uint32_t> state{kWkAwake};
    typename Plat::Wake wake;
    Counters counters;
    std::thread thread;
  };

  // Worker identity for the dispatch fast path: a worker thread pushes
  // claimed/woken ops straight onto its OWN deque (the only legal
  // Chase–Lev producer) instead of the shared injector.
  struct TlsWorker {
    AsyncExecutor* exec = nullptr;
    Worker* w = nullptr;
    int index = -1;
  };
  static TlsWorker& tls_worker() {
    static thread_local TlsWorker t;
    return t;
  }

  // Counter slot for the calling context: the owning worker's padded
  // line, or the executor-wide external slot (submitter/cancel paths,
  // inline mode — uncontended there by construction).
  Counters& counters_here() {
    TlsWorker& t = tls_worker();
    return (t.exec == this) ? t.w->counters : *external_counters_;
  }

  // The WakeSink the lock table calls from inside attempt teardown.
  // Member object (not base) so LockTable's header needs only the
  // abstract interface.
  struct Sink final : WakeSink {
    AsyncExecutor* exec = nullptr;
    void on_release(std::uint32_t lock_id, int origin_pid) override {
      exec->deliver_event(lock_id, origin_pid);
    }
  };

  // --- event delivery -----------------------------------------------------

  // Events are posted synchronously by the attempting context, so the
  // op to self-skip is whichever op is running under the origin pid —
  // keyed by pid, not thread identity, because under SimPlat many
  // cycles interleave mid-attempt on one OS thread.
  void deliver_event(std::uint32_t lock_id, int origin_pid) {
    AsyncOp* self =
        origin_pid >= 0
            ? running_by_pid_[static_cast<std::size_t>(origin_pid)].load(
                  std::memory_order_relaxed)
            : nullptr;
    WaitList& wl = wait_lists_[lock_id];
    std::lock_guard<std::mutex> g(wl.mu);
    race::MutexScope chk(&wl.mu);
    for (typename AsyncOp::WaitNode* n = wl.head; n != nullptr;
         n = n->next) {
      AsyncOp* op = n->op;
      if (op == self) continue;
      std::uint32_t s = op->state.load(std::memory_order_acquire,
                                       race::Site::kAsyncStateLoad);
      if (s == AsyncOp::kParked) {
        if (op->state.compare_exchange_strong(s, AsyncOp::kRunning,
                                              std::memory_order_acq_rel,
                                              race::Site::kAsyncStateCas)) {
          counters_here().wakes.fetch_add(1, std::memory_order_relaxed);
          dispatch(op);
          return;  // wake-one
        }
        s = op->state.load(std::memory_order_acquire,
                           race::Site::kAsyncStateLoad);
      }
      if (s == AsyncOp::kRunning) {
        if (op->state.compare_exchange_strong(s, AsyncOp::kSignalled,
                                              std::memory_order_acq_rel,
                                              race::Site::kAsyncStateCas)) {
          counters_here().signals.fetch_add(1, std::memory_order_relaxed);
          return;  // converted into that op's immediate retry
        }
      }
      if (s == AsyncOp::kSignalled) return;  // absorbed: a retry is owed
    }
    // Empty or self-only list: nobody to deliver to. Sound — any waiter
    // that links later attempts after linking and reads current state.
  }

  // --- run queues ---------------------------------------------------------

  // Fuzz-only (Fault::kShutdownHang): a claimed-but-undispatchable op —
  // the "dead worker pool" of the original shutdown hang. q_next is free
  // here precisely because a limbo op is not on any run queue.
  void fuzz_limbo_push(AsyncOp* op) {
    AsyncOp* head = fuzz_limbo_.load(std::memory_order_relaxed);
    do {
      op->q_next.store(head, std::memory_order_relaxed, race::Site::kInjNext);
    } while (!fuzz_limbo_.compare_exchange_weak(
        head, op, std::memory_order_release, std::memory_order_relaxed));
  }

  // Re-absorb diverted ops once the fault is disarmed, so the harness can
  // still tear the executor down after reporting a finding. One relaxed
  // load on the clean tree.
  void fuzz_limbo_drain() {
    if (fuzz_limbo_.load(std::memory_order_relaxed) == nullptr) return;
    if (fuzz::fault_on(fuzz::Fault::kShutdownHang)) return;
    AsyncOp* op = fuzz_limbo_.exchange(nullptr, std::memory_order_acquire);
    while (op != nullptr) {
      AsyncOp* next =
          op->q_next.load(std::memory_order_relaxed, race::Site::kInjNext);
      op->q_next.store(nullptr, std::memory_order_relaxed,
                       race::Site::kInjNext);
      dispatch(op);
      op = next;
    }
  }

  // The one run-queue entry, for new submissions and for ops already
  // claimed kRunning (woken or cancel-claimed) alike.
  //
  // A worker thread self-pushes onto its OWN Chase–Lev deque (op wakes
  // fired from its cycles stay cache-local; it is the deque's only legal
  // producer) and hands one idle sibling a steal target when a backlog
  // builds. Any other thread pushes onto the shared injector, which
  // inline mode's run_ready() pops and workers take whole (take_injected).
  //
  // After an external push, post a wake only if EVERY worker reads
  // kWkIdle. A worker seen awake or signalled probes the injector before
  // it sleeps (park), so under the seq_cst sleep Dekker it finds the
  // push; waking a parked worker while another sits hot on a core would
  // pay a futex wake plus a context switch per op. Work conservation is
  // the worker's half: a taken chain that spills backlog wakes one idle
  // sibling to come steal, so coalescing onto the awake worker cannot
  // strand load behind it.
  void dispatch(AsyncOp* op) {
    TlsWorker& t = tls_worker();
    if (t.exec == this) {
      t.w->deque.push(op);
      // Self-pushed work is invisible to the injector wake path: if
      // anyone is napping while we accumulate a backlog, hand them a
      // steal target. Best-effort (see header): a missed wake here costs
      // one cycle of parallelism, never progress.
      if (idle_workers_.load(std::memory_order_relaxed) > 0 &&
          t.w->deque.size_approx() > 1) {
        wake_one_idle(static_cast<std::size_t>(t.index) + 1);
      }
      return;
    }
    injector_.push(op);
    if (workers_.empty()) return;  // inline: run_ready() pops it
    for (const auto& w : workers_) {
      if (w->state.load(std::memory_order_seq_cst, race::Site::kWkrState) !=
          kWkIdle) {
        counters_here().wake_skips.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    wake_one_idle(0);
  }

  // Signal one idle worker, scanning all N from `start`. A worker that
  // calls it reads itself as kWkAwake, so it never picks itself. A lost CAS
  // means that worker woke by itself or another producer signalled it;
  // either way it will probe the injector before it sleeps again.
  void wake_one_idle(std::size_t start) {
    const std::size_t n = workers_.size();
    for (std::size_t i = 0; i < n; ++i) {
      Worker& v = *workers_[(start + i) % n];
      std::uint32_t s =
          v.state.load(std::memory_order_seq_cst, race::Site::kWkrState);
      if (s != kWkIdle) continue;
      if (v.state.compare_exchange_strong(s, kWkSignalled,
                                          std::memory_order_seq_cst,
                                          race::Site::kWkrState)) {
        counters_here().wake_posts.fetch_add(1, std::memory_order_relaxed);
        v.wake.post();
        return;
      }
    }
  }

  // The workers' take from the shared injector: drain_all() claims the
  // whole chain in one exchange (rival takers get disjoint chains). The
  // chain is newest-first; reverse it, keep the oldest for immediate
  // execution and spill the rest onto our own deque, oldest at the steal
  // end, where a woken sibling can steal it at once.
  AsyncOp* take_injected(std::size_t index) {
    AsyncOp* chain = injector_.drain_all();
    if (chain == nullptr) return nullptr;
    Worker& self = *workers_[index];
    AsyncOp* fifo = nullptr;
    while (chain != nullptr) {
      AsyncOp* next =
          chain->q_next.load(std::memory_order_relaxed, race::Site::kInjNext);
      chain->q_next.store(fifo, std::memory_order_relaxed,
                          race::Site::kInjNext);
      fifo = chain;
      chain = next;
    }
    AsyncOp* op = fifo;
    AsyncOp* rest =
        op->q_next.load(std::memory_order_relaxed, race::Site::kInjNext);
    op->q_next.store(nullptr, std::memory_order_relaxed, race::Site::kInjNext);
    const bool spilled = rest != nullptr;
    while (rest != nullptr) {
      AsyncOp* next =
          rest->q_next.load(std::memory_order_relaxed, race::Site::kInjNext);
      rest->q_next.store(nullptr, std::memory_order_relaxed,
                         race::Site::kInjNext);
      self.deque.push(rest);
      rest = next;
    }
    // The dispatch rule wakes nobody while this worker was awake, so a
    // spilled backlog is load no one else has been told about.
    if (spilled && idle_workers_.load(std::memory_order_relaxed) > 0) {
      wake_one_idle(index + 1);
    }
    return op;
  }

  // Steal one op from the FIFO end of a peer's deque.
  AsyncOp* steal_from_peers(std::size_t thief) {
    const std::size_t n = workers_.size();
    Worker& self = *workers_[thief];
    for (std::size_t i = 1; i < n; ++i) {
      AsyncOp* op = workers_[(thief + i) % n]->deque.steal();
      if (op == nullptr) continue;
      self.counters.steals.fetch_add(1, std::memory_order_relaxed);
      return op;
    }
    return nullptr;
  }

  // Inline-mode pop: the MPSC consumer side needs a single consumer, but
  // run_ready() may be driven from several fibers (Ticket::wait). Claim
  // the consumer latch or skip — never block (the caller steps and
  // retries). Modeled as a lock for the analysis layer.
  AsyncOp* inline_pop() {
    bool expect = false;
    if (!injector_consumer_.compare_exchange_strong(
            expect, true, std::memory_order_acquire)) {
      return nullptr;
    }
    race::mutex_acquire(&injector_consumer_);
    AsyncOp* op = injector_.pop();
    race::mutex_release(&injector_consumer_);
    injector_consumer_.store(false, std::memory_order_release);
    return op;
  }

  // --- wait-list link/unlink ----------------------------------------------

  void link_nodes(AsyncOp* op) {
    for (std::uint32_t i = 0; i < op->n_locks; ++i) {
      WaitList& wl = wait_lists_[op->ids[i]];
      typename AsyncOp::WaitNode& n = op->nodes[i];
      n.op = op;
      std::lock_guard<std::mutex> g(wl.mu);
      race::MutexScope chk(&wl.mu);
      n.prev = wl.tail;
      n.next = nullptr;
      if (wl.tail != nullptr) {
        wl.tail->next = &n;
      } else {
        wl.head = &n;
      }
      wl.tail = &n;
    }
    op->linked = true;
  }

  void unlink_nodes(AsyncOp* op) {
    if (!op->linked) return;
    for (std::uint32_t i = 0; i < op->n_locks; ++i) {
      WaitList& wl = wait_lists_[op->ids[i]];
      typename AsyncOp::WaitNode& n = op->nodes[i];
      std::lock_guard<std::mutex> g(wl.mu);
      race::MutexScope chk(&wl.mu);
      if (n.prev != nullptr) {
        n.prev->next = n.next;
      } else {
        wl.head = n.next;
      }
      if (n.next != nullptr) {
        n.next->prev = n.prev;
      } else {
        wl.tail = n.prev;
      }
      n.prev = n.next = nullptr;
    }
    op->linked = false;
  }

  // --- the attempt cycle --------------------------------------------------

  // One scheduling quantum of an op: attempt until it wins, exhausts its
  // policy, is cancelled, or loses with no pending signal — in which
  // case it parks and the cycle ENDS (the fiber running it finishes and
  // is recycled; the op's only residue is its linked wait nodes).
  void run_cycle(AsyncOp* op, Session& session) {
    std::atomic<AsyncOp*>& slot =
        running_by_pid_[static_cast<std::size_t>(session.pid())];
    // Exchange, not a plain store: a wake-one signal absorbed between
    // this op's enqueue and its cycle start (kRunning -> kSignalled in
    // deliver_event) must not be silently erased. An attempt fulfills the
    // owed retry; a cycle that cancels WITHOUT attempting does not, so
    // the signal is handed back to complete(), whose kSignalled-exchange
    // re-delivery puts the wake back on the lock — otherwise a parked
    // waiter on the same lock strands forever. (Found by the schedule
    // fuzzer: cancel_client claims a parked op, a release signals the
    // claimed op, its final cycle used to wipe the signal and cancel.)
    const std::uint32_t entry =
        op->state.exchange(AsyncOp::kRunning, std::memory_order_acq_rel,
                           race::Site::kAsyncStateCas);
    bool owed_signal = entry == AsyncOp::kSignalled;
    for (;;) {
      if (op->cancelled || !op->client->live()) {
        op->cancelled = true;
        if (owed_signal) {
          op->state.store(AsyncOp::kSignalled, std::memory_order_release,
                          race::Site::kAsyncStateStore);
        }
        complete(op);
        break;
      }
      if (!op->linked) link_nodes(op);
      slot.store(op, std::memory_order_relaxed);
      WFL_PLAIN_WRITE(&op->out, kAsyncOutcome);  // the attempt fills it
      const bool won = submit_attempt(session, op->locks(), op->armed,
                                      op->out);
      owed_signal = false;  // the attempt was the retry the signal owed
      slot.store(nullptr, std::memory_order_relaxed);
      // Guard-drop rule: parking (or finishing) with an EBR guard held
      // would stall the table's reclamation behind a suspended op.
      WFL_CHECK(!space_->any_guard_held(session.process()));
      if (won || policy_exhausted(op->policy, op->out)) {
        complete(op);
        break;
      }
      // Re-check liveness before parking: a client cancelled mid-attempt
      // must not park an op no future event may wake (cancel_client's
      // sweep saw kRunning and signalled us, or will see kParked and
      // claim us — but if it has already swept, the loop top is the only
      // exit left).
      if (op->cancelled || !op->client->live()) continue;
      std::uint32_t expect = AsyncOp::kRunning;
      if (op->state.compare_exchange_strong(expect, AsyncOp::kParked,
                                            std::memory_order_acq_rel,
                                            race::Site::kAsyncStateCas)) {
        counters_here().parks.fetch_add(1, std::memory_order_relaxed);
        break;  // parked: cycle over, wait nodes carry the wake
      }
      // A release event landed mid-attempt (kSignalled): consume it and
      // re-attempt on this same quantum. Owed until that attempt happens —
      // the loop top may cancel first (same hand-back as the entry case).
      op->state.store(AsyncOp::kRunning, std::memory_order_release,
                      race::Site::kAsyncStateStore);
      owed_signal = true;
    }
  }

  void complete(AsyncOp* op) {
    unlink_nodes(op);
    if (op->cancelled) {
      WFL_PLAIN_WRITE(&op->out, kAsyncOutcome);
      op->out.won = false;
    }
    std::uint32_t prev;
    if (fuzz::fault_on(fuzz::Fault::kLostWake)) {
      // Seeded fault (fuzz mutation gate): the original PR 6 bug — a
      // plain store that never learns it overwrote a kSignalled, so the
      // wake-one delivery it absorbed is silently dropped. The coverage
      // tap still observes the overwrite (without acting on it) so
      // fault-mode mutants are steered toward the absorbed-signal state
      // the drop needs.
      if (op->state.load(std::memory_order_acquire,
                         race::Site::kAsyncStateLoad) == AsyncOp::kSignalled) {
        WFL_FUZZ_SITE(kSiteAsyncSignalOnDone);
      }
      prev = AsyncOp::kRunning;
      op->state.store(AsyncOp::kDone, std::memory_order_release,
                      race::Site::kAsyncStateStore);
    } else {
      prev = op->state.exchange(AsyncOp::kDone, std::memory_order_acq_rel,
                                race::Site::kAsyncStateCas);
    }
    // A release event that raced with this op's final attempt CASed
    // kRunning -> kSignalled and counted itself delivered (wake-one).
    // This op is not retrying, so re-post the wake or a parked waiter
    // on the same lock strands until unrelated traffic arrives. The
    // event does not record which lock fired, so re-deliver across the
    // whole set; our nodes are unlinked above, so this op cannot be its
    // own target.
    if (prev == AsyncOp::kSignalled) {
      WFL_FUZZ_SITE(kSiteAsyncSignalOnDone);
      for (std::uint32_t i = 0; i < op->n_locks; ++i) {
        deliver_event(op->ids[i], -1);
      }
    }
    in_flight_.fetch_sub(1, std::memory_order_acq_rel,
                         race::Site::kAsyncInFlight);
    completed_.fetch_add(1, std::memory_order_relaxed);
    op->done_wake.post_all();
    op->unref();
  }

  // --- workers ------------------------------------------------------------

  void worker_main(int index) {
    Worker& self = *workers_[static_cast<std::size_t>(index)];
    TlsWorker& tls = tls_worker();
    tls = TlsWorker{this, &self, index};
    for (;;) {
      // Own deque (LIFO, cache-warm), then the shared injector (the
      // external FIFO), then peers' deques (the steal path).
      const auto at = static_cast<std::size_t>(index);
      AsyncOp* op = self.deque.take();
      if (op == nullptr) op = take_injected(at);
      if (op == nullptr) op = steal_from_peers(at);
      if (op == nullptr) {
        // Exit only once stopping_ AND nothing is in flight: shutdown
        // sweeps parked ops back into the run queues as cancelled work,
        // and a worker that left on "queues momentarily empty" would
        // strand that work and wedge shutdown's in_flight_ drain.
        if (stopping_.load(std::memory_order_acquire)) {
          if (in_flight() == 0) break;
          std::this_thread::yield();  // sweep in progress; stay pollable
          continue;
        }
        park(self);
        continue;
      }
      // Each quantum runs on a pooled fiber: the cycle gets its own
      // bounded stack (cheap to account, reusable across quanta) and the
      // worker's frame stays flat no matter what the thunk does.
      std::unique_ptr<Fiber> fiber = fibers_.acquire(Fiber::Body(
          [this, op, &self] { run_cycle(op, self.session); }));
      fiber->resume();
      WFL_CHECK(fiber->finished());  // cycles end; they never suspend
      fibers_.release(std::move(fiber));
    }
    tls = TlsWorker{};
  }

  // Commit to sleep, then re-probe. The kWkIdle store and the injector
  // probe are both seq_cst — the worker half of the sleep Dekker (see
  // dispatch). Only the shared head needs re-probing: the own deque has
  // no producer but us, and a peer's backlog wakes a sibling from that
  // peer's side; stealing is load-shedding, not the wake path.
  //
  // The futex ticket is taken BEFORE the kWkIdle store, so every post
  // aimed at this park (a producer can only post after seeing kWkIdle)
  // advances the sequence past `seen` and the wait falls through. Taken
  // after the store, a post could land in between and be absorbed into
  // the ticket; if a sibling then took the injector's chain, the worker
  // slept on a consumed post with its state stuck at kWkSignalled —
  // which dispatch reads as "awake", skipping every later wake (a wedged
  // worker).
  void park(Worker& self) {
    const std::uint32_t seen = self.wake.prepare();
    self.state.store(kWkIdle, std::memory_order_seq_cst, race::Site::kWkrState);
    idle_workers_.fetch_add(1, std::memory_order_relaxed);
    if (injector_.empty() && !stopping_.load(std::memory_order_acquire)) {
      self.wake.wait(seen);
    }
    self.state.store(kWkAwake, std::memory_order_seq_cst,
                     race::Site::kWkrState);
    idle_workers_.fetch_sub(1, std::memory_order_relaxed);
  }

  void shutdown() {
    stopping_.store(true, std::memory_order_release);
    if (options_.workers == 0) {
      // Inline: cancel whatever is still parked, then drain on this
      // thread. Clients may already be gone only if their ops are done
      // (documented lifetime), so live() reads here are safe.
      sweep_cancel_all();
      while (in_flight() != 0) {
        if (run_ready(0) == 0) sweep_cancel_all();
      }
    } else {
      // Workers drain the queues; parked ops are swept in as cancelled
      // work until nothing is left, then the pool is joined.
      while (in_flight() != 0) {
        sweep_cancel_all();
        std::this_thread::yield();
      }
      for (auto& w : workers_) w->wake.post_all();
      for (auto& w : workers_) {
        if (w->thread.joinable()) w->thread.join();
      }
    }
    space_->set_wake_sink(nullptr);
    // Preserve counter totals past worker teardown: accessors stay valid
    // for post-shutdown reads (benches report after episodes end).
    for (auto& w : workers_) fold_counters(w->counters);
    workers_.clear();
  }

  void fold_counters(const Counters& c) {
    auto fold = [this](std::atomic<std::uint64_t> Counters::* m,
                       const Counters& src) {
      ((*external_counters_).*m)
          .fetch_add((src.*m).load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    };
    fold(&Counters::parks, c);
    fold(&Counters::wakes, c);
    fold(&Counters::signals, c);
    fold(&Counters::steals, c);
    fold(&Counters::wake_posts, c);
    fold(&Counters::wake_skips, c);
  }

  std::uint64_t sum_counter(std::atomic<std::uint64_t> Counters::* m) const {
    std::uint64_t total =
        ((*external_counters_).*m).load(std::memory_order_relaxed);
    for (const auto& w : workers_) {
      total += (w->counters.*m).load(std::memory_order_relaxed);
    }
    return total;
  }

  // Claim every parked op (any client) and queue it; its next cycle
  // completes it as cancelled because shutdown marks no one live —
  // cycles re-check stopping_ via client liveness only, so force the
  // flag here.
  void sweep_cancel_all() {
    for (WaitList& wl : wait_lists_) {
      std::lock_guard<std::mutex> g(wl.mu);
      race::MutexScope chk(&wl.mu);
      for (typename AsyncOp::WaitNode* n = wl.head; n != nullptr;
           n = n->next) {
        AsyncOp* op = n->op;
        std::uint32_t expect = AsyncOp::kParked;
        if (op->state.compare_exchange_strong(expect, AsyncOp::kRunning,
                                              std::memory_order_acq_rel,
                                              race::Site::kAsyncStateCas)) {
          WFL_FUZZ_SITE(kSiteAsyncCancelSweep);
          op->cancelled = true;
          dispatch(op);
        }
      }
    }
  }

  // Cycle stacks. Cycles are shallow (one attempt, no recursion into user
  // code beyond the thunk), so this is far below the simulator's stack.
  static constexpr std::size_t kCycleStackBytes = 64 * 1024;
  static constexpr std::size_t kMaxIdleFibers = 64;

  Space* space_;
  Options options_;
  Sink sink_;
  FiberPool fibers_;
  std::vector<WaitList> wait_lists_;
  // Which op is attempting under each registered process right now; the
  // event-delivery self-skip (see deliver_event).
  std::vector<std::atomic<AsyncOp*>> running_by_pid_;
  std::vector<std::unique_ptr<Worker>> workers_;

  // The shared run queue for external dispatch (workers take it whole,
  // inline mode pops it) + inline mode's claim-or-skip consumer latch.
  MpscInjector<AsyncOp> injector_;
  std::atomic<bool> injector_consumer_{false};

  // Fuzz-only: ops diverted by the armed kShutdownHang fault (see
  // fuzz_limbo_push/fuzz_limbo_drain).
  std::atomic<AsyncOp*> fuzz_limbo_{nullptr};

  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> idle_workers_{0};  // advisory sibling-wake gate
  race::Atomic<std::uint64_t> in_flight_{0};
  std::atomic<std::uint64_t> live_ops_{0};
  std::atomic<std::uint64_t> completed_{0};
  // Non-worker contexts' counter slot + post-shutdown accumulator.
  CachePadded<Counters> external_counters_;
};

// The client type virtually all code wants (mirrors Session<Plat>).
template <typename Plat>
using AsyncClient = BasicAsyncClient<LockTable<Plat>>;

}  // namespace wfl
