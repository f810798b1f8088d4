// Application substrate: a chained hash map with one lock per bucket.
//
// This is the k/v-store shape the paper's tryLocks fit naturally:
//   * put / erase / get_locked touch one bucket — L = 1;
//   * swap(k1, k2) atomically exchanges the values of two keys in two
//     buckets — L = 2, the canonical "multi-word atomic without a global
//     lock" pattern (same shape as the bank-transfer workload).
//
// Unlike LockedList, mutators re-walk the chain *inside* the
// critical section (the bucket lock serializes the whole bucket), so there
// is no optimistic-validation dance: the walk is the validation. Chains are
// capped at kMaxChain so the in-thunk walk has a static operation budget —
// required both by the thunk-length bound T of the paper and by the
// idempotence log capacity (kMaxThunkOps). A put into a full chain returns
// kFull rather than growing: this substrate trades resizing for bounded
// critical sections (document-level trade-off; size nbuckets for the load).
//
// Erased nodes are marked dead and unlinked under the bucket lock but not
// recycled until quiescent (same era-free policy as the other substrates).
// The unlocked get() is weakly consistent: it can read through a node
// unlinked moments ago — the same semantics as the lazy list's contains.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "wfl/core/backend.hpp"
#include "wfl/core/executor.hpp"
#include "wfl/core/lock_table.hpp"
#include "wfl/core/session.hpp"
#include "wfl/idem/cell.hpp"
#include "wfl/mem/arena.hpp"
#include "wfl/util/assert.hpp"

namespace wfl {

inline constexpr std::uint32_t kMapNil = 0xFFFFFFFFu;
inline constexpr std::uint32_t kMaxChain = 10;

// Result codes published through the per-process result cell.
enum : std::uint32_t {
  kMapPending = 0,
  kMapOk = 1,       // mutation applied
  kMapExists = 2,   // put: key already present (value updated)
  kMapAbsent = 3,   // erase/swap/get: key not found
  kMapFull = 4,     // put: chain at kMaxChain, key not inserted
};

// Backend-generic (see core/backend.hpp): a bare platform parameter is
// shorthand for the wait-free backend.
template <typename BackendT>
class LockedHashMap {
 public:
  using B = resolve_backend_t<BackendT>;
  static_assert(LockBackend<B>, "LockedHashMap requires a LockBackend");
  using Plat = typename B::Platform;
  using Space = typename B::Space;
  using Sess = typename B::Session;

  // Bucket b is protected by lock id b; `space` needs >= nbuckets locks and
  // max_thunk_steps >= thunk_step_budget().
  LockedHashMap(Space& space, std::uint32_t nbuckets,
                std::uint32_t node_capacity)
      : space_(space), nbuckets_(nbuckets), pool_(node_capacity) {
    WFL_CHECK(nbuckets >= 1);
    WFL_CHECK(static_cast<int>(nbuckets) <= space.num_locks());
    WFL_CHECK_MSG(space.config().max_thunk_steps >= thunk_step_budget(),
                  "configure LockConfig::max_thunk_steps >= "
                  "LockedHashMap::thunk_step_budget()");
    heads_.reserve(nbuckets);
    sinks_.reserve(nbuckets);
    for (std::uint32_t b = 0; b < nbuckets; ++b) {
      heads_.push_back(std::make_unique<Cell<Plat>>(kMapNil));
      sinks_.push_back(std::make_unique<Cell<Plat>>(0u));
    }
    for (int i = 0; i < space.max_procs(); ++i) {
      results_.push_back(std::make_unique<Cell<Plat>>(0u));
      out_vals_.push_back(std::make_unique<Cell<Plat>>(0u));
      batch_results_.emplace_back();
    }
  }

  // Worst-case instrumented operations of the widest thunk (swap: two
  // bounded chain walks plus the exchange and result stores).
  static constexpr std::uint32_t thunk_step_budget() {
    return 4 * (kMaxChain + 2) + 8;
  }

  // Upsert. Returns kMapOk (inserted), kMapExists (value replaced) or
  // kMapFull. Retries internally until an attempt wins its locks.
  std::uint32_t put(Sess& session, std::uint64_t key, std::uint32_t value,
                    std::uint64_t* attempts = nullptr) {
    WFL_DASSERT(&session.space() == &space_);
    const std::uint32_t b = bucket_of(key);
    const std::uint32_t fresh = pool_.alloc();
    {
      Node& n = pool_.at(fresh);
      n.key = key;
      n.val.init(value);
      n.next.init(kMapNil);
      n.dead.init(0);
    }
    Cell<Plat>& res = result_of(session);
    Cell<Plat>* res_ptr = &res;
    const StaticLockSet<1> locks{b};
    const Outcome o = B::submit(
        session, locks,
        [this, b, key, value, fresh, res_ptr](IdemCtx<Plat>& m) {
          Cell<Plat>& head = *heads_[b];
          std::uint32_t len = 0;
          std::uint32_t cur = m.load(head);
          while (cur != kMapNil) {
            Node& n = pool_.at(cur);
            if (n.key == key) {  // keys immutable: plain read is safe
              m.store(n.val, value);
              m.store(*res_ptr, kMapExists);
              return;
            }
            ++len;
            cur = m.load(n.next);
          }
          if (len >= kMaxChain) {
            m.store(*res_ptr, kMapFull);
            return;
          }
          // Link at head. `fresh` is private to this thunk instance; all
          // runs agree on this branch, so it is touched iff it is linked.
          Node& f = pool_.at(fresh);
          m.store(f.next, m.load(head));
          m.store(head, fresh);
          m.store(*res_ptr, kMapOk);
        },
        Policy::retry());
    if (attempts != nullptr) *attempts += o.attempts;
    const std::uint32_t r = res.peek();
    if (r != kMapOk) pool_.free(fresh);  // thunk never touched it
    return r;
  }

  // One batch element for put_batch.
  struct Put {
    std::uint64_t key;
    std::uint32_t value;
  };

  // Batch upsert: submits every put in order through the backend's
  // (possibly amortized) batch path under Policy::retry() — batch entries
  // are run-to-completion, matching put(). `results`, when non-null, must
  // hold xs.size() slots and receives each op's kMap* code. Spans larger
  // than kMaxBatchOps are chunked transparently; each op writes its result
  // through a per-(process, batch-slot) cell in stable storage, so helper
  // replays after the batch returns stay harmless (same argument as the
  // per-process result cells).
  static constexpr std::size_t kMaxBatchOps = 32;

  BatchOutcome put_batch(Sess& session, std::span<const Put> xs,
                         std::uint32_t* results = nullptr,
                         std::uint64_t* attempts = nullptr) {
    WFL_DASSERT(&session.space() == &space_);
    using Op = PreparedOp<Plat>;
    BatchOutcome total;
    std::size_t done = 0;
    while (done < xs.size()) {
      const std::size_t n = std::min(kMaxBatchOps, xs.size() - done);
      alignas(Op) unsigned char raw[sizeof(Op) * kMaxBatchOps];
      Op* ops = reinterpret_cast<Op*>(raw);
      std::uint32_t fresh_nodes[kMaxBatchOps];
      for (std::size_t i = 0; i < n; ++i) {
        const Put& put_op = xs[done + i];
        const std::uint32_t b = bucket_of(put_op.key);
        const std::uint32_t fresh = pool_.alloc();
        fresh_nodes[i] = fresh;
        {
          Node& node = pool_.at(fresh);
          node.key = put_op.key;
          node.val.init(put_op.value);
          node.next.init(kMapNil);
          node.dead.init(0);
        }
        Cell<Plat>* res_ptr = &batch_result_of(session, i);
        const std::uint64_t key = put_op.key;
        const std::uint32_t value = put_op.value;
        const StaticLockSet<1> locks{b};
        ::new (static_cast<void*>(&ops[i]))
            Op(locks, [this, b, key, value, fresh, res_ptr](
                          IdemCtx<Plat>& m) {
              Cell<Plat>& head = *heads_[b];
              std::uint32_t len = 0;
              std::uint32_t cur = m.load(head);
              while (cur != kMapNil) {
                Node& node = pool_.at(cur);
                if (node.key == key) {
                  m.store(node.val, value);
                  m.store(*res_ptr, kMapExists);
                  return;
                }
                ++len;
                cur = m.load(node.next);
              }
              if (len >= kMaxChain) {
                m.store(*res_ptr, kMapFull);
                return;
              }
              Node& f = pool_.at(fresh);
              m.store(f.next, m.load(head));
              m.store(head, fresh);
              m.store(*res_ptr, kMapOk);
            });
      }
      total += backend_submit_batch<B>(
          session, std::span<const Op>(ops, n), Policy::retry());
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t r = batch_result_of(session, i).peek();
        if (r != kMapOk) pool_.free(fresh_nodes[i]);
        if (results != nullptr) results[done + i] = r;
      }
      done += n;
    }
    if (attempts != nullptr) *attempts += total.attempts;
    return total;
  }

  // Removes `key`. Returns kMapOk or kMapAbsent.
  std::uint32_t erase(Sess& session, std::uint64_t key,
                      std::uint64_t* attempts = nullptr) {
    WFL_DASSERT(&session.space() == &space_);
    const std::uint32_t b = bucket_of(key);
    Cell<Plat>& res = result_of(session);
    Cell<Plat>* res_ptr = &res;
    const StaticLockSet<1> locks{b};
    const Outcome o = B::submit(
        session, locks, [this, b, key, res_ptr](IdemCtx<Plat>& m) {
          Cell<Plat>* prev = heads_[b].get();
          std::uint32_t cur = m.load(*prev);
          while (cur != kMapNil) {
            Node& n = pool_.at(cur);
            if (n.key == key) {
              m.store(n.dead, 1);  // mark, then unlink (order documented)
              m.store(*prev, m.load(n.next));
              m.store(*res_ptr, kMapOk);
              return;
            }
            prev = &n.next;
            cur = m.load(n.next);
          }
          m.store(*res_ptr, kMapAbsent);
        },
        Policy::retry());
    if (attempts != nullptr) *attempts += o.attempts;
    const std::uint32_t r = res.peek();
    if (r == kMapOk) retired_.fetch_add(1, std::memory_order_relaxed);
    return r;
  }

  // Linearizable read: walks the chain under the bucket lock. Returns
  // kMapOk with *out filled, or kMapAbsent.
  std::uint32_t get_locked(Sess& session, std::uint64_t key,
                           std::uint32_t* out,
                           std::uint64_t* attempts = nullptr) {
    WFL_DASSERT(&session.space() == &space_);
    const std::uint32_t b = bucket_of(key);
    Cell<Plat>& res = result_of(session);
    Cell<Plat>& oval = out_val_of(session);
    Cell<Plat>* res_ptr = &res;
    Cell<Plat>* out_ptr = &oval;
    const StaticLockSet<1> locks{b};
    const Outcome o = B::submit(
        session, locks, [this, b, key, res_ptr, out_ptr](IdemCtx<Plat>& m) {
          std::uint32_t cur = m.load(*heads_[b]);
          while (cur != kMapNil) {
            Node& n = pool_.at(cur);
            if (n.key == key) {
              m.store(*out_ptr, m.load(n.val));
              m.store(*res_ptr, kMapOk);
              return;
            }
            cur = m.load(n.next);
          }
          m.store(*res_ptr, kMapAbsent);
        },
        Policy::retry());
    if (attempts != nullptr) *attempts += o.attempts;
    if (res.peek() == kMapOk) {
      *out = oval.peek();
      return kMapOk;
    }
    return kMapAbsent;
  }

  // Service-facing prepared ops (the open-loop bench / async_submit
  // path): fixed-key linearizable read and update-in-place over keys the
  // caller pre-populated. No node allocation and no per-process result
  // cell, so ONE client may hold arbitrarily many in flight (the async
  // executor's model — per-process cells would alias across concurrent
  // requests). Results land in a per-bucket sink cell: the serviced unit
  // of work is the locked chain walk, and the sink is written under the
  // same bucket lock, so it adds no cross-bucket contention.
  PreparedOp<Plat> prepared_get(std::uint64_t key) {
    const std::uint32_t b = bucket_of(key);
    Cell<Plat>* sink = sinks_[b].get();
    const StaticLockSet<1> locks{b};
    return PreparedOp<Plat>(
        locks, [this, b, key, sink](IdemCtx<Plat>& m) {
          std::uint32_t cur = m.load(*heads_[b]);
          while (cur != kMapNil) {
            Node& n = pool_.at(cur);
            if (n.key == key) {
              m.store(*sink, m.load(n.val));
              return;
            }
            cur = m.load(n.next);
          }
          m.store(*sink, kMapAbsent);
        });
  }

  PreparedOp<Plat> prepared_update(std::uint64_t key, std::uint32_t value) {
    const std::uint32_t b = bucket_of(key);
    Cell<Plat>* sink = sinks_[b].get();
    const StaticLockSet<1> locks{b};
    return PreparedOp<Plat>(
        locks, [this, b, key, value, sink](IdemCtx<Plat>& m) {
          std::uint32_t cur = m.load(*heads_[b]);
          while (cur != kMapNil) {
            Node& n = pool_.at(cur);
            if (n.key == key) {
              m.store(n.val, value);
              m.store(*sink, kMapOk);
              return;
            }
            cur = m.load(n.next);
          }
          m.store(*sink, kMapAbsent);
        });
  }

  // Weakly consistent unlocked probe (may race with unlinking).
  bool get(std::uint64_t key, std::uint32_t* out) const {
    std::uint32_t cur = heads_[bucket_of(key)]->load_direct();
    while (cur != kMapNil) {
      const Node& n = pool_.at(cur);
      if (n.key == key) {
        *out = n.val.load_direct();
        return true;
      }
      cur = n.next.load_direct();
    }
    return false;
  }

  // Atomically exchanges the values of k1 and k2 (both must exist).
  // Returns kMapOk or kMapAbsent. L = 2 when the keys hash to different
  // buckets — the experiment-grade multi-lock operation of this substrate.
  std::uint32_t swap(Sess& session, std::uint64_t k1, std::uint64_t k2,
                     std::uint64_t* attempts = nullptr) {
    WFL_DASSERT(&session.space() == &space_);
    const std::uint32_t b1 = bucket_of(k1);
    const std::uint32_t b2 = bucket_of(k2);
    Cell<Plat>& res = result_of(session);
    const StaticLockSet<2> locks{b1, b2};  // dedups when b1 == b2
    Cell<Plat>* res_ptr = &res;
    const Outcome o = B::submit(
        session, locks,
        [this, b1, b2, k1, k2, res_ptr](IdemCtx<Plat>& m) {
          const std::uint32_t n1 = find_in_chain(m, b1, k1);
          const std::uint32_t n2 = find_in_chain(m, b2, k2);
          if (n1 == kMapNil || n2 == kMapNil || n1 == n2) {
            m.store(*res_ptr, kMapAbsent);
            return;
          }
          Cell<Plat>& v1 = pool_.at(n1).val;
          Cell<Plat>& v2 = pool_.at(n2).val;
          const std::uint32_t a = m.load(v1);
          const std::uint32_t bval = m.load(v2);
          m.store(v1, bval);
          m.store(v2, a);
          m.store(*res_ptr, kMapOk);
        },
        Policy::retry());
    if (attempts != nullptr) *attempts += o.attempts;
    return res.peek();
  }

  std::uint32_t nbuckets() const { return nbuckets_; }

  // Quiescent-only: total live entries, with chain-shape audit.
  std::size_t size() const {
    std::size_t total = 0;
    for (std::uint32_t b = 0; b < nbuckets_; ++b) {
      std::uint32_t len = 0;
      std::uint32_t cur = heads_[b]->peek();
      while (cur != kMapNil) {
        const Node& n = pool_.at(cur);
        WFL_CHECK_MSG(n.dead.peek() == 0, "dead node still linked");
        WFL_CHECK_MSG(bucket_of(n.key) == b, "node in the wrong bucket");
        ++len;
        WFL_CHECK_MSG(len <= kMaxChain, "chain exceeds kMaxChain");
        cur = n.next.peek();
      }
      total += len;
    }
    return total;
  }

 private:
  struct Node {
    std::uint64_t key = 0;  // immutable once published
    Cell<Plat> val;
    Cell<Plat> next;
    Cell<Plat> dead;
  };

  std::uint32_t bucket_of(std::uint64_t key) const {
    // SplitMix64 finalizer: full-avalanche, cheap, deterministic.
    std::uint64_t x = key + 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return static_cast<std::uint32_t>((x ^ (x >> 31)) % nbuckets_);
  }

  // In-thunk chain search; every hop is an agreed instrumented load.
  std::uint32_t find_in_chain(IdemCtx<Plat>& m, std::uint32_t b,
                              std::uint64_t key) {
    std::uint32_t cur = m.load(*heads_[b]);
    while (cur != kMapNil) {
      Node& n = pool_.at(cur);
      if (n.key == key) return cur;
      cur = m.load(n.next);
    }
    return kMapNil;
  }

  // Each process owns one result cell and one out-value cell; thunks
  // capture the owner's cells by pointer (helpers then write the *owner's*
  // cells, which is the point — the owner reads them after the attempt).
  Cell<Plat>& result_of(Sess& session) {
    return *results_[static_cast<std::size_t>(session.pid())];
  }
  Cell<Plat>& out_val_of(Sess& session) {
    return *out_vals_[static_cast<std::size_t>(session.pid())];
  }
  // Per-(process, batch-slot) result cell for put_batch: stable storage,
  // lazily allocated the first time a process batches.
  Cell<Plat>& batch_result_of(Sess& session, std::size_t slot) {
    auto& row = batch_results_[static_cast<std::size_t>(session.pid())];
    if (row.empty()) {
      row.reserve(kMaxBatchOps);
      for (std::size_t i = 0; i < kMaxBatchOps; ++i) {
        row.push_back(std::make_unique<Cell<Plat>>(0u));
      }
    }
    return *row[slot];
  }

  Space& space_;
  std::uint32_t nbuckets_;
  IndexPool<Node> pool_;
  std::vector<std::unique_ptr<Cell<Plat>>> heads_;
  std::vector<std::unique_ptr<Cell<Plat>>> sinks_;  // per-bucket, prepared ops
  std::vector<std::unique_ptr<Cell<Plat>>> results_;
  std::vector<std::unique_ptr<Cell<Plat>>> out_vals_;
  std::vector<std::vector<std::unique_ptr<Cell<Plat>>>> batch_results_;
  std::atomic<std::uint64_t> retired_{0};
};

}  // namespace wfl
