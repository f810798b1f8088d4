// Machine-checked memory-ordering contracts for every weakened operation.
//
// The paper's model is sequentially consistent shared memory: every
// Plat::Atomic operation is seq_cst and counted as a step. The
// *infrastructure* outside the step model (reclamation, pools, queues,
// executor state — DESIGN.md substitution #2) runs on race::Atomic
// (check/race.hpp), whose every operation names one Site below. Most sites
// are weakened below seq_cst, each justified by a hand-written argument in
// DESIGN.md §4.4/§5.1/§6.1/§8; the rest are the seq_cst halves of the
// store-buffering (Dekker) protocols those arguments rest on. This header
// turns the arguments into data: one Site per operation, one Contract
// naming the *kind* of argument that makes its order sound, and a
// rationale string quoting it. race::Atomic reports the order each
// operation executed with, and the analysis engine checks it against the
// site's contract:
//
//   * strength contracts (kSeqCstOnly/kAcquireLoad/kReleaseStore/kAcqRelRmw/
//     kFutexSeq) check the memory_order of the operation that actually ran
//     — an edit (or a seeded mutation) that downgrades an order is
//     reported at its first occurrence. The Dekker protocols (the EBR
//     announce-then-verify, the Chase–Lev take/steal race, the executor's
//     sleep handshake) are kSeqCstOnly on every access: their either-or
//     argument is stated over the single total order S of seq_cst
//     operations, and the tree has no fences;
//   * kOrderedWrites documents that relaxed is sound only because every
//     pair of writes is ordered by some *other* synchronization (e.g. the
//     striped stats counters: every bump runs on the owning process);
//   * kAdvisory and kAtomicOnly document that the value is never trusted
//     for safety (claims, gauges) or that only RMW atomicity is load-
//     bearing (serial refill); no dynamic check beyond event logging.
//
// Atomics NOT on race::Atomic are intentionally unhooked plain
// std::atomic: pool segment-directory publication (serialized by grow()'s
// mutex, consumed with acquire loads), pool membership bits (a corruption
// check whose verdict needs only RMW atomicity), pure monotone gauges
// (freelist_ops, executor wake/park counters) and the shm table's session
// records. A hooked atomic operation that arrives with a weakened order
// and NO site is itself a finding ("undeclared weakening").
#pragma once

#include <cstdint>

namespace wfl::race {

enum class Site : std::uint8_t {
  kUnknown = 0,

  // --- EBR (mem/ebr.hpp, DESIGN.md §4.4) ---
  kEbrAnnounce,         // p.active seq_cst store (the publication point)
  kEbrEpochAnnounce,    // p.epoch seq_cst re-announce store
  kEbrVerifyLoad,       // global_epoch seq_cst load closing the window
  kEbrEpochSelfLoad,    // own epoch word, relaxed (single-writer)
  kEbrExit,             // p.active release store (guard exit)
  kEbrAbandon,          // p.active seq_cst store (crash harness)
  kEbrRetireEpochLoad,  // global_epoch seq_cst load in retire()
  kEbrCollectEpochLoad, // global_epoch seq_cst load in collect()/free
  kEbrScanActive,       // participant scan: active seq_cst load
  kEbrScanEpoch,        // participant scan: epoch seq_cst load
  kEbrEpochAdvanceCas,  // global_epoch seq_cst CAS (one advance per value)
  kEbrParticipantCount, // next_participant_ counter (register + scan bound)

  // --- IndexPool (mem/arena.hpp) ---
  kPoolHeadLoad,        // freelist head acquire load
  kPoolHeadCas,         // freelist head acq_rel CAS (pop/push)
  kPoolNextLoad,        // next-link relaxed load (valid-or-null)
  kPoolNextStore,       // next-link relaxed store (pre-CAS linking)

  // --- Descriptor bookkeeping (core/descriptor.hpp, core/lock_table.hpp) ---
  kHelpClaimLoad,       // help_claim relaxed load (DESIGN.md §5.2)
  kHelpClaimStore,      // help_claim relaxed store (take/revoke)
  kHelpClaimRelease,    // help_claim relaxed CAS (release own claim)
  kClaimSkipsBump,      // claim_skips relaxed fetch_add (patience)
  kClaimSkipsReset,     // claim_skips relaxed store

  // --- Per-process hot state (core/process.hpp) ---
  kStatsBump,           // StatsSlab relaxed load-then-store (single writer)
  kSerialRefill,        // serial high-water relaxed fetch_add
  kFastReadyLoad,       // fast_ready relaxed load (cooldown flag)
  kFastReadyStore,      // fast_ready relaxed store

  // --- Thin-word fast path (core/lock_table.hpp, DESIGN.md §5.1) ---
  kThinPublish,         // publish CAS 0 -> (pid, serial); must stay seq_cst
  kThinRelease,         // release CAS/store back to 0

  // --- Wake plumbing (platforms, core/lock_table.hpp) ---
  kWakeSeq,             // Wake sequence word (acquire/release)
  kWakeSinkInstall,     // wake_sink_ release store
  kWakeSinkLoad,        // wake_sink_ acquire load (hot-path null check)

  // --- Async executor (core/async_executor.hpp, DESIGN.md §6.1) ---
  kAsyncStateCas,       // AsyncOp state acq_rel CAS (park/wake/signal)
  kAsyncStateStore,     // AsyncOp state release store (begin cycle/retry)
  kAsyncStateLoad,      // AsyncOp state acquire load
  kAsyncRefsDrop,       // AsyncOp refs acq_rel fetch_sub (last deletes)
  kAsyncClientLive,     // client live flag release store / acquire load
  kAsyncInlineLatch,    // inline_busy_ acquire CAS / release store
  kAsyncInFlight,       // in_flight_ acquire load / acq_rel sub (shutdown)

  // --- Lock-free work queue (util/work_queue.hpp, DESIGN.md §8) ---
  kWqTopLoad,           // top acquire load (push, size estimate)
  kWqTopDekkerLoad,     // take's and steal's seq_cst top load
  kWqTopCas,            // top seq_cst CAS (steal vs. take on one element)
  kWqBottomOwnLoad,     // owner's own bottom read (single-writer word)
  kWqBottomPublish,     // push's bottom release store (publishes the slot)
  kWqBottomReserve,     // take's speculative decrement (seq_cst)
  kWqBottomRestore,     // take's undo of the reservation
  kWqBottomStealLoad,   // steal's bottom seq_cst load
  kWqRingPublish,       // grow's ring-pointer release store
  kWqRingLoad,          // ring-pointer acquire load
  kWqSlot,              // ring slot store/load (valid-or-discarded)
  kInjPushCas,          // injector head push CAS (Dekker vs. worker sleep)
  kInjTakeAll,          // injector head take-all exchange (consumer side)
  kInjPeek,             // injector head emptiness probe (sleep recheck)
  kInjNext,             // injector next link (private until the push CAS)
  kWkrState,            // worker idle-state word (awake/idle/signalled)

  // --- Annotated plain-memory regions (FastTrack-style epochs) ---
  kDescPlain,           // descriptor line group A: owner-written, helper-read
  kFrozenSnaps,         // §6.2 frozen snapshots: published by priority reveal
  kSlotCacheBatch,      // SlotCache slot array (single owner)
  kFiberStack,          // fiber stack re-arm (pool reuse)
  kAsyncOutcome,        // AsyncOp outcome fields (runner-written, ticket-read)

  // --- Platform surface (intrinsic checks; listed for reporting) ---
  kAtomicInit,          // Plat::Atomic::init — construction-only
  kAtomicPeek,          // Plat::Atomic::peek — quiescent debug read

  kSiteCount,
};

enum class Contract : std::uint8_t {
  kSeqCstOnly,     // the paper's step model: nothing below seq_cst is sound
  kAcquireLoad,    // load must be >= acquire (consumes a publication)
  kReleaseStore,   // store must be >= release (publishes preceding work)
  kAcqRelRmw,      // RMW must be >= acq_rel (link in a hand-off chain)
  kFutexSeq,       // one-way hand-off word: writes/RMWs publish (>= release),
                   // loads consume (>= acquire); the RMW never reads payload
  kOrderedWrites,  // relaxed ok; all writes must be pairwise HB-ordered
  kAdvisory,       // value is a hint; correctness never depends on it
  kAtomicOnly,     // RMW atomicity load-bearing, ordering is not
  kInitOnly,       // construction-only: location must be quiescent
  kQuiescentRead,  // debug read: no unordered writer may exist
};

struct SiteInfo {
  Site site;
  const char* name;
  Contract contract;
  const char* why;
};

// Indexed by Site value; keep in enum order (verified by site_info()).
inline constexpr SiteInfo kSiteTable[] = {
    {Site::kUnknown, "unknown", Contract::kSeqCstOnly,
     "unannotated operations carry the paper's full seq_cst obligation"},

    {Site::kEbrAnnounce, "ebr.announce", Contract::kSeqCstOnly,
     "the publication point: precedes the verify load in S, so either the "
     "advancer's scan sees it or the verify load sees the advance"},
    {Site::kEbrEpochAnnounce, "ebr.epoch_announce", Contract::kSeqCstOnly,
     "same either-or; a stale value conservatively blocks advancement"},
    {Site::kEbrVerifyLoad, "ebr.verify_load", Contract::kSeqCstOnly,
     "the announce's partner in S: closes the either-or window"},
    {Site::kEbrEpochSelfLoad, "ebr.epoch_self_load", Contract::kAdvisory,
     "own single-writer word; skip-reannounce fast path only"},
    {Site::kEbrExit, "ebr.exit", Contract::kReleaseStore,
     "publishes the guard's critical-section reads to the collector scan"},
    {Site::kEbrAbandon, "ebr.abandon", Contract::kSeqCstOnly,
     "crash path keeps the strongest order; not performance sensitive"},
    {Site::kEbrRetireEpochLoad, "ebr.retire_epoch_load",
     Contract::kSeqCstOnly, "bucket epoch must not run ahead of the scan"},
    {Site::kEbrCollectEpochLoad, "ebr.collect_epoch_load",
     Contract::kSeqCstOnly, "grace arithmetic relies on the advance chain"},
    {Site::kEbrScanActive, "ebr.scan_active", Contract::kSeqCstOnly,
     "observing exit's release store closes the grace period"},
    {Site::kEbrScanEpoch, "ebr.scan_epoch", Contract::kSeqCstOnly,
     "paired with scan_active; the announced epoch must be visible"},
    {Site::kEbrEpochAdvanceCas, "ebr.epoch_advance_cas",
     Contract::kSeqCstOnly, "advance chain carries every scanner's reads"},
    {Site::kEbrParticipantCount, "ebr.participant_count",
     Contract::kAtomicOnly,
     "gates iteration over construction-time participant slots"},

    {Site::kPoolHeadLoad, "pool.head_load", Contract::kAcquireLoad,
     "pairs with the pushing CAS: slot payload visible before reuse"},
    {Site::kPoolHeadCas, "pool.head_cas", Contract::kAcqRelRmw,
     "the hand-off edge of the freelist; tag increment kills ABA"},
    {Site::kPoolNextLoad, "pool.next_load", Contract::kAdvisory,
     "valid-or-null: a stale link loses the CAS, never derefs garbage"},
    {Site::kPoolNextStore, "pool.next_store", Contract::kAdvisory,
     "private until the head CAS publishes the chain"},

    {Site::kHelpClaimLoad, "desc.help_claim_load", Contract::kAdvisory,
     "claim is revocable; correctness never depends on who holds it"},
    {Site::kHelpClaimStore, "desc.help_claim_store", Contract::kAdvisory,
     "last-writer-wins is fine for an advisory claim"},
    {Site::kHelpClaimRelease, "desc.help_claim_release", Contract::kAdvisory,
     "failed release means someone revoked us; equally fine"},
    {Site::kClaimSkipsBump, "desc.claim_skips_bump", Contract::kAdvisory,
     "patience counter; bounded staleness only delays, never wedges"},
    {Site::kClaimSkipsReset, "desc.claim_skips_reset", Contract::kAdvisory,
     "reset races with bumps by design; bounded patience still holds"},

    {Site::kStatsBump, "proc.stats_bump", Contract::kOrderedWrites,
     "unsynchronized load-then-store is exact iff the slab has one writer; "
     "checked: all writes to a counter must be pairwise HB-ordered"},
    {Site::kSerialRefill, "proc.serial_refill", Contract::kAtomicOnly,
     "block handout needs uniqueness (RMW atomicity), not ordering"},
    {Site::kFastReadyLoad, "proc.fast_ready_load", Contract::kAdvisory,
     "cooldown gate; a stale read only routes to the slower path"},
    {Site::kFastReadyStore, "proc.fast_ready_store", Contract::kAdvisory,
     "flipped by the owner or its own EBR deleter; monotone per cycle"},

    {Site::kThinPublish, "thin.publish", Contract::kSeqCstOnly,
     "Dekker vs. the slow path's set insert (DESIGN.md §5.1): publish "
     "before reading the set, insert before probing the word"},
    {Site::kThinRelease, "thin.release", Contract::kSeqCstOnly,
     "failure detection (observed bit) gates descriptor reuse"},

    {Site::kWakeSeq, "wake.seq", Contract::kFutexSeq,
     "post's release RMW publishes work; prepare/wait's acquire loads "
     "consume it (futex shape — post never reads the protected payload)"},
    {Site::kWakeSinkInstall, "table.wake_sink_install",
     Contract::kReleaseStore, "sink vtable/state visible before any event"},
    {Site::kWakeSinkLoad, "table.wake_sink_load", Contract::kAcquireLoad,
     "one acquire load on the hot path when no sink is installed"},

    {Site::kAsyncStateCas, "async.state_cas", Contract::kAcqRelRmw,
     "park/wake/signal transitions hand the op between threads"},
    {Site::kAsyncStateStore, "async.state_store", Contract::kReleaseStore,
     "cycle start publishes the op's fields to release-event CASers"},
    {Site::kAsyncStateLoad, "async.state_load", Contract::kAcquireLoad,
     "done() consumers read the Outcome the completer published"},
    {Site::kAsyncRefsDrop, "async.refs_drop", Contract::kAcqRelRmw,
     "last unref deletes; both sides' accesses must be ordered"},
    {Site::kAsyncClientLive, "async.client_live", Contract::kReleaseStore,
     "crash() publishes; workers acquire-load before touching the session"},
    {Site::kAsyncInlineLatch, "async.inline_latch", Contract::kAdvisory,
     "a lock, not an RMW site: acquire-CAS take / release-store give; "
     "clock transfer is modeled through the engine's mutex events"},
    {Site::kAsyncInFlight, "async.in_flight", Contract::kAcqRelRmw,
     "shutdown's drain loop joins every completer's final writes"},

    {Site::kWqTopLoad, "wq.top_load", Contract::kAcquireLoad,
     "joins the last successful top CAS: slots at or past top are the "
     "thieves'; anything older is settled before we size the deque"},
    {Site::kWqTopDekkerLoad, "wq.top_dekker_load", Contract::kSeqCstOnly,
     "take reads top after its seq_cst reservation, steal reads it before "
     "its seq_cst bottom load: in S one of them sees the other, or both "
     "would claim the last element (DESIGN.md §8.1)"},
    {Site::kWqTopCas, "wq.top_cas", Contract::kSeqCstOnly,
     "the linearization point of steal/take-last: both racers CAS the same "
     "top value and exactly one wins; seq_cst closes the Dekker with the "
     "owner's bottom reservation (Lê et al. 2013, DESIGN.md §8)"},
    {Site::kWqBottomOwnLoad, "wq.bottom_own_load", Contract::kAdvisory,
     "the owner is bottom's only writer; its own read needs no ordering"},
    {Site::kWqBottomPublish, "wq.bottom_publish", Contract::kReleaseStore,
     "push's bottom bump publishes the slot write to steal's acquire load"},
    {Site::kWqBottomReserve, "wq.bottom_reserve", Contract::kSeqCstOnly,
     "the owner half of the take/steal Dekker: the reservation precedes "
     "take's top load in S"},
    {Site::kWqBottomRestore, "wq.bottom_restore", Contract::kAdvisory,
     "puts back a bottom at or below top; it publishes no slot, so a "
     "thief that reads it finds the deque empty or loses the top CAS"},
    {Site::kWqBottomStealLoad, "wq.bottom_steal_load", Contract::kSeqCstOnly,
     "the thief half of the Dekker, after its top load in S; as an "
     "acquire it also consumes push's release bump, so the slot is "
     "visible before it is read"},
    {Site::kWqRingPublish, "wq.ring_publish", Contract::kReleaseStore,
     "grow() publishes the copied ring before thieves can dereference it"},
    {Site::kWqRingLoad, "wq.ring_load", Contract::kAcquireLoad,
     "pairs with wq.ring_publish; old rings stay mapped until destruction, "
     "so a stale pointer still reads valid (if superseded) slots"},
    {Site::kWqSlot, "wq.slot", Contract::kAdvisory,
     "valid-or-discarded: a slot read is only trusted after the top CAS "
     "wins; a torn-or-stale value loses the CAS and is dropped"},
    {Site::kInjPushCas, "inj.push_cas", Contract::kSeqCstOnly,
     "producer side of the sleep Dekker: push-then-read-worker-state must "
     "not reorder against the worker's set-idle-then-probe (DESIGN.md §8)"},
    {Site::kInjTakeAll, "inj.take_all", Contract::kAcqRelRmw,
     "the exchange(nullptr) batch take — inline pop() or a worker's "
     "drain_all(): acquire joins every producer's release, release "
     "continues the hand-off chain; rival exchanges get disjoint chains"},
    {Site::kInjPeek, "inj.peek", Contract::kSeqCstOnly,
     "worker side of the sleep Dekker: the pre-sleep probe of the shared "
     "head must order after the set-idle store, or a push could be missed "
     "forever"},
    {Site::kInjNext, "inj.next", Contract::kAdvisory,
     "private until the head CAS publishes the node; the consumer reads it "
     "only after its exchange's acquire joined that publication"},
    {Site::kWkrState, "async.worker_state", Contract::kSeqCstOnly,
     "the wake-coalescing word: producer push + all-idle scan + CAS "
     "idle->signalled vs. worker store idle + injector probe is a "
     "store-buffering pattern; any weakening legalizes the lost-wake "
     "interleaving (DESIGN.md §8)"},

    {Site::kDescPlain, "desc.plain_fields", Contract::kOrderedWrites,
     "line group A: owner-written before publication, helper-read after "
     "observing the publication (set insert or thin word)"},
    {Site::kFrozenSnaps, "desc.frozen_snaps", Contract::kOrderedWrites,
     "kUnknownBounds: owner-written between the TBD and the priority "
     "reveal, read only by competitions of a revealed descriptor"},
    {Site::kSlotCacheBatch, "pool.slot_cache", Contract::kOrderedWrites,
     "single-owner by construction (arena.hpp); deleters run on the owner"},
    {Site::kFiberStack, "fiber.stack", Contract::kOrderedWrites,
     "re-armed only when finished; pool hand-off via the pool mutex"},
    {Site::kAsyncOutcome, "async.outcome", Contract::kOrderedWrites,
     "runner-written before the kDone transition; ticket reads after"},

    {Site::kAtomicInit, "plat.atomic_init", Contract::kInitOnly,
     "relaxed store legal only while the location is quiescent"},
    {Site::kAtomicPeek, "plat.atomic_peek", Contract::kQuiescentRead,
     "relaxed debug read legal only with no unordered concurrent writer"},
};

static_assert(sizeof(kSiteTable) / sizeof(kSiteTable[0]) ==
                  static_cast<std::size_t>(Site::kSiteCount),
              "kSiteTable must have exactly one row per Site");

inline const SiteInfo& site_info(Site s) {
  const auto i = static_cast<std::size_t>(s);
  return kSiteTable[i < static_cast<std::size_t>(Site::kSiteCount) ? i : 0];
}

}  // namespace wfl::race
