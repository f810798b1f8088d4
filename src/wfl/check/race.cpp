// Implementation of the vector-clock race & ordering-audit engine.
// Model documented in race.hpp; contracts in ordering_contracts.hpp;
// narrative in DESIGN.md §7.

#include "wfl/check/race.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "wfl/sim/sim.hpp"
#include "wfl/util/assert.hpp"

namespace wfl::race {
namespace {

constexpr std::size_t kMaxFindings = 256;
constexpr std::size_t kTraceCap = 1024;

bool is_acquire(std::memory_order o) {
  return o == std::memory_order_acquire || o == std::memory_order_consume ||
         o == std::memory_order_acq_rel || o == std::memory_order_seq_cst;
}
bool is_release(std::memory_order o) {
  return o == std::memory_order_release || o == std::memory_order_acq_rel ||
         o == std::memory_order_seq_cst;
}
bool is_seq(std::memory_order o) { return o == std::memory_order_seq_cst; }

bool is_load_class(Op op) {
  return op == Op::kLoad || op == Op::kPeek || op == Op::kCasFail;
}
bool is_rmw_class(Op op) {
  return op == Op::kCasOk || op == Op::kExchange || op == Op::kFetchAdd ||
         op == Op::kFetchSub;
}

const char* op_name(Op op) {
  switch (op) {
    case Op::kLoad: return "load";
    case Op::kStore: return "store";
    case Op::kCasOk: return "cas(ok)";
    case Op::kCasFail: return "cas(fail)";
    case Op::kExchange: return "exchange";
    case Op::kFetchAdd: return "fetch_add";
    case Op::kFetchSub: return "fetch_sub";
    case Op::kInit: return "init";
    case Op::kPeek: return "peek";
  }
  return "?";
}

const char* ord_name(std::memory_order o) {
  switch (o) {
    case std::memory_order_relaxed: return "relaxed";
    case std::memory_order_consume: return "consume";
    case std::memory_order_acquire: return "acquire";
    case std::memory_order_release: return "release";
    case std::memory_order_acq_rel: return "acq_rel";
    case std::memory_order_seq_cst: return "seq_cst";
  }
  return "?";
}

// Sparse-friendly vector clock over process slots (slot 0 = the main
// setup/teardown context; simulator pid p lives at slot p + 1).
struct VC {
  std::vector<std::uint64_t> v;

  std::uint64_t at(std::size_t i) const { return i < v.size() ? v[i] : 0; }
  void set(std::size_t i, std::uint64_t x) {
    if (v.size() <= i) v.resize(i + 1, 0);
    v[i] = x;
  }
  void join(const VC& o) {
    if (v.size() < o.v.size()) v.resize(o.v.size(), 0);
    for (std::size_t i = 0; i < o.v.size(); ++i) v[i] = std::max(v[i], o.v[i]);
  }
  void clear() { v.clear(); }
};

struct PerProc {
  VC clock;
  Site pending_tag = Site::kUnknown;
};

// Shadow + clock state for one atomic word.
struct LocState {
  VC sync;      // what an acquire of this word's value synchronizes with
  VC write_vc;  // write_vc[q] = q's self-component at q's last write
  VC access_vc; // any hooked access (for init-quiescence)
  std::vector<std::uint64_t> write_slot;   // sim slot of last write, per proc
  std::vector<std::uint64_t> access_slot;  // sim slot of last access, per proc
  std::uint64_t shadow = 0;
  bool has_shadow = false;
  bool poisoned = false;  // touched by a foreign OS thread; checks disabled
};

// FastTrack-style state for one annotated plain region (keyed by base).
struct RegionState {
  VC write_vc;
  VC read_vc;
  std::vector<std::uint64_t> write_slot;
  std::vector<std::uint64_t> read_slot;
  Site site = Site::kUnknown;
  bool poisoned = false;
};

enum class Ev : std::uint8_t {
  kAtomic,
  kPlainRead,
  kPlainWrite,
  kMutexAcq,
  kMutexRel,
  kBoundary,
};

struct TraceEvent {
  Ev ev;
  Op op;
  Site site;
  std::memory_order order;
  int pid;  // simulator pid, or -1 for the setup context
  std::uint64_t sim_slot;
  const void* addr;
  std::uint64_t val;
};

void stamp(VC& vc, std::vector<std::uint64_t>& slots, std::size_t p,
           std::uint64_t self, std::uint64_t sim_slot) {
  vc.set(p, self);
  if (slots.size() <= p) slots.resize(p + 1, 0);
  slots[p] = sim_slot;
}

}  // namespace

struct RaceEngine::Impl {
  std::mutex mu;
  std::thread::id owner = std::this_thread::get_id();

  std::vector<PerProc> procs;
  std::unordered_map<const void*, LocState> locs;
  std::unordered_map<const void*, RegionState> regions;
  std::unordered_map<const void*, VC> mutexes;
  VC sc;     // global seq_cst clock
  VC base;   // joined clock at the last run boundary (seeds new procs)

  Mutation mutation;
  std::vector<Finding> findings;
  std::unordered_set<std::string> finding_keys;  // dedup (kind|site|addr)
  std::uint64_t suppressed = 0;
  std::uint64_t events = 0;
  std::uint64_t foreign = 0;
  std::uint64_t seed = 0;
  bool in_run = false;

  std::array<TraceEvent, kTraceCap> trace{};
  std::size_t trace_n = 0;

  // ---- helpers ----

  struct Ctx {
    std::size_t p;         // process slot
    int pid;               // simulator pid or -1
    std::uint64_t slot;    // simulator slot counter (0 outside a run)
  };

  Ctx ctx() const {
    Simulator* sim = Simulator::current();
    const int pid = sim != nullptr ? sim->current_pid() : -1;
    return Ctx{static_cast<std::size_t>(pid + 1), pid,
               sim != nullptr ? sim->slots_used() : 0};
  }

  PerProc& proc(std::size_t p) {
    while (procs.size() <= p) {
      procs.emplace_back();
      procs.back().clock = base;
    }
    return procs[p];
  }

  void push_trace(const TraceEvent& e) {
    trace[trace_n % kTraceCap] = e;
    ++trace_n;
  }

  std::memory_order effective(Site site, std::memory_order declared) const {
    if (mutation.kind == Mutation::Kind::kDowngradeOrder &&
        site == mutation.site) {
      return mutation.order;
    }
    return declared;
  }

  void add_finding(const char* kind, Site site, const void* addr,
                   std::string msg) {
    // Only report from inside a simulator run: setup/teardown and RealPlat
    // test phases in the same binary update state silently. Deduplicate by
    // (kind, site, addr) so a mutated model doesn't flood the report.
    if (!in_run) return;
    std::ostringstream key;
    key << kind << '|' << static_cast<int>(site) << '|' << addr;
    if (!finding_keys.insert(key.str()).second ||
        findings.size() >= kMaxFindings) {
      ++suppressed;
      return;
    }
    findings.push_back(Finding{kind, site, addr, std::move(msg)});
  }

  std::string who(std::size_t p) const {
    if (p == 0) return "setup";
    return "pid " + std::to_string(static_cast<int>(p) - 1);
  }

  std::string repro(const Ctx& c) const {
    std::ostringstream os;
    os << " [reproducer: seed=" << seed << " slot=" << c.slot << " by "
       << who(c.p) << "]";
    return os.str();
  }

  void check_contract(const Ctx& c, Op op, std::memory_order eff, Site site) {
    const SiteInfo& si = site_info(site);
    const char* need = nullptr;
    switch (si.contract) {
      case Contract::kSeqCstOnly:
        if (!is_seq(eff)) need = "seq_cst";
        break;
      case Contract::kAcquireLoad:
        if (is_load_class(op) && !is_acquire(eff)) need = ">=acquire";
        break;
      case Contract::kReleaseStore:
        if ((op == Op::kStore || is_rmw_class(op)) && !is_release(eff)) {
          need = ">=release";
        }
        break;
      case Contract::kAcqRelRmw:
        if (is_rmw_class(op) && !(is_acquire(eff) && is_release(eff))) {
          need = "acq_rel";
        } else if (is_load_class(op) && !is_acquire(eff)) {
          need = ">=acquire";
        } else if (op == Op::kStore && !is_release(eff)) {
          need = ">=release";
        }
        break;
      case Contract::kFutexSeq:
        if ((op == Op::kStore || is_rmw_class(op)) && !is_release(eff)) {
          need = ">=release";
        } else if (is_load_class(op) && !is_acquire(eff)) {
          need = ">=acquire";
        }
        break;
      default:
        break;
    }
    if (site == Site::kUnknown && !is_seq(eff) && op != Op::kInit &&
        op != Op::kPeek) {
      need = "seq_cst (undeclared site)";
    }
    if (need != nullptr) {
      std::ostringstream os;
      os << "ordering contract violated at " << si.name << ": " << op_name(op)
         << " ran with " << ord_name(eff) << ", contract requires " << need
         << " (" << si.why << ")" << repro(c);
      add_finding("contract", site, nullptr, os.str());
    }
  }

  void seq_join(PerProc& pp) {
    pp.clock.join(sc);
    sc.join(pp.clock);
  }

  // ---- event handlers (mu held, owner thread) ----

  void on_atomic(const void* addr, Op op, std::memory_order declared,
                 Site site, std::uint64_t val) {
    ++events;
    Ctx c = ctx();
    PerProc& pp = proc(c.p);
    if (site == Site::kUnknown && pp.pending_tag != Site::kUnknown) {
      site = pp.pending_tag;
    }
    pp.pending_tag = Site::kUnknown;
    const std::memory_order eff = effective(site, declared);
    pp.clock.set(c.p, pp.clock.at(c.p) + 1);
    check_contract(c, op, eff, site);

    LocState& loc = locs[addr];
    push_trace(TraceEvent{Ev::kAtomic, op, site, eff, c.pid, c.slot, addr,
                          val});
    if (loc.poisoned) return;

    // Shadow-value consistency: a hooked read must observe the last hooked
    // write. A mismatch means an out-of-band (unannotated) write happened.
    if (is_load_class(op)) {
      if (loc.has_shadow && loc.shadow != val) {
        std::ostringstream os;
        os << "shadow mismatch at " << site_info(site).name << ": "
           << op_name(op) << " observed 0x" << std::hex << val
           << " but the last instrumented write stored 0x" << loc.shadow
           << std::dec
           << " — an un-instrumented write bypassed the platform hooks"
           << repro(c);
        add_finding("shadow", site, addr, os.str());
      }
      loc.shadow = val;  // resync so one rogue write reports once
      loc.has_shadow = true;
    } else {
      loc.shadow = val;
      loc.has_shadow = true;
    }

    if (op == Op::kInit) {
      // Construction-only: every prior access (any process) must be ordered
      // before this init.
      for (std::size_t q = 0; q < loc.access_vc.v.size(); ++q) {
        if (q == c.p) continue;
        if (loc.access_vc.at(q) > pp.clock.at(q)) {
          std::ostringstream os;
          os << "init() on a non-quiescent atomic: last access by " << who(q)
             << " @ slot "
             << (q < loc.access_slot.size() ? loc.access_slot[q] : 0)
             << " is not ordered before this init ("
             << site_info(Site::kAtomicInit).why << ")" << repro(c);
          add_finding("init-race", Site::kAtomicInit, addr, os.str());
          break;
        }
      }
      loc.sync.clear();  // a relaxed init breaks any prior release sequence
    } else if (op == Op::kPeek) {
      for (std::size_t q = 0; q < loc.write_vc.v.size(); ++q) {
        if (q == c.p) continue;
        if (loc.write_vc.at(q) > pp.clock.at(q)) {
          std::ostringstream os;
          os << "peek() with a concurrent writer: last write by " << who(q)
             << " @ slot "
             << (q < loc.write_slot.size() ? loc.write_slot[q] : 0)
             << " is not ordered before this relaxed debug read ("
             << site_info(Site::kAtomicPeek).why << ")" << repro(c);
          add_finding("peek-race", Site::kAtomicPeek, addr, os.str());
          break;
        }
      }
    }

    // Clock flow per the declared-order model (race.hpp header comment).
    if ((is_load_class(op) || is_rmw_class(op)) && is_acquire(eff)) {
      pp.clock.join(loc.sync);
    }
    if (op == Op::kStore) {
      if (is_release(eff)) {
        loc.sync = pp.clock;
      } else {
        loc.sync.clear();
      }
    }
    // RMWs continue the release sequence: the prior sync survives; a
    // release-class RMW additionally publishes this process.
    if (is_rmw_class(op) && is_release(eff)) loc.sync.join(pp.clock);
    if (is_seq(eff)) seq_join(pp);

    const std::uint64_t self = pp.clock.at(c.p);
    stamp(loc.access_vc, loc.access_slot, c.p, self, c.slot);
    if (op == Op::kStore || op == Op::kInit || is_rmw_class(op)) {
      stamp(loc.write_vc, loc.write_slot, c.p, self, c.slot);
    }
  }

  void on_plain(const void* region, bool is_write, Site site) {
    ++events;
    Ctx c = ctx();
    PerProc& pp = proc(c.p);
    pp.clock.set(c.p, pp.clock.at(c.p) + 1);
    RegionState& r = regions[region];
    r.site = site;
    push_trace(TraceEvent{is_write ? Ev::kPlainWrite : Ev::kPlainRead,
                          Op::kStore, site, std::memory_order_relaxed, c.pid,
                          c.slot, region, 0});
    if (r.poisoned) return;

    auto conflict = [&](const VC& vc, const std::vector<std::uint64_t>& slots,
                        const char* prior_kind) {
      for (std::size_t q = 0; q < vc.v.size(); ++q) {
        if (q == c.p) continue;
        if (vc.at(q) > pp.clock.at(q)) {
          std::ostringstream os;
          os << "plain-memory race on region " << site_info(site).name
             << " @ " << region << ": " << prior_kind << " by " << who(q)
             << " @ slot " << (q < slots.size() ? slots[q] : 0)
             << " is not happens-before ordered with this "
             << (is_write ? "write" : "read") << " (" << site_info(site).why
             << ")" << repro(c);
          add_finding("plain-race", site, region, os.str());
          return;
        }
      }
    };
    if (is_write) {
      conflict(r.write_vc, r.write_slot, "write");
      conflict(r.read_vc, r.read_slot, "read");
      stamp(r.write_vc, r.write_slot, c.p, pp.clock.at(c.p), c.slot);
    } else {
      conflict(r.write_vc, r.write_slot, "write");
      stamp(r.read_vc, r.read_slot, c.p, pp.clock.at(c.p), c.slot);
    }
  }

  void on_lifetime(const void* addr, bool created_now, std::uint64_t val) {
    ++events;
    if (created_now) {
      Ctx c = ctx();
      PerProc& pp = proc(c.p);
      LocState fresh;
      fresh.shadow = val;
      fresh.has_shadow = true;
      stamp(fresh.access_vc, fresh.access_slot, c.p, pp.clock.at(c.p),
            c.slot);
      locs[addr] = std::move(fresh);
    } else {
      // Retire both interpretations of the address: a freed atomic's slab
      // slot or a freed region's storage may be heap-reused with no
      // happens-before edge to its previous life.
      locs.erase(addr);
      regions.erase(addr);
    }
  }

  void on_mutex(const void* mtx, bool acquire) {
    ++events;
    Ctx c = ctx();
    PerProc& pp = proc(c.p);
    pp.clock.set(c.p, pp.clock.at(c.p) + 1);
    VC& m = mutexes[mtx];
    if (acquire) {
      pp.clock.join(m);
    } else {
      m.join(pp.clock);
    }
    push_trace(TraceEvent{acquire ? Ev::kMutexAcq : Ev::kMutexRel, Op::kLoad,
                          Site::kUnknown, std::memory_order_seq_cst, c.pid,
                          c.slot, mtx, 0});
  }

  void on_boundary(bool entering, std::uint64_t s) {
    ++events;
    seed = s;
    in_run = entering;
    VC all = sc;
    for (PerProc& pp : procs) all.join(pp.clock);
    for (PerProc& pp : procs) {
      pp.clock = all;
      pp.pending_tag = Site::kUnknown;
    }
    sc = all;
    base = all;
    push_trace(TraceEvent{Ev::kBoundary, Op::kLoad, Site::kUnknown,
                          std::memory_order_seq_cst, -1, 0, nullptr,
                          std::uint64_t{entering}});
  }

  void poison(const void* addr, bool plain_region) {
    ++foreign;
    if (plain_region) {
      regions[addr].poisoned = true;
    } else {
      locs[addr].poisoned = true;
    }
  }
};

RaceEngine::RaceEngine() : impl_(std::make_unique<Impl>()) {}

RaceEngine::~RaceEngine() { uninstall(); }

void RaceEngine::install() {
  RaceEngine* expected = nullptr;
  const bool ok = g_engine.compare_exchange_strong(
      expected, this, std::memory_order_seq_cst);
  WFL_CHECK_MSG(ok, "race::RaceEngine: another engine is already installed");
}

void RaceEngine::uninstall() {
  RaceEngine* expected = this;
  g_engine.compare_exchange_strong(expected, nullptr,
                                   std::memory_order_seq_cst);
}

void RaceEngine::set_mutation(Mutation m) {
  std::lock_guard<std::mutex> g(impl_->mu);
  impl_->mutation = m;
}

const std::vector<Finding>& RaceEngine::findings() const {
  return impl_->findings;
}

void RaceEngine::clear_findings() {
  std::lock_guard<std::mutex> g(impl_->mu);
  impl_->findings.clear();
  impl_->finding_keys.clear();
  impl_->suppressed = 0;
}

std::uint64_t RaceEngine::events() const { return impl_->events; }
std::uint64_t RaceEngine::foreign_events() const { return impl_->foreign; }
std::uint64_t RaceEngine::last_seed() const { return impl_->seed; }

RaceEngine::AtomicEvent RaceEngine::last_atomic() const {
  std::lock_guard<std::mutex> g(impl_->mu);
  const TraceEvent& e = impl_->trace[(impl_->trace_n - 1) % kTraceCap];
  WFL_CHECK_MSG(impl_->trace_n > 0 && e.ev == Ev::kAtomic,
                "race::RaceEngine: the last event is not an atomic operation");
  return {e.addr, e.op, e.order, e.site, e.val};
}

void RaceEngine::report(std::ostream& os) const {
  std::lock_guard<std::mutex> g(impl_->mu);
  os << "[wfl-race] " << impl_->findings.size() << " finding(s), "
     << impl_->suppressed << " duplicate(s) suppressed, " << impl_->events
     << " events\n";
  std::size_t n = 0;
  for (const Finding& f : impl_->findings) {
    os << "[wfl-race] #" << ++n << " (" << f.kind << ") " << f.message
       << "\n";
    if (f.addr == nullptr) continue;
    // Shrunk trace: the tail of the event ring filtered to this address.
    const std::size_t total = std::min(impl_->trace_n, kTraceCap);
    const std::size_t start = impl_->trace_n - total;
    std::size_t shown = 0;
    for (std::size_t i = start; i < impl_->trace_n && shown < 16; ++i) {
      const TraceEvent& e = impl_->trace[i % kTraceCap];
      if (e.addr != f.addr) continue;
      ++shown;
      os << "[wfl-race]     slot=" << e.sim_slot << " pid=" << e.pid << " ";
      switch (e.ev) {
        case Ev::kAtomic:
          os << op_name(e.op) << "(" << ord_name(e.order) << ") val=0x"
             << std::hex << e.val << std::dec;
          break;
        case Ev::kPlainRead: os << "plain-read"; break;
        case Ev::kPlainWrite: os << "plain-write"; break;
        case Ev::kMutexAcq: os << "mutex-acquire"; break;
        case Ev::kMutexRel: os << "mutex-release"; break;
        case Ev::kBoundary: os << "run-boundary"; break;
      }
      os << " site=" << site_info(e.site).name << "\n";
    }
  }
}

namespace {
// Returns true when the event may touch engine state fully; false when it
// came from a foreign OS thread and must only poison.
bool owner_thread(RaceEngine::Impl& im) {
  return std::this_thread::get_id() == im.owner;
}
}  // namespace

void atomic_event_slow(RaceEngine* e, const void* addr, Op op,
                       std::memory_order order, Site site,
                       std::uint64_t val) {
  RaceEngine::Impl& im = e->impl();
  std::lock_guard<std::mutex> g(im.mu);
  if (!owner_thread(im)) {
    im.poison(addr, false);
    return;
  }
  im.on_atomic(addr, op, order, site, val);
}

void plain_event_slow(RaceEngine* e, const void* region, bool is_write,
                      Site site) {
  RaceEngine::Impl& im = e->impl();
  std::lock_guard<std::mutex> g(im.mu);
  if (!owner_thread(im)) {
    im.poison(region, true);
    return;
  }
  im.on_plain(region, is_write, site);
}

void lifetime_event_slow(RaceEngine* e, const void* addr, bool created,
                         std::uint64_t val) {
  RaceEngine::Impl& im = e->impl();
  std::lock_guard<std::mutex> g(im.mu);
  if (!owner_thread(im)) {
    if (created) {
      im.poison(addr, false);
    } else {
      im.locs.erase(addr);
      im.regions.erase(addr);
    }
    return;
  }
  im.on_lifetime(addr, created, val);
}

void mutex_event_slow(RaceEngine* e, const void* mtx, bool acquire) {
  RaceEngine::Impl& im = e->impl();
  std::lock_guard<std::mutex> g(im.mu);
  if (!owner_thread(im)) {
    ++im.foreign;
    return;
  }
  im.on_mutex(mtx, acquire);
}

void tag_next_slow(RaceEngine* e, Site site) {
  RaceEngine::Impl& im = e->impl();
  std::lock_guard<std::mutex> g(im.mu);
  if (!owner_thread(im)) {
    ++im.foreign;
    return;
  }
  im.proc(im.ctx().p).pending_tag = site;
}

void run_boundary_slow(RaceEngine* e, bool entering, std::uint64_t seed) {
  RaceEngine::Impl& im = e->impl();
  std::lock_guard<std::mutex> g(im.mu);
  if (!owner_thread(im)) {
    ++im.foreign;
    return;
  }
  im.on_boundary(entering, seed);
}

}  // namespace wfl::race
