#include "wfl/sim/sim.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "wfl/check/race.hpp"
#include "wfl/util/assert.hpp"

namespace wfl {

namespace {
thread_local Simulator* g_current_sim = nullptr;

// Every simulated process runs on a fiber stack of this size.
constexpr std::size_t kProcessStackBytes = 128 * 1024;

// WFL_SIM_WATCHDOG_SLOTS: when set to a positive integer, every Simulator
// arms a fail-hard watchdog at that cumulative slot bound. Parsed once.
std::uint64_t env_watchdog_slots() {
  static const std::uint64_t cached = [] {
    const char* v = std::getenv("WFL_SIM_WATCHDOG_SLOTS");
    if (v == nullptr || *v == '\0') return std::uint64_t{0};
    return static_cast<std::uint64_t>(std::strtoull(v, nullptr, 10));
  }();
  return cached;
}
}  // namespace

WeightedSchedule::WeightedSchedule(std::vector<double> weights,
                                   std::uint64_t seed)
    : rng_(seed) {
  WFL_CHECK(!weights.empty());
  double sum = 0;
  for (double w : weights) {
    WFL_CHECK_MSG(w >= 0, "weights must be non-negative");
    sum += w;
    cumulative_.push_back(sum);
  }
  WFL_CHECK_MSG(sum > 0, "at least one weight must be positive");
}

int WeightedSchedule::next() {
  const double r = rng_.next_double() * cumulative_.back();
  // Linear scan: schedules have few processes and this keeps the draw
  // obviously deterministic.
  for (std::size_t i = 0; i < cumulative_.size(); ++i) {
    if (r < cumulative_[i]) return static_cast<int>(i);
  }
  return static_cast<int>(cumulative_.size()) - 1;
}

int StallBurstSchedule::next() {
  if (remaining_ == 0) {
    victim_ = static_cast<int>(rng_.next_below(n_));
    remaining_ = burst_len_;
  }
  --remaining_;
  if (n_ == 1) return 0;
  // Uniform over everyone except the current victim.
  const int pick = static_cast<int>(rng_.next_below(n_ - 1));
  return pick >= victim_ ? pick + 1 : pick;
}

CrashSchedule::CrashSchedule(Schedule& inner, int n,
                             std::vector<Crash> crashes, std::uint64_t seed)
    : inner_(&inner), n_(n), crashes_(std::move(crashes)), rng_(seed) {
  WFL_CHECK(n >= 1);
  for (const Crash& c : crashes_) {
    WFL_CHECK(c.pid >= 0 && c.pid < n);
  }
  WFL_CHECK_MSG(crashes_.size() < static_cast<std::size_t>(n),
                "at least one process must survive");
}

bool CrashSchedule::crashed_at(int pid, std::uint64_t slot) const {
  for (const Crash& c : crashes_) {
    if (c.pid == pid && slot >= c.slot) return true;
  }
  return false;
}

int CrashSchedule::next() {
  const std::uint64_t slot = slot_++;
  int pick = inner_->next();
  // Bounded redraw: at most n attempts, then a deterministic linear scan —
  // the schedule stays a pure function of (construction data, slot index).
  for (int tries = 0; crashed_at(pick, slot) && tries < n_; ++tries) {
    pick = static_cast<int>(rng_.next_below(n_));
  }
  for (int off = 0; crashed_at(pick, slot) && off < n_; ++off) {
    pick = (pick + 1) % n_;
  }
  return pick;
}

Simulator::Simulator(std::uint64_t seed) : seed_(seed) {
  if (const std::uint64_t cap = env_watchdog_slots(); cap > 0) {
    enable_watchdog(cap, /*fail_hard=*/true);
  }
}

Simulator::~Simulator() = default;

int Simulator::add_process(Fiber::Body body) {
  WFL_CHECK_MSG(!in_run_, "add_process during run()");
  auto proc = std::make_unique<Proc>();
  const int pid = static_cast<int>(procs_.size());
  SplitMix64 sm(seed_ ^ (0xA5A5A5A5ULL + static_cast<std::uint64_t>(pid)));
  proc->rng.reseed(sm.next());
  proc->fiber = std::make_unique<Fiber>(std::move(body), kProcessStackBytes);
  procs_.push_back(std::move(proc));
  return pid;
}

bool Simulator::run(Schedule& sched, std::uint64_t max_slots,
                    int required_finishers) {
  WFL_CHECK_MSG(!in_run_, "nested run()");
  WFL_CHECK_MSG(g_current_sim == nullptr, "another simulator is running");
  const int required = required_finishers >= 0
                           ? required_finishers
                           : static_cast<int>(procs_.size());
  WFL_CHECK(required <= static_cast<int>(procs_.size()));
  in_run_ = true;
  g_current_sim = this;
  // Analysis-layer boundary: setup happens-before everything in the run.
  race::run_boundary(/*entering=*/true, seed_);

  while (finished_ < required && slots_used_ < max_slots) {
    if (watchdog_slots_ > 0 && slots_used_ >= watchdog_slots_ &&
        !watchdog_fired_) {
      watchdog_fired_ = true;
      watchdog_dump_ = build_watchdog_dump();
      if (watchdog_fail_hard_) {
        std::fputs(watchdog_dump_.c_str(), stderr);
        WFL_CHECK_MSG(false, "simulator wedge watchdog fired");
      }
      break;  // report mode: end the run, let the driver inspect the dump
    }
    const int pid = sched.next();
    WFL_CHECK(pid >= 0 && pid < static_cast<int>(procs_.size()));
    if (watchdog_slots_ > 0) {
      trace_ring_[slots_used_ % kTraceRing] = pid;
    }
    ++slots_used_;
    Proc& p = *procs_[pid];
    if (p.done) continue;  // wasted slot: oblivious scheduler can't know
    running_pid_ = pid;
    p.fiber->resume();
    running_pid_ = -1;
    if (p.fiber->finished()) {
      p.done = true;
      ++finished_;
    }
  }

  // Everything in the run happens-before teardown on the main context.
  race::run_boundary(/*entering=*/false, seed_);
  g_current_sim = nullptr;
  in_run_ = false;
  return finished_ >= required;
}

void Simulator::enable_watchdog(std::uint64_t max_total_slots,
                                bool fail_hard) {
  WFL_CHECK_MSG(max_total_slots > 0, "watchdog bound must be positive");
  watchdog_slots_ = max_total_slots;
  watchdog_fail_hard_ = fail_hard;
  watchdog_fired_ = false;
  watchdog_dump_.clear();
}

std::string Simulator::build_watchdog_dump() const {
  std::ostringstream os;
  os << "=== simulator wedge watchdog ===\n"
     << "cumulative slots " << slots_used_ << " reached bound "
     << watchdog_slots_ << " with " << finished_ << "/" << procs_.size()
     << " processes finished\n";
  for (std::size_t pid = 0; pid < procs_.size(); ++pid) {
    const Proc& p = *procs_[pid];
    os << "  pid " << pid << ": steps=" << p.steps
       << (p.done ? " done" : " LIVE") << "\n";
  }
  const std::uint64_t shown =
      slots_used_ < kTraceRing ? slots_used_ : kTraceRing;
  os << "  last " << shown << " grants (slot:pid):";
  for (std::uint64_t i = slots_used_ - shown; i < slots_used_; ++i) {
    os << " " << i << ":" << trace_ring_[i % kTraceRing];
  }
  os << "\n[reproducer: seed=" << seed_ << " slot=" << slots_used_ << "]\n";
  return os.str();
}

std::uint64_t Simulator::steps_of(int pid) const {
  WFL_CHECK(pid >= 0 && pid < static_cast<int>(procs_.size()));
  return procs_[pid]->steps;
}

bool Simulator::is_finished(int pid) const {
  WFL_CHECK(pid >= 0 && pid < static_cast<int>(procs_.size()));
  return procs_[pid]->done;
}

Simulator* Simulator::current() { return g_current_sim; }

void Simulator::count_step_and_yield() {
  WFL_CHECK_MSG(running_pid_ >= 0, "step outside a scheduled process");
  ++procs_[running_pid_]->steps;
  Fiber::yield();
}

std::uint64_t Simulator::rand_u64() {
  WFL_CHECK_MSG(running_pid_ >= 0, "rand outside a scheduled process");
  return procs_[running_pid_]->rng.next();
}

std::uint64_t Simulator::current_steps() const {
  WFL_CHECK_MSG(running_pid_ >= 0, "steps outside a scheduled process");
  return procs_[running_pid_]->steps;
}

int Simulator::current_pid() const { return running_pid_; }

}  // namespace wfl
