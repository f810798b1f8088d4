// Typed lock sets: the API-boundary carrier for "which locks".
//
// The paper's tryLock takes a *set* of locks, but the implementation layers
// used to pass raw `std::span<const std::uint32_t>` everywhere, which made
// every boundary re-negotiate the set's invariants: try_locks ran an O(L²)
// duplicate scan on every attempt, TxnBuilder sorted+deduped privately, and
// substrates each hand-rolled their own `std::sort` + length juggling.
//
// StaticLockSet<N> establishes the invariants ONCE, at construction: the
// ids are sorted ascending and duplicate-free, and the count fits N (and,
// with the LockConfig overloads, the configured L bound). LockSetView is
// the cheap non-owning witness of those invariants that travels through
// API boundaries; the lock table's LockSetView overload of try_locks and
// the executor's submit() accept it and skip re-validation on the attempt
// path entirely.
//
// A LockSetView can only be produced by a StaticLockSet or by
// LockSetView::presorted (for callers like PreparedTxn that maintain the
// invariant themselves) — there is deliberately no public constructor from
// an arbitrary span.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <span>

#include "wfl/core/config.hpp"
#include "wfl/core/descriptor.hpp"
#include "wfl/util/assert.hpp"

namespace wfl {

// Non-owning view of a sorted, duplicate-free lock set. Trivially copyable;
// the backing ids must outlive every use of the view (a StaticLockSet on
// the caller's frame is the usual backing — safe because try_locks copies
// the ids into the descriptor before returning).
class LockSetView {
 public:
  constexpr LockSetView() = default;

  // Wraps ids the CALLER guarantees are sorted ascending and duplicate-
  // free (e.g. PreparedTxn's built lock set). Checked in debug builds.
  static LockSetView presorted(std::span<const std::uint32_t> ids) {
    for (std::size_t i = 1; i < ids.size(); ++i) {
      WFL_DASSERT(ids[i - 1] < ids[i]);
    }
    return LockSetView(Witness{}, ids.data(),
                       static_cast<std::uint32_t>(ids.size()));
  }

  constexpr const std::uint32_t* data() const { return data_; }
  constexpr std::uint32_t size() const { return size_; }
  constexpr bool empty() const { return size_ == 0; }
  constexpr std::uint32_t operator[](std::uint32_t i) const {
    return data_[i];
  }
  constexpr const std::uint32_t* begin() const { return data_; }
  constexpr const std::uint32_t* end() const { return data_ + size_; }

  constexpr std::span<const std::uint32_t> span() const {
    return {data_, size_};
  }
  // NOLINTNEXTLINE(google-explicit-constructor): views decay to spans
  constexpr operator std::span<const std::uint32_t>() const {
    return span();
  }

 private:
  template <std::uint32_t N>
  friend class StaticLockSet;

  // Tag keeps this constructor out of overload resolution for brace-init
  // from {pointer, count} (which must keep meaning std::span at call
  // sites) — only invariant-holding producers name the tag.
  struct Witness {};
  constexpr LockSetView(Witness, const std::uint32_t* data,
                        std::uint32_t size)
      : data_(data), size_(size) {}

  const std::uint32_t* data_ = nullptr;
  std::uint32_t size_ = 0;
};

// Fixed-capacity owning lock set; sorts and dedups on construction, so the
// invariants hold for its whole lifetime. N is a hard capacity (aborts on
// overflow, like every stated bound in this library); the overloads taking
// a LockConfig additionally enforce the configured per-attempt L budget at
// construction — the API boundary — instead of deep in the attempt path.
template <std::uint32_t N = kMaxLocksPerAttempt>
class StaticLockSet {
  static_assert(N >= 1 && N <= kMaxLocksPerAttempt,
                "StaticLockSet capacity must fit a single attempt");

 public:
  constexpr StaticLockSet() = default;

  StaticLockSet(std::initializer_list<std::uint32_t> ids) {
    assign({ids.begin(), ids.size()});
  }
  explicit StaticLockSet(std::span<const std::uint32_t> ids) { assign(ids); }

  StaticLockSet(std::initializer_list<std::uint32_t> ids,
                const LockConfig& cfg) {
    assign({ids.begin(), ids.size()});
    check_budget(cfg);
  }
  StaticLockSet(std::span<const std::uint32_t> ids, const LockConfig& cfg) {
    assign(ids);
    check_budget(cfg);
  }

  // Appends one id, keeping the set sorted and deduplicated (no-op if
  // already present). For incremental builders (LockedList's {pred, curr},
  // where curr may be absent).
  void insert(std::uint32_t id) {
    std::uint32_t pos = 0;
    while (pos < size_ && ids_[pos] < id) ++pos;
    if (pos < size_ && ids_[pos] == id) return;
    WFL_CHECK_MSG(size_ < N, "lock set exceeds StaticLockSet capacity");
    for (std::uint32_t i = size_; i > pos; --i) ids_[i] = ids_[i - 1];
    ids_[pos] = id;
    ++size_;
  }

  constexpr std::uint32_t size() const { return size_; }
  constexpr bool empty() const { return size_ == 0; }
  constexpr std::uint32_t operator[](std::uint32_t i) const {
    return ids_[i];
  }
  constexpr const std::uint32_t* begin() const { return ids_; }
  constexpr const std::uint32_t* end() const { return ids_ + size_; }

  LockSetView view() const {
    return LockSetView(LockSetView::Witness{}, ids_, size_);
  }
  operator LockSetView() const { return view(); }  // NOLINT: by design

 private:
  void assign(std::span<const std::uint32_t> ids) {
    WFL_CHECK_MSG(ids.size() <= N,
                  "lock set exceeds StaticLockSet capacity");
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ids_[i] = ids[i];
    }
    size_ = static_cast<std::uint32_t>(ids.size());
    std::sort(ids_, ids_ + size_);
    size_ = static_cast<std::uint32_t>(
        std::unique(ids_, ids_ + size_) - ids_);
  }

  void check_budget(const LockConfig& cfg) const {
    WFL_CHECK_MSG(size_ <= cfg.max_locks,
                  "lock set exceeds the configured L bound");
  }

  std::uint32_t ids_[N] = {};
  std::uint32_t size_ = 0;
};

}  // namespace wfl
