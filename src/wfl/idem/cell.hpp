// Idempotent memory cells.
//
// A Cell is one 64-bit atomic word packing (value:32, tag:32). Every value
// installed by an idempotent store/CAS carries a tag that is unique to the
// (thunk, operation-index) that produced it, so:
//   * a raw word never recurs once replaced (no ABA), which makes
//     single-shot CAS against an *agreed* expected word exact, and
//   * duplicate physical attempts by helpers replaying the same operation
//     are CASes to the identical word from the identical expected word —
//     at most one can take effect, the rest fail harmlessly.
//
// The 32-bit value restriction is deliberate (DESIGN.md §3.4): applications
// store pool indices, account balances, versioned small scalars — not raw
// pointers. Tags come from a 32-bit space; a tag can recur only after ~2^32
// instrumented writes, and harming correctness additionally requires a
// helper stalled across that entire span holding the exact colliding word —
// the same class of bounded-assumption the paper makes for priorities
// (footnote 3: a poly(P) priority range suffices).
#pragma once

#include <cstdint>

namespace wfl {

inline constexpr std::uint64_t kCellEmptySlot = 0xFFFFFFFFFFFFFFFFull;
inline constexpr std::uint32_t kCellInitTag = 0;

constexpr std::uint64_t cell_pack(std::uint32_t value, std::uint32_t tag) {
  return (static_cast<std::uint64_t>(tag) << 32) | value;
}
constexpr std::uint32_t cell_value(std::uint64_t word) {
  return static_cast<std::uint32_t>(word & 0xFFFFFFFFu);
}
constexpr std::uint32_t cell_tag(std::uint64_t word) {
  return static_cast<std::uint32_t>(word >> 32);
}

// Shared cell accessed from critical sections through IdemCtx. Direct
// accessors exist for initialization and for validation in tests/benches
// (quiescent reads); algorithm code never uses them on shared paths.
template <typename Plat>
class Cell {
 public:
  Cell() { word_.init(cell_pack(0, kCellInitTag)); }
  explicit Cell(std::uint32_t v) { word_.init(cell_pack(v, kCellInitTag)); }

  Cell(const Cell&) = delete;
  Cell& operator=(const Cell&) = delete;

  // Quiescent (setup/validation) access; not for concurrent algorithm code.
  void init(std::uint32_t v) { word_.init(cell_pack(v, kCellInitTag)); }
  std::uint32_t peek() const { return cell_value(word_.peek()); }

  // Raw word access used by the idempotence runner (each call is one step).
  std::uint64_t raw_load() const { return word_.load(); }
  bool raw_cas(std::uint64_t expected, std::uint64_t desired) {
    return word_.cas(expected, desired);
  }
  // The same CAS, returning the word it found (`expected` on success).
  std::uint64_t raw_cas_value(std::uint64_t expected, std::uint64_t desired) {
    return word_.cas_value(expected, desired);
  }

  // Stepped value read *outside* any thunk — e.g. optimistic traversals
  // that later re-validate inside a critical section. Not idempotent.
  std::uint32_t load_direct() const { return cell_value(word_.load()); }

 private:
  typename Plat::template Atomic<std::uint64_t> word_;
};

}  // namespace wfl
