// Algorithm 2: a set-regular multi active set from linearizable active sets.
//
// Items carry a *flag*; multiInsert clears the flag, inserts the item into
// every set, then sets the flag (for lock descriptors, setting the flag IS
// the reveal step — it assigns the random priority, Algorithm 3 line 10).
// multiRemove unsets the flag first, then removes from every set. getSet
// filters out unflagged members, so:
//   * a getSet invoked after a multiInsert's flag-set sees the item,
//   * a getSet responding before it does not,
//   * overlapping getSets may or may not — *set regularity* (Theorem 5.1),
//     deliberately weaker than linearizability, and all the lock algorithm
//     needs.
//
// Item is a pointer type exposing flag()/set_flag()/clear_flag().
#pragma once

#include <cstdint>

#include "wfl/active/active_set.hpp"
#include "wfl/util/assert.hpp"

namespace wfl {

// Fixed-capacity result of a filtered getSet (no allocation on read paths).
template <typename T>
struct MemberList {
  std::uint32_t count = 0;
  T items[kMaxSetCap];

  void push(T x) {
    WFL_CHECK(count < kMaxSetCap);
    items[count++] = x;
  }
  const T* begin() const { return items; }
  const T* end() const { return items + count; }
};

// Inserts `item` into sets[0..n), then sets its flag (the reveal step).
// Writes the claimed slot index of sets[i] into slots_out[i].
template <typename Plat, typename T, typename SetT>
void multi_insert(T item, SetT* const* sets, int* slots_out, std::uint32_t n,
                  int ebr_pid) {
  item->clear_flag();
  for (std::uint32_t i = 0; i < n; ++i) {
    slots_out[i] = sets[i]->insert(item, ebr_pid);
  }
  item->set_flag();
}

// Removes `item` from the sets of its previous multi_insert.
template <typename Plat, typename T, typename SetT>
void multi_remove(T item, SetT* const* sets, const int* slots,
                  std::uint32_t n, int ebr_pid) {
  item->clear_flag();
  for (std::uint32_t i = 0; i < n; ++i) {
    sets[i]->remove(slots[i], ebr_pid);
  }
}

// Filtered getSet on one of the sets: only flagged members are returned.
// `skip` (when not null) is left out without a load of its flag: the
// caller's own item, which it never competes against. Caller holds an EBR
// guard spanning this call and any use of the members.
template <typename Plat, typename T, typename SetT>
void multi_get_set(SetT& set, MemberList<T>& out, T skip = T{}) {
  out.count = 0;
  const auto* snap = set.get_set();
  for (std::uint32_t i = 0; i < snap->count; ++i) {
    T item = snap->items[i];
    if (item != skip && item->flag()) out.push(item);
  }
}

}  // namespace wfl
