// Shared-memory arena: the placement substrate for cross-process lock
// tables (DESIGN.md §10).
//
// A ShmArena is a fixed-size MAP_SHARED mapping with a small header and a
// monotone bump allocator. Everything placed in it is addressed by BYTE
// OFFSET from the arena base, never by pointer: each attaching process maps
// the region at whatever address the kernel hands it, so a raw pointer
// written by one process is garbage in every other. Offset<T> is the typed
// wrapper — an offset travels through shared memory, and each process
// resolves it against its own base.
//
// Two creation models:
//
//   * create_anon() — anonymous MAP_SHARED mapping, inherited across
//     fork(). The natural shape for the crash experiments: the parent
//     builds the table, forks workers, and SIGKILLs one; no filesystem
//     name to leak when a process dies.
//   * create_named()/attach_named() — POSIX shm_open objects for unrelated
//     processes. attach_named() spins briefly on the creator's ready flag
//     so an attacher never reads a half-built layout.
//
// The header carries magic + layout version (attach refuses a mismatched
// build) and a generation counter bumped by every attach — the table layer
// uses it to tag sessions so state from a previous incarnation can never be
// confused for a live one.
//
// Crash model: the arena itself has no recovery protocol. Creation is
// single-threaded and completes before ready is published; after that the
// arena is append-only (bump pointer) and all mutable state belongs to the
// structures placed inside it, which own their own crash stories.
#pragma once

#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>

#include "wfl/util/assert.hpp"

namespace wfl {

// Probe whether an OS process is alive. kill(pid, 0) delivers nothing but
// performs the existence + permission check: ESRCH means the pid is gone.
// EPERM means it exists but belongs to someone else; for our purposes that
// is "alive". A dead pid the OS already recycled also reads as alive, so
// its session is not reaped — the safe side, since a false "dead" is the
// one answer recovery cannot survive.
inline bool shm_pid_alive(int pid) {
  if (pid <= 0) return false;
  if (::kill(pid, 0) == 0) return true;
  return errno == EPERM;
}

class ShmArena {
 public:
  static constexpr std::uint64_t kMagic = 0x31306d68736c6677ull;  // "wflshm01"
  static constexpr std::uint32_t kLayoutVersion = 1;
  static constexpr std::uint64_t kNullOffset = 0;

  struct Header {
    std::uint64_t magic;
    std::uint32_t layout_version;
    std::uint32_t pad_;
    std::uint64_t size;
    std::atomic<std::uint64_t> bump;        // next free byte offset
    std::atomic<std::uint64_t> generation;  // attach counter
    std::atomic<std::uint64_t> root;        // offset of the root object
    std::atomic<std::uint32_t> ready;       // creator publishes layout done
  };
  static_assert(std::is_trivially_destructible_v<Header>);

  ShmArena() = default;
  ShmArena(const ShmArena&) = delete;
  ShmArena& operator=(const ShmArena&) = delete;
  ShmArena(ShmArena&& o) noexcept { move_from(o); }
  ShmArena& operator=(ShmArena&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }
  ~ShmArena() { reset(); }

  // Anonymous MAP_SHARED arena; survives fork() in all children.
  static ShmArena create_anon(std::size_t bytes) {
    ShmArena a;
    a.size_ = round_up(bytes, kPageSize);
    void* p = ::mmap(nullptr, a.size_, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    WFL_CHECK_MSG(p != MAP_FAILED, "ShmArena: anonymous mmap failed");
    a.base_ = static_cast<char*>(p);
    a.init_header();
    return a;
  }

  // Named POSIX shm object (unlinked by the creator's destructor).
  static ShmArena create_named(const char* name, std::size_t bytes) {
    ShmArena a;
    a.size_ = round_up(bytes, kPageSize);
    int fd = ::shm_open(name, O_CREAT | O_EXCL | O_RDWR, 0600);
    WFL_CHECK_MSG(fd >= 0, "ShmArena: shm_open(O_CREAT) failed");
    WFL_CHECK(::ftruncate(fd, static_cast<off_t>(a.size_)) == 0);
    void* p = ::mmap(nullptr, a.size_, PROT_READ | PROT_WRITE, MAP_SHARED, fd,
                     0);
    ::close(fd);
    WFL_CHECK_MSG(p != MAP_FAILED, "ShmArena: mmap of shm object failed");
    a.base_ = static_cast<char*>(p);
    a.name_ = name;
    a.owner_ = true;
    a.init_header();
    return a;
  }

  static ShmArena attach_named(const char* name) {
    ShmArena a;
    int fd = ::shm_open(name, O_RDWR, 0600);
    WFL_CHECK_MSG(fd >= 0, "ShmArena: shm_open(attach) failed");
    // Map the header page first to learn the full size.
    void* hp = ::mmap(nullptr, kPageSize, PROT_READ, MAP_SHARED, fd, 0);
    WFL_CHECK_MSG(hp != MAP_FAILED, "ShmArena: header mmap failed");
    const Header* h = static_cast<const Header*>(hp);
    wait_ready(*h);
    WFL_CHECK_MSG(h->magic == kMagic, "ShmArena: bad magic");
    WFL_CHECK_MSG(h->layout_version == kLayoutVersion,
                  "ShmArena: layout version mismatch");
    a.size_ = h->size;
    ::munmap(hp, kPageSize);
    void* p = ::mmap(nullptr, a.size_, PROT_READ | PROT_WRITE, MAP_SHARED, fd,
                     0);
    ::close(fd);
    WFL_CHECK_MSG(p != MAP_FAILED, "ShmArena: full mmap failed");
    a.base_ = static_cast<char*>(p);
    a.header()->generation.fetch_add(1, std::memory_order_acq_rel);
    return a;
  }

  // A fork()ed child inherits the mapping itself; adopt() wraps the same
  // region without taking unmap ownership (the parent frame owns it).
  static ShmArena adopt(void* base, std::size_t size) {
    ShmArena a;
    a.base_ = static_cast<char*>(base);
    a.size_ = size;
    a.borrowed_ = true;
    const Header* h = a.header();
    wait_ready(*h);
    WFL_CHECK_MSG(h->magic == kMagic, "ShmArena: bad magic on adopt");
    WFL_CHECK_MSG(h->layout_version == kLayoutVersion,
                  "ShmArena: layout version mismatch on adopt");
    return a;
  }

  bool valid() const { return base_ != nullptr; }
  char* base() const { return base_; }
  std::size_t size() const { return size_; }
  Header* header() const { return reinterpret_cast<Header*>(base_); }

  // Bump-allocate raw bytes; returns the byte offset. Single-threaded in
  // practice (only the creator allocates), but the CAS keeps it honest.
  std::uint64_t alloc_bytes(std::size_t bytes, std::size_t align) {
    WFL_CHECK(align != 0 && (align & (align - 1)) == 0);
    Header* h = header();
    std::uint64_t cur = h->bump.load(std::memory_order_relaxed);
    for (;;) {
      const std::uint64_t off = round_up(cur, align);
      const std::uint64_t end = off + bytes;
      WFL_CHECK_MSG(end <= size_, "ShmArena: out of space");
      if (h->bump.compare_exchange_weak(cur, end, std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
        std::memset(base_ + off, 0, bytes);
        return off;
      }
    }
  }

  template <typename T>
  T* at(std::uint64_t off) const {
    WFL_DASSERT(off != kNullOffset && off + sizeof(T) <= size_);
    return reinterpret_cast<T*>(base_ + off);
  }

  // Allocate + default-construct an array of T; creator-side only. The
  // attacher never re-constructs: it casts the offset via at<T>().
  template <typename T>
  std::uint64_t create_array(std::size_t n) {
    const std::uint64_t off = alloc_bytes(sizeof(T) * n, alignof(T));
    T* p = reinterpret_cast<T*>(base_ + off);
    for (std::size_t i = 0; i < n; ++i) new (p + i) T();
    return off;
  }

  template <typename T, typename... Args>
  std::uint64_t create(Args&&... args) {
    const std::uint64_t off = alloc_bytes(sizeof(T), alignof(T));
    new (base_ + off) T(static_cast<Args&&>(args)...);
    return off;
  }

  void set_root(std::uint64_t off) {
    header()->root.store(off, std::memory_order_release);
  }
  std::uint64_t root() const {
    return header()->root.load(std::memory_order_acquire);
  }

  // Creator calls once layout construction is complete; attachers block on
  // it (bounded spin — creation is microseconds).
  void publish_ready() {
    header()->ready.store(1, std::memory_order_release);
  }

  std::uint64_t generation() const {
    return header()->generation.load(std::memory_order_acquire);
  }

  std::uint64_t offset_of(const void* p) const {
    WFL_DASSERT(p >= base_ && p < base_ + size_);
    return static_cast<std::uint64_t>(static_cast<const char*>(p) - base_);
  }

 private:
  static constexpr std::size_t kPageSize = 4096;

  static std::uint64_t round_up(std::uint64_t v, std::uint64_t a) {
    return (v + a - 1) & ~(a - 1);
  }

  static void wait_ready(const Header& h) {
    for (std::uint64_t spins = 0;
         h.ready.load(std::memory_order_acquire) == 0; ++spins) {
      WFL_CHECK_MSG(spins < (1u << 22), "ShmArena: creator never published");
      if ((spins & 0x3ff) == 0) ::usleep(100);
    }
  }

  void init_header() {
    Header* h = new (base_) Header();
    h->magic = kMagic;
    h->layout_version = kLayoutVersion;
    h->size = size_;
    h->bump.store(round_up(sizeof(Header), 64), std::memory_order_relaxed);
    h->generation.store(1, std::memory_order_relaxed);
    h->root.store(kNullOffset, std::memory_order_relaxed);
    h->ready.store(0, std::memory_order_relaxed);
  }

  void move_from(ShmArena& o) {
    base_ = o.base_;
    size_ = o.size_;
    name_ = o.name_;
    owner_ = o.owner_;
    borrowed_ = o.borrowed_;
    o.base_ = nullptr;
    o.name_ = nullptr;
    o.owner_ = false;
    o.borrowed_ = false;
  }

  void reset() {
    if (base_ != nullptr && !borrowed_) ::munmap(base_, size_);
    if (owner_ && name_ != nullptr) ::shm_unlink(name_);
    base_ = nullptr;
    name_ = nullptr;
    owner_ = false;
    borrowed_ = false;
  }

  char* base_ = nullptr;
  std::size_t size_ = 0;
  const char* name_ = nullptr;  // named variant: creator unlinks on destroy
  bool owner_ = false;
  bool borrowed_ = false;  // adopt(): mapping owned by another frame
};

// Typed offset: the only legal way to store a cross-process reference in
// shared memory. An Offset is just bytes; resolving it requires the local
// arena view.
template <typename T>
struct Offset {
  std::uint64_t raw = ShmArena::kNullOffset;

  bool null() const { return raw == ShmArena::kNullOffset; }
  T* in(const ShmArena& a) const { return null() ? nullptr : a.at<T>(raw); }
  // True iff the offset names a whole, aligned T inside `a`. ShmArena::at
  // only debug-asserts its bounds, so an offset taken from caller-supplied
  // data must pass this before anyone resolves it.
  bool fits(const ShmArena& a) const {
    return !null() && raw % alignof(T) == 0 && raw <= a.size() &&
           a.size() - raw >= sizeof(T);
  }
  static Offset of(const ShmArena& a, const T* p) {
    return Offset{a.offset_of(p)};
  }
};

}  // namespace wfl
