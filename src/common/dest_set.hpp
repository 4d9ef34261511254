// DestSet — a set of site ids, used for write-destination lists.
//
// Destination lists are the central data structure of the Opt-Track
// protocol: each KS-log entry carries the set of replica sites a write was
// multicast to, progressively pruned by the implicit conditions of §III-B.
// A bitset keeps union / intersection / difference O(n/64). On the wire a
// set is an explicit member list (serial::store_dest_set), not the bitset,
// so the meta-data bytes shrink as pruning shrinks the set.
//
// Up to kInlineSites sites the words live inside the object, so a set is
// 24 bytes and copying it (once per KS-log entry on every log copy and
// decode) never allocates; larger universes spill to one heap array.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "common/ids.hpp"

namespace causim {

class DestSet {
 public:
  /// Largest universe whose words are stored inline.
  static constexpr SiteId kInlineSites = 128;

  DestSet() = default;

  /// An empty set able to hold sites [0, n).
  explicit DestSet(SiteId n) : n_(n) {
    if (spilled()) heap_ = new std::uint64_t[word_count()]();
  }

  DestSet(SiteId n, std::initializer_list<SiteId> sites) : DestSet(n) {
    for (SiteId s : sites) insert(s);
  }

  // Copies and moves of inline sets are a few word copies, inlined here:
  // every log copy, decode and compaction runs one per entry.
  DestSet(const DestSet& other) { *this = other; }
  DestSet(DestSet&& other) noexcept : n_(other.n_) { take(other); }
  DestSet& operator=(const DestSet& other) {
    if (spilled() || other.spilled()) return assign_spilled(other);
    n_ = other.n_;
    inline_[0] = other.inline_[0];
    inline_[1] = other.inline_[1];
    return *this;
  }
  DestSet& operator=(DestSet&& other) noexcept {
    if (this != &other) {
      if (spilled()) delete[] heap_;
      n_ = other.n_;
      take(other);
    }
    return *this;
  }
  ~DestSet() {
    if (spilled()) delete[] heap_;
  }

  /// The full set {0, …, n-1}.
  static DestSet all(SiteId n);

  SiteId universe_size() const { return n_; }

  void insert(SiteId s) {
    if (s >= n_) outside_universe(s);
    data()[s / 64] |= 1ULL << (s % 64);
  }
  void erase(SiteId s) {
    if (s < n_) data()[s / 64] &= ~(1ULL << (s % 64));
  }
  bool contains(SiteId s) const {
    return s < n_ && ((data()[s / 64] >> (s % 64)) & 1) != 0;
  }

  // Inline words past word_count() are always zero (no operation sets a
  // bit outside the universe), so inline sets are read and combined two
  // words at a time, without a loop.

  /// Number of sites in the set.
  SiteId count() const {
    if (!spilled()) return static_cast<SiteId>(popcount(inline_[0]) + popcount(inline_[1]));
    unsigned c = 0;
    for (std::size_t i = 0; i < word_count(); ++i) c += popcount(heap_[i]);
    return static_cast<SiteId>(c);
  }
  bool empty() const {
    if (!spilled()) return (inline_[0] | inline_[1]) == 0;
    for (std::size_t i = 0; i < word_count(); ++i) {
      if (heap_[i] != 0) return false;
    }
    return true;
  }

  DestSet& operator|=(const DestSet& other) {
    return combine(other, [](std::uint64_t a, std::uint64_t b) { return a | b; });
  }
  DestSet& operator&=(const DestSet& other) {
    return combine(other, [](std::uint64_t a, std::uint64_t b) { return a & b; });
  }
  /// Set difference: removes every site in `other` from this set.
  DestSet& operator-=(const DestSet& other) {
    return combine(other, [](std::uint64_t a, std::uint64_t b) { return a & ~b; });
  }

  friend DestSet operator|(DestSet a, const DestSet& b) { return a |= b; }
  friend DestSet operator&(DestSet a, const DestSet& b) { return a &= b; }
  friend DestSet operator-(DestSet a, const DestSet& b) { return a -= b; }

  bool operator==(const DestSet& other) const;

  /// True if every member of this set is also in `other`.
  bool is_subset_of(const DestSet& other) const;

  bool intersects(const DestSet& other) const;

  /// Calls fn(SiteId) for each member in increasing order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::uint64_t* words = data();
    for (std::size_t w = 0; w < word_count(); ++w) {
      std::uint64_t bits = words[w];
      while (bits != 0) {
        const int b = __builtin_ctzll(bits);
        fn(static_cast<SiteId>(w * 64 + b));
        bits &= bits - 1;
      }
    }
  }

  std::vector<SiteId> to_vector() const;

  /// Exact number of bytes this set occupies on the wire (universe u16 +
  /// count u16 + one u16 per member; see serial::store_dest_set).
  std::size_t wire_bytes() const { return 4 + 2 * static_cast<std::size_t>(count()); }

 private:
  /// Bits set in `w`, counted in registers: on a target ISA without a
  /// popcount instruction (generic x86-64) std::popcount is a libgcc call.
  static unsigned popcount(std::uint64_t w) {
    w -= (w >> 1) & 0x5555555555555555ULL;
    w = (w & 0x3333333333333333ULL) + ((w >> 2) & 0x3333333333333333ULL);
    w = (w + (w >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
    return static_cast<unsigned>((w * 0x0101010101010101ULL) >> 56);
  }
  bool spilled() const { return n_ > kInlineSites; }
  std::size_t word_count() const { return (n_ + 63u) / 64u; }
  std::uint64_t* data() { return spilled() ? heap_ : inline_; }
  const std::uint64_t* data() const { return spilled() ? heap_ : inline_; }
  void check_universe(const DestSet& other) const {
    if (n_ != other.n_) universe_mismatch(other);
  }
  [[noreturn]] void universe_mismatch(const DestSet& other) const;
  [[noreturn]] void outside_universe(SiteId s) const;
  DestSet& assign_spilled(const DestSet& other);

  /// Takes `other`'s words (its heap array, if spilled; `n_` already equals
  /// `other.n_`). A moved-from spilled set becomes the empty set of no sites.
  void take(DestSet& other) noexcept {
    if (spilled()) {
      heap_ = other.heap_;
      other.n_ = 0;
      other.inline_[0] = other.inline_[1] = 0;
    } else {
      inline_[0] = other.inline_[0];
      inline_[1] = other.inline_[1];
    }
  }

  /// `op` must map two zero words to zero (|, &, and-not all do).
  template <typename Op>
  DestSet& combine(const DestSet& other, Op op) {
    check_universe(other);
    if (!spilled()) {
      inline_[0] = op(inline_[0], other.inline_[0]);
      inline_[1] = op(inline_[1], other.inline_[1]);
      return *this;
    }
    for (std::size_t i = 0; i < word_count(); ++i) heap_[i] = op(heap_[i], other.heap_[i]);
    return *this;
  }

  SiteId n_ = 0;
  // inline_ while n_ <= kInlineSites, heap_ (word_count() words) above it.
  union {
    std::uint64_t inline_[2] = {0, 0};
    std::uint64_t* heap_;
  };
};

}  // namespace causim
