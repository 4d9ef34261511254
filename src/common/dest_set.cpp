#include "common/dest_set.hpp"

#include <algorithm>
#include <sstream>

#include "common/panic.hpp"

namespace causim {

DestSet& DestSet::assign_spilled(const DestSet& other) {
  if (this == &other) return *this;
  if (other.spilled()) {
    // Reuse the heap array when it already has the right size (the common
    // case: every set in a log shares one universe).
    if (!spilled() || word_count() != other.word_count()) {
      auto* words = new std::uint64_t[other.word_count()];
      if (spilled()) delete[] heap_;
      heap_ = words;
    }
    n_ = other.n_;
    std::copy_n(other.heap_, word_count(), heap_);
  } else {
    if (spilled()) delete[] heap_;
    n_ = other.n_;
    inline_[0] = other.inline_[0];
    inline_[1] = other.inline_[1];
  }
  return *this;
}

DestSet DestSet::all(SiteId n) {
  DestSet s(n);
  std::uint64_t* words = s.data();
  std::fill_n(words, s.word_count(), ~0ULL);
  // Clear bits beyond n-1 in the last word.
  const unsigned tail = n % 64;
  if (tail != 0) words[s.word_count() - 1] &= (1ULL << tail) - 1;
  return s;
}

void DestSet::outside_universe(SiteId s) const {
  std::ostringstream os;
  os << "site " << s << " outside universe of size " << n_;
  panic(__FILE__, __LINE__, os.str());
}

void DestSet::universe_mismatch(const DestSet& other) const {
  std::ostringstream os;
  os << "universe mismatch " << n_ << " vs " << other.n_;
  panic(__FILE__, __LINE__, os.str());
}

bool DestSet::operator==(const DestSet& other) const {
  return n_ == other.n_ && std::equal(data(), data() + word_count(), other.data());
}

bool DestSet::is_subset_of(const DestSet& other) const {
  check_universe(other);
  const std::uint64_t* words = data();
  const std::uint64_t* theirs = other.data();
  for (std::size_t i = 0; i < word_count(); ++i) {
    if ((words[i] & ~theirs[i]) != 0) return false;
  }
  return true;
}

bool DestSet::intersects(const DestSet& other) const {
  check_universe(other);
  const std::uint64_t* words = data();
  const std::uint64_t* theirs = other.data();
  for (std::size_t i = 0; i < word_count(); ++i) {
    if ((words[i] & theirs[i]) != 0) return true;
  }
  return false;
}

std::vector<SiteId> DestSet::to_vector() const {
  std::vector<SiteId> out;
  out.reserve(count());
  for_each([&out](SiteId s) { out.push_back(s); });
  return out;
}

}  // namespace causim
