#include "partition/unrank.h"

#include <algorithm>

#include "common/check.h"
#include "common/errors.h"
#include "partition/bell.h"
#include "partition/enumeration.h"

namespace bcclb {

namespace {

// Memoized D(m, a) for every pair with m + a <= kMaxUnrankN - 1; entries
// outside that triangle are never read (rgs_extension_count guards them) and
// stay 0, so no computation here can overflow: every in-triangle value is
// bounded by B_25 < 2^64 and both addends of the recurrence are bounded by
// their sum.
class ExtensionCountTable {
 public:
  static const ExtensionCountTable& instance() {
    static ExtensionCountTable table;
    return table;
  }

  std::uint64_t at(std::size_t m, std::size_t a) const { return d_[m][a]; }

 private:
  ExtensionCountTable() {
    for (std::size_t a = 0; a <= kMaxUnrankN - 1; ++a) d_[0][a] = 1;
    for (std::size_t m = 1; m <= kMaxUnrankN - 1; ++m) {
      for (std::size_t a = 0; m + a <= kMaxUnrankN - 1; ++a) {
        d_[m][a] = (a + 1) * d_[m - 1][a] + d_[m - 1][a + 1];
      }
    }
  }

  std::uint64_t d_[kMaxUnrankN][kMaxUnrankN + 1] = {};
};

[[noreturn]] void throw_n_out_of_range(const char* what, std::size_t n) {
  throw RangeViolationError(std::string(what) + ": n = " + std::to_string(n) +
                            " outside supported range [1, " + std::to_string(kMaxUnrankN) +
                            "] (B_25 is the last Bell number below 2^64)");
}

}  // namespace

std::uint64_t checked_bell_u64(std::size_t n) {
  if (n < 1 || n > kMaxUnrankN) throw_n_out_of_range("checked_bell_u64", n);
  return bell_number_u64(n);
}

std::uint64_t rgs_extension_count(std::size_t m, std::size_t a) {
  if (m + a + 1 > kMaxUnrankN) {
    throw RangeViolationError("rgs_extension_count: D(" + std::to_string(m) + ", " +
                              std::to_string(a) + ") needs m + a + 1 <= " +
                              std::to_string(kMaxUnrankN) + " to stay below 2^64");
  }
  return ExtensionCountTable::instance().at(m, a);
}

void unrank_rgs(std::size_t n, std::uint64_t index, std::vector<std::uint32_t>& rgs) {
  if (n < 1 || n > kMaxUnrankN) throw_n_out_of_range("unrank_rgs", n);
  const ExtensionCountTable& d = ExtensionCountTable::instance();
  const std::uint64_t bell = d.at(n - 1, 0);  // D(n-1, 0) = B_n
  if (index >= bell) {
    throw RangeViolationError("unrank_rgs: index " + std::to_string(index) +
                              " >= B_" + std::to_string(n) + " = " + std::to_string(bell));
  }
  rgs.assign(n, 0);
  std::uint64_t rem = index;
  std::uint32_t max_prefix = 0;
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t m = n - 1 - i;  // positions left after this one
    // Digits v at position i are ordered 0 .. max_prefix + 1; each owns a
    // contiguous run of D(m, max(max_prefix, v)) indices (the exact counts
    // partition_index sums for v < rgs[i]).
    for (std::uint32_t v = 0;; ++v) {
      BCCLB_CHECK(v <= max_prefix + 1, "unrank ran past the RGS digit range");
      const std::uint64_t count = d.at(m, std::max(max_prefix, v));
      if (rem < count) {
        rgs[i] = v;
        break;
      }
      rem -= count;
    }
    max_prefix = std::max(max_prefix, rgs[i]);
  }
  BCCLB_CHECK(rem == 0, "unrank left a nonzero remainder");
}

std::uint64_t partition_index(const SetPartition& p) {
  // Count the RGSs that precede p lexicographically: at position i, every
  // digit v < rgs[i] owns D(n-1-i, max(max_prefix, v)) completions.
  const std::size_t n = p.ground_size();
  BCCLB_REQUIRE(n >= 1 && n <= kMaxUnrankN, "partition_index supports 1 <= n <= 25");
  const ExtensionCountTable& d = ExtensionCountTable::instance();
  const auto& rgs = p.rgs();
  std::uint64_t index = 0;
  std::uint32_t max_prefix = 0;
  for (std::size_t i = 1; i < n; ++i) {
    for (std::uint32_t v = 0; v < rgs[i]; ++v) {
      index += d.at(n - 1 - i, std::max(max_prefix, v));
    }
    max_prefix = std::max(max_prefix, rgs[i]);
  }
  return index;
}

PartitionSlice::PartitionSlice(std::size_t n, std::uint64_t lo, std::uint64_t hi)
    : next_index_(lo), hi_(hi) {
  if (n < 1 || n > kMaxUnrankN) throw_n_out_of_range("PartitionSlice", n);
  const std::uint64_t bell = checked_bell_u64(n);
  if (lo > hi || hi > bell) {
    throw RangeViolationError("PartitionSlice: [" + std::to_string(lo) + ", " +
                              std::to_string(hi) + ") is not a subrange of [0, B_" +
                              std::to_string(n) + " = " + std::to_string(bell) + ")");
  }
  if (lo < hi) {
    unrank_rgs(n, lo, rgs_);
    primed_ = true;
  }
}

bool PartitionSlice::next() {
  if (next_index_ >= hi_) return false;
  if (primed_) {
    primed_ = false;
  } else {
    next_rgs(rgs_);
  }
  ++next_index_;
  return true;
}

}  // namespace bcclb
