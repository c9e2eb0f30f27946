#include "partition/bell.h"

#include <deque>
#include <mutex>
#include <vector>

#include "common/check.h"

namespace bcclb {

namespace {

constexpr std::size_t kMaxBellIndex = 1100;

// Bell triangle: row r starts with the last entry of row r-1; each next
// entry adds the entry above. B_n is the first entry of row n.
class BellCache {
 public:
  const BigUint& get(std::size_t n) {
    std::scoped_lock lock(mu_);
    BCCLB_REQUIRE(n <= kMaxBellIndex, "Bell index too large");
    while (bells_.size() <= n) grow();
    return bells_[n];
  }

 private:
  void grow() {
    if (bells_.empty()) {
      bells_.emplace_back(1);  // B_0
      row_ = {BigUint(1)};
      return;
    }
    std::vector<BigUint> next;
    next.reserve(row_.size() + 1);
    next.push_back(row_.back());
    for (const auto& above : row_) {
      next.push_back(next.back() + above);
    }
    row_ = std::move(next);
    bells_.push_back(row_.front());
  }

  std::mutex mu_;
  // deque: growth must not invalidate references handed to callers.
  std::deque<BigUint> bells_;
  std::vector<BigUint> row_;
};

class Stirling2Cache {
 public:
  const BigUint& get(std::size_t n, std::size_t k) {
    std::scoped_lock lock(mu_);
    BCCLB_REQUIRE(n <= kMaxBellIndex, "Stirling index too large");
    while (rows_.size() <= n) grow();
    BCCLB_REQUIRE(k < rows_[n].size(), "k out of range");
    return rows_[n][k];
  }

 private:
  void grow() {
    const std::size_t n = rows_.size();
    std::vector<BigUint> row(n + 1);
    if (n == 0) {
      row[0] = BigUint(1);  // S(0, 0) = 1
    } else {
      row[0] = BigUint(0);
      for (std::size_t k = 1; k <= n; ++k) {
        // S(n, k) = k * S(n-1, k) + S(n-1, k-1).
        BigUint term = (k < rows_[n - 1].size()) ? rows_[n - 1][k] : BigUint(0);
        term *= static_cast<std::uint32_t>(k);
        row[k] = term + rows_[n - 1][k - 1];
      }
    }
    rows_.push_back(std::move(row));
  }

  std::mutex mu_;
  std::deque<std::vector<BigUint>> rows_;
};

BellCache& bell_cache() {
  static BellCache cache;
  return cache;
}

Stirling2Cache& stirling_cache() {
  static Stirling2Cache cache;
  return cache;
}

}  // namespace

const BigUint& bell_number(std::size_t n) { return bell_cache().get(n); }

double log2_bell(std::size_t n) {
  const BigUint& b = bell_number(n);
  return b.is_zero() ? 0.0 : b.log2();
}

std::uint64_t bell_number_u64(std::size_t n) {
  const BigUint& b = bell_number(n);
  BCCLB_REQUIRE(b.fits_u64(), "Bell number exceeds 64 bits");
  return b.to_u64();
}

const BigUint& stirling2(std::size_t n, std::size_t k) { return stirling_cache().get(n, k); }

std::uint64_t predicted_join_rank(std::size_t n, std::uint64_t p) {
  BCCLB_REQUIRE(n >= 1 && n <= 25, "predicted_join_rank needs 1 <= n <= 25");
  BigUint rank;
  for (std::size_t k = 1; k <= n && k <= p; ++k) rank += stirling2(n, k);
  return rank.to_u64();
}

}  // namespace bcclb
