#include "comm/lower_bounds.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/mathutil.h"
#include "linalg/tiled_rank.h"
#include "partition/bell.h"

namespace bcclb {

double RankReport::log_rank_bound() const {
  const std::size_t r = std::max(rank_gf2, rank_modp);
  return r == 0 ? 0.0 : std::log2(static_cast<double>(r));
}

RankReport rank_report(const BoolMatrix& m) {
  BCCLB_REQUIRE(m.rows == m.cols, "join matrices are square");
  RankReport report;
  report.dimension = m.rows;
  const std::vector<std::uint64_t> bits = m.packed_rows();
  const std::size_t words = (m.cols + 63) / 64;
  report.rank_gf2 = packed_rank(m.rows, m.cols, words, bits.data(), RankField::kGf2, 0);
  // mod-p pass only when GF(2) already lost rank: on M_8 it takes ~1.1 s
  // against ~4 ms over GF(2) (4 threads on a 4-vCPU Xeon).
  if (report.rank_gf2 == m.rows) {
    report.rank_modp = report.rank_gf2;
  } else {
    report.rank_modp =
        packed_rank(m.rows, m.cols, words, bits.data(), RankField::kModp, kPrime30A);
  }
  report.full_rank = std::max(report.rank_gf2, report.rank_modp) == m.rows;
  return report;
}

RankReport partition_matrix_rank(std::size_t n) { return rank_report(partition_join_matrix(n)); }

RankReport two_partition_matrix_rank(std::size_t n) {
  return rank_report(two_partition_join_matrix(n));
}

double partition_cc_lower_bound(std::size_t n) { return log2_bell(n); }

double two_partition_cc_lower_bound(std::size_t n) { return log2_double_factorial_odd(n); }

std::uint64_t components_protocol_cost(std::size_t n) {
  return static_cast<std::uint64_t>(n) * std::max(1u, ceil_log2(n)) + 1;
}

double kt1_round_lower_bound(std::size_t ground_n, double cc_bound, unsigned bandwidth) {
  // Simulating one BCC(b) round on the 4n-vertex G(PA, PB): each party sends
  // the b-bit-or-silent broadcast of each of its 2n hosted vertices, i.e.
  // 2n * ceil(log2(2^b + 1)) bits each way per round.
  const double chars_per_party = 2.0 * static_cast<double>(ground_n);
  const double bits_per_char = std::log2(std::pow(2.0, bandwidth) + 1.0);
  const double per_round = 2.0 * chars_per_party * bits_per_char;
  return cc_bound / per_round;
}

}  // namespace bcclb
