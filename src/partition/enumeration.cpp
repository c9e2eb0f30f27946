#include "partition/enumeration.h"

#include <algorithm>
#include <cstdio>

#include "common/check.h"
#include "common/errors.h"
#include "partition/bell.h"
#include "partition/unrank.h"

namespace bcclb {

bool next_rgs(std::vector<std::uint32_t>& rgs) {
  const std::size_t n = rgs.size();
  // Scan from the right for a position we can increment while keeping the
  // restricted growth property; positions to its right reset to 0.
  for (std::size_t i = n; i-- > 1;) {
    std::uint32_t max_prefix = 0;
    for (std::size_t j = 0; j < i; ++j) max_prefix = std::max(max_prefix, rgs[j]);
    if (rgs[i] <= max_prefix) {
      ++rgs[i];
      std::fill(rgs.begin() + static_cast<std::ptrdiff_t>(i) + 1, rgs.end(), 0);
      return true;
    }
  }
  std::fill(rgs.begin(), rgs.end(), 0);
  return false;
}

void for_each_partition(std::size_t n, const std::function<bool(const SetPartition&)>& visit) {
  BCCLB_REQUIRE(n >= 1, "ground set must be nonempty");
  PartitionSlice slice(n, 0, checked_bell_u64(n));
  while (slice.next()) {
    if (!visit(SetPartition(slice.rgs()))) return;
  }
}

std::vector<SetPartition> all_partitions(std::size_t n) {
  // Materializing all B_n partitions is an in-RAM-only affair; past the
  // ceiling the footprint jumps into the gigabytes (B_13 = 27644437 RGS
  // vectors) and the streaming path (partition/unrank.h PartitionSlice) is
  // the supported route. The guard is typed so campaign planners can catch
  // it separately from generic argument errors.
  constexpr std::size_t kMaxAllPartitionsN = 12;
  BCCLB_REQUIRE(n >= 1, "ground set must be nonempty");
  if (n > kMaxAllPartitionsN) {
    const double count = n <= 25 ? static_cast<double>(bell_number_u64(n)) : 1e30;
    const double approx_bytes = count * static_cast<double>(n * 4 + 64);
    char footprint[64];
    std::snprintf(footprint, sizeof(footprint), "~%.1f GiB",
                  approx_bytes / (1024.0 * 1024.0 * 1024.0));
    throw RangeViolationError(
        "all_partitions(" + std::to_string(n) + "): materializing B_" + std::to_string(n) +
        " partitions (" + footprint + ") exceeds the in-RAM ceiling n <= " +
        std::to_string(kMaxAllPartitionsN) +
        " (B_12 = 4213597); stream a PartitionSlice (partition/unrank.h) instead");
  }
  PartitionSlice slice(n, 0, checked_bell_u64(n));
  std::vector<SetPartition> out;
  out.reserve(slice.remaining());
  while (slice.next()) out.emplace_back(slice.rgs());
  return out;
}

}  // namespace bcclb
