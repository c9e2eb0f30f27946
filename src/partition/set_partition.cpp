#include "partition/set_partition.h"

#include <algorithm>

#include "common/check.h"
#include "graph/union_find.h"

namespace bcclb {

SetPartition::SetPartition(std::vector<std::uint32_t> rgs) : rgs_(std::move(rgs)) {
  std::uint32_t max_seen = 0;
  for (std::size_t i = 0; i < rgs_.size(); ++i) {
    if (i == 0) {
      BCCLB_REQUIRE(rgs_[0] == 0, "restricted growth string must start with 0");
    } else {
      BCCLB_REQUIRE(rgs_[i] <= max_seen + 1, "restricted growth condition violated");
    }
    max_seen = std::max(max_seen, rgs_[i]);
  }
  num_blocks_ = rgs_.empty() ? 0 : max_seen + 1;
}

SetPartition SetPartition::finest(std::size_t n) {
  std::vector<std::uint32_t> rgs(n);
  for (std::size_t i = 0; i < n; ++i) rgs[i] = static_cast<std::uint32_t>(i);
  return SetPartition(std::move(rgs));
}

SetPartition SetPartition::coarsest(std::size_t n) {
  return SetPartition(std::vector<std::uint32_t>(n, 0));
}

SetPartition SetPartition::from_blocks(std::size_t n,
                                       const std::vector<std::vector<std::uint32_t>>& blocks) {
  constexpr std::uint32_t kUnset = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> label(n, kUnset);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    BCCLB_REQUIRE(!blocks[b].empty(), "empty block");
    for (std::uint32_t e : blocks[b]) {
      BCCLB_REQUIRE(e < n, "element out of range");
      BCCLB_REQUIRE(label[e] == kUnset, "element appears in two blocks");
      label[e] = static_cast<std::uint32_t>(b);
    }
  }
  for (std::size_t e = 0; e < n; ++e) {
    BCCLB_REQUIRE(label[e] != kUnset, "element missing from all blocks");
  }
  return from_labels(label);
}

SetPartition SetPartition::from_labels(const std::vector<std::uint32_t>& labels) {
  // Canonicalize: rename block ids in order of first appearance.
  constexpr std::uint32_t kUnset = static_cast<std::uint32_t>(-1);
  const std::uint32_t max_label =
      labels.empty() ? 0 : *std::max_element(labels.begin(), labels.end());
  std::vector<std::uint32_t> rename(static_cast<std::size_t>(max_label) + 1, kUnset);
  std::vector<std::uint32_t> rgs(labels.size());
  std::uint32_t next = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (rename[labels[i]] == kUnset) rename[labels[i]] = next++;
    rgs[i] = rename[labels[i]];
  }
  return SetPartition(std::move(rgs));
}

std::uint32_t SetPartition::block_of(std::size_t i) const {
  BCCLB_REQUIRE(i < rgs_.size(), "element out of range");
  return rgs_[i];
}

bool SetPartition::same_block(std::size_t i, std::size_t j) const {
  return block_of(i) == block_of(j);
}

std::vector<std::vector<std::uint32_t>> SetPartition::blocks() const {
  std::vector<std::vector<std::uint32_t>> out(num_blocks_);
  for (std::size_t i = 0; i < rgs_.size(); ++i) {
    out[rgs_[i]].push_back(static_cast<std::uint32_t>(i));
  }
  // RGS numbering already orders blocks by smallest element and fills each
  // block in increasing element order.
  return out;
}

SetPartition SetPartition::join(const SetPartition& other) const {
  BCCLB_REQUIRE(ground_size() == other.ground_size(), "ground sets differ");
  // Reachability closure (proof of Theorem 4.3): union i with the first
  // element of its block in both partitions.
  const std::size_t n = rgs_.size();
  UnionFind uf(n);
  std::vector<std::size_t> first_a(num_blocks_, SIZE_MAX);
  std::vector<std::size_t> first_b(other.num_blocks_, SIZE_MAX);
  for (std::size_t i = 0; i < n; ++i) {
    if (first_a[rgs_[i]] == SIZE_MAX) {
      first_a[rgs_[i]] = i;
    } else {
      uf.unite(first_a[rgs_[i]], i);
    }
    if (first_b[other.rgs_[i]] == SIZE_MAX) {
      first_b[other.rgs_[i]] = i;
    } else {
      uf.unite(first_b[other.rgs_[i]], i);
    }
  }
  const auto canon = uf.canonical_labels();
  std::vector<std::uint32_t> labels(n);
  for (std::size_t i = 0; i < n; ++i) labels[i] = static_cast<std::uint32_t>(canon[i]);
  return from_labels(labels);
}

bool SetPartition::refines(const SetPartition& other) const {
  BCCLB_REQUIRE(ground_size() == other.ground_size(), "ground sets differ");
  // *this refines other iff elements sharing a block here share one there,
  // i.e. the map (my block id -> other's block id) is well defined.
  constexpr std::uint32_t kUnset = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> image(num_blocks_, kUnset);
  for (std::size_t i = 0; i < rgs_.size(); ++i) {
    std::uint32_t& img = image[rgs_[i]];
    if (img == kUnset) {
      img = other.rgs_[i];
    } else if (img != other.rgs_[i]) {
      return false;
    }
  }
  return true;
}

bool SetPartition::is_perfect_matching() const {
  if (rgs_.size() % 2 != 0 || num_blocks_ * 2 != rgs_.size()) return false;
  std::vector<std::uint32_t> count(num_blocks_, 0);
  for (std::uint32_t b : rgs_) ++count[b];
  return std::all_of(count.begin(), count.end(), [](std::uint32_t c) { return c == 2; });
}

std::string SetPartition::to_string() const {
  std::string out;
  for (const auto& block : blocks()) {
    out += '(';
    for (std::size_t k = 0; k < block.size(); ++k) {
      if (k) out += ',';
      out += std::to_string(block[k] + 1);
    }
    out += ')';
  }
  return out;
}

}  // namespace bcclb
