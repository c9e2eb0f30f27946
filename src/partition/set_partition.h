// Set partitions of [n] in restricted-growth-string canonical form.
//
// The KT-1 lower bounds (Section 4) all run through the lattice of set
// partitions: the Partition problem asks whether PA ∨ PB is the one-block
// partition, TwoPartition restricts inputs to perfect-matching partitions,
// and PartitionComp asks for the join itself. SetPartition implements the
// lattice (join and refinement order) with the join realized through
// union-find, exactly the "reachability" characterization in the proof of
// Theorem 4.3.
//
// Elements are 0-based internally; to_string prints 1-based to match the
// paper's (1, 2)(3, 4)(5) notation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bcclb {

class SetPartition {
 public:
  // Constructs from a restricted growth string: rgs[0] == 0 and
  // rgs[i] <= 1 + max(rgs[0..i-1]). rgs[i] is the block index of element i.
  explicit SetPartition(std::vector<std::uint32_t> rgs);

  // (0)(1)...(n-1): every element alone. The paper's "finest" PB in the
  // Theorem 4.5 hard distribution.
  static SetPartition finest(std::size_t n);

  // The one-block partition, written 1 in the paper.
  static SetPartition coarsest(std::size_t n);

  // From explicit blocks (need not be sorted); validates disjoint coverage.
  static SetPartition from_blocks(std::size_t n,
                                  const std::vector<std::vector<std::uint32_t>>& blocks);

  // From an arbitrary labeling (label[i] = any id of i's block); canonicalizes.
  static SetPartition from_labels(const std::vector<std::uint32_t>& labels);

  std::size_t ground_size() const { return rgs_.size(); }
  std::size_t num_blocks() const { return num_blocks_; }

  const std::vector<std::uint32_t>& rgs() const { return rgs_; }

  std::uint32_t block_of(std::size_t i) const;
  bool same_block(std::size_t i, std::size_t j) const;

  // Blocks as sorted element lists, in order of smallest element.
  std::vector<std::vector<std::uint32_t>> blocks() const;

  // The lattice join: the finest common coarsening (PA ∨ PB in the paper).
  SetPartition join(const SetPartition& other) const;

  // True when every block of *this is contained in a block of `other` —
  // "*this is a refinement of other" per the paper's footnote 2.
  bool refines(const SetPartition& other) const;

  bool is_finest() const { return num_blocks_ == rgs_.size(); }
  bool is_coarsest() const { return num_blocks_ <= 1; }

  // True when every block has exactly two elements (a TwoPartition input).
  bool is_perfect_matching() const;

  // 1-based block notation, e.g. "(1,2)(3,4)(5)".
  std::string to_string() const;

  friend bool operator==(const SetPartition&, const SetPartition&) = default;
  friend auto operator<=>(const SetPartition&, const SetPartition&) = default;

 private:
  std::vector<std::uint32_t> rgs_;
  std::uint32_t num_blocks_ = 0;
};

}  // namespace bcclb
