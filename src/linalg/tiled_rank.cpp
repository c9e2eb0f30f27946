#include "linalg/tiled_rank.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "bcc/checkpoint.h"
#include "common/check.h"
#include "common/errors.h"
#include "common/parallel.h"
#include "partition/enumeration.h"
#include "partition/unrank.h"

namespace bcclb {

namespace {

std::string_view bytes_view(const std::vector<std::uint64_t>& words) {
  return {reinterpret_cast<const char*>(words.data()), words.size() * sizeof(std::uint64_t)};
}

// ---- join kernel -------------------------------------------------------------
//
// M_n(i, j) = 1 iff P_i ∨ P_j is the one-block partition, iff the blocks of
// P_j connect all k blocks of P_i. Columns run in RGS-lex order, so the
// columns whose RGS starts with a given prefix form one contiguous index
// range, of width D(n - len, max(prefix)) (partition/unrank.h).
// JoinRowWalker fills a row as one depth-first walk over those prefixes.
// Its state is a union-find over P_i's blocks without path compression, so
// a merge writes one parent entry, restored on the way back up;
// first[qb], the row block of the first element placed in column block qb;
// the component count c; and the next column index j. Once element e is
// placed:
//   c == 1          every completion joins to one block: the subtree's
//                   column range is all ones;
//   c - 1 > n-1-e   each remaining element merges at most one pair, so no
//                   completion reaches one block: all zeros, only j moves;
//   otherwise       descend to element e + 1.
// A leaf (e = n - 1) always meets one of the first two cases.

// ORs ones into bits [lo, hi) of a packed row; requires lo < hi.
void set_bit_range(std::uint64_t* row, std::uint64_t lo, std::uint64_t hi) {
  const std::uint64_t first_word = lo / 64;
  const std::uint64_t last_word = (hi - 1) / 64;
  const std::uint64_t head = ~0ULL << (lo % 64);
  const std::uint64_t tail = ~0ULL >> (63 - (hi - 1) % 64);
  if (first_word == last_word) {
    row[first_word] |= head & tail;
    return;
  }
  row[first_word] |= head;
  std::fill(row + first_word + 1, row + last_word, ~0ULL);
  row[last_word] |= tail;
}

class JoinRowWalker {
 public:
  // Copies D(m, a) for m + a <= n - 1, every width the walk can ask for.
  explicit JoinRowWalker(std::size_t n) : n_(n) {
    for (std::size_t m = 0; m < n; ++m) {
      for (std::size_t a = 0; m + a < n; ++a) width_[m][a] = rgs_extension_count(m, a);
    }
  }

  // ORs the row of P (its RGS over the n elements) into `out`.
  void fill_row(const std::vector<std::uint32_t>& p, std::uint64_t* out) {
    p_ = p.data();
    out_ = out;
    j_ = 0;
    components_ = *std::max_element(p.begin(), p.end()) + 1;
    for (std::uint32_t b = 0; b < components_; ++b) parent_[b] = b;
    first_[0] = p[0];
    visit(0, 0);
  }

 private:
  std::uint32_t find(std::uint32_t x) const {
    while (parent_[x] != x) x = parent_[x];
    return x;
  }

  // Element e has just been placed and the prefix maximum is a.
  void visit(std::size_t e, std::uint32_t a) {
    const std::size_t rest = n_ - 1 - e;
    const std::uint64_t width = width_[rest][a];
    if (components_ == 1) {
      set_bit_range(out_, j_, j_ + width);
    } else if (components_ - 1 <= rest) {
      branch(e + 1, a);
      return;
    }
    j_ += width;
  }

  // Tries each column block v of element e, 0..a+1 in lex order.
  void branch(std::size_t e, std::uint32_t a) {
    const std::uint32_t pb = find(p_[e]);
    for (std::uint32_t v = 0; v <= a; ++v) {
      const std::uint32_t other = find(first_[v]);
      if (other == pb) {
        visit(e, a);
        continue;
      }
      parent_[other] = pb;
      --components_;
      visit(e, a);
      parent_[other] = other;
      ++components_;
    }
    first_[a + 1] = p_[e];
    visit(e, a + 1);
  }

  std::size_t n_;
  std::uint64_t width_[kMaxUnrankN][kMaxUnrankN] = {};
  std::uint32_t parent_[kMaxUnrankN] = {};
  std::uint32_t first_[kMaxUnrankN] = {};
  const std::uint32_t* p_ = nullptr;
  std::uint64_t* out_ = nullptr;
  std::uint64_t j_ = 0;
  std::uint32_t components_ = 0;
};

}  // namespace

std::uint64_t modp_inverse(std::uint64_t x, std::uint64_t p) {
  BCCLB_REQUIRE(x % p != 0, "zero has no inverse");
  const auto mulmod = [p](std::uint64_t a, std::uint64_t b) {
    return static_cast<std::uint64_t>((static_cast<unsigned __int128>(a) * b) % p);
  };
  std::uint64_t result = 1;
  std::uint64_t base = x % p;
  for (std::uint64_t e = p - 2; e != 0; e >>= 1) {
    if (e & 1) result = mulmod(result, base);
    base = mulmod(base, base);
  }
  return result;
}

const char* rank_field_name(RankField field) {
  return field == RankField::kGf2 ? "gf2" : "modp";
}

std::optional<RankField> parse_rank_field(std::string_view text) {
  if (text == "gf2") return RankField::kGf2;
  if (text == "modp") return RankField::kModp;
  return std::nullopt;
}

JoinTile generate_join_tile(std::size_t n, std::size_t row_lo, std::size_t row_hi,
                            unsigned threads) {
  const std::uint64_t bell = checked_bell_u64(n);
  if (row_lo > row_hi || row_hi > bell) {
    throw RangeViolationError("generate_join_tile: rows [" + std::to_string(row_lo) + ", " +
                              std::to_string(row_hi) + ") is not a subrange of [0, B_" +
                              std::to_string(n) + " = " + std::to_string(bell) + ")");
  }
  JoinTile tile;
  tile.row_lo = row_lo;
  tile.rows = row_hi - row_lo;
  tile.cols = static_cast<std::size_t>(bell);
  tile.words_per_row = (tile.cols + 63) / 64;
  tile.bits.assign(tile.rows * tile.words_per_row, 0);
  if (tile.rows == 0) {
    tile.digest = fnv1a(bytes_view(tile.bits));
    return tile;
  }
  // Rows shard across threads; each worker unranks its first row once,
  // advances with next_rgs, and walks each row's columns with its own
  // JoinRowWalker. Every bit is a pure function of (row index, column
  // index), so the packed words are identical at any thread count.
  parallel_for_blocks(tile.rows, threads, [&](std::size_t begin, std::size_t end) {
    std::vector<std::uint32_t> row_rgs;
    unrank_rgs(n, row_lo + begin, row_rgs);
    JoinRowWalker walker(n);
    for (std::size_t r = begin; r < end; ++r) {
      if (r > begin) next_rgs(row_rgs);
      walker.fill_row(row_rgs, &tile.bits[r * tile.words_per_row]);
    }
  });
  for (const std::uint64_t w : tile.bits) {
    tile.ones += static_cast<std::uint64_t>(__builtin_popcountll(w));
  }
  tile.digest = fnv1a(bytes_view(tile.bits));
  return tile;
}

namespace {

// ---- pivot storage -----------------------------------------------------------
//
// Pivot rows live in per-tile segments: the new pivots a tile contributed,
// serialized row-major in the field's native layout (u64 words for GF(2),
// u32 entries for mod p). The disk store keeps RAM bounded — reduction
// streams row ranges through one chunk buffer; the memory store backs
// directory-less runs (tests, small n).

class PivotStore {
 public:
  virtual ~PivotStore() = default;
  // Persists a tile's segment; returns the FNV-1a digest of its bytes.
  virtual std::uint64_t append_segment(std::size_t tile_index, std::string_view bytes) = 0;
  // Re-registers a previously persisted segment (resume); verifies size and
  // digest and returns its bytes for pivot-column recovery.
  virtual std::string reload_segment(std::size_t tile_index, std::size_t expect_bytes,
                                     std::uint64_t expect_digest) = 0;
  // Reads rows [row_begin, row_end) of the ordinal-th registered segment
  // into `out` (u64-aligned so the caller can reinterpret rows in the
  // field's native layout; resized to the rounded-up word count).
  virtual void read_rows(std::size_t ordinal, std::size_t row_begin, std::size_t row_end,
                         std::size_t row_bytes, std::vector<std::uint64_t>& out) = 0;
  virtual std::uint64_t resident_bytes() const { return 0; }
};

class MemoryPivotStore final : public PivotStore {
 public:
  std::uint64_t append_segment(std::size_t, std::string_view bytes) override {
    resident_ += bytes.size();
    segments_.emplace_back(bytes);
    return fnv1a(bytes);
  }

  std::string reload_segment(std::size_t, std::size_t, std::uint64_t) override {
    throw CheckpointError("tiled rank: resume requires a checkpoint directory");
  }

  void read_rows(std::size_t ordinal, std::size_t row_begin, std::size_t row_end,
                 std::size_t row_bytes, std::vector<std::uint64_t>& out) override {
    const std::string& seg = segments_[ordinal];
    const std::size_t bytes = (row_end - row_begin) * row_bytes;
    out.assign((bytes + 7) / 8, 0);
    std::memcpy(out.data(), seg.data() + row_begin * row_bytes, bytes);
  }

  std::uint64_t resident_bytes() const override { return resident_; }

 private:
  std::vector<std::string> segments_;
  std::uint64_t resident_ = 0;
};

class DiskPivotStore final : public PivotStore {
 public:
  explicit DiskPivotStore(std::string dir) : dir_(std::move(dir)) {}

  std::uint64_t append_segment(std::size_t tile_index, std::string_view bytes) override {
    const std::string path = rank_segment_path(dir_, tile_index);
    write_file_atomic(path, bytes);
    paths_.push_back(path);
    return fnv1a(bytes);
  }

  std::string reload_segment(std::size_t tile_index, std::size_t expect_bytes,
                             std::uint64_t expect_digest) override {
    const std::string path = rank_segment_path(dir_, tile_index);
    std::string bytes = read_file(path);  // CheckpointError when missing
    if (bytes.size() != expect_bytes || fnv1a(bytes) != expect_digest) {
      throw CheckpointError("tiled rank: segment " + path + " fails integrity (" +
                            std::to_string(bytes.size()) + " bytes, digest " +
                            digest_hex(fnv1a(bytes)) + ", checkpoint expects " +
                            std::to_string(expect_bytes) + " bytes, digest " +
                            digest_hex(expect_digest) + ")");
    }
    paths_.push_back(path);
    return bytes;
  }

  void read_rows(std::size_t ordinal, std::size_t row_begin, std::size_t row_end,
                 std::size_t row_bytes, std::vector<std::uint64_t>& out) override {
    const std::string& path = paths_[ordinal];
    std::ifstream in(path, std::ios::binary);
    if (!in) throw CheckpointError("tiled rank: cannot open segment " + path);
    const std::size_t bytes = (row_end - row_begin) * row_bytes;
    in.seekg(static_cast<std::streamoff>(row_begin * row_bytes));
    out.assign((bytes + 7) / 8, 0);
    in.read(reinterpret_cast<char*>(out.data()), static_cast<std::streamsize>(bytes));
    if (static_cast<std::size_t>(in.gcount()) != bytes) {
      throw CheckpointError("tiled rank: short read from segment " + path);
    }
  }

 private:
  std::string dir_;
  std::vector<std::string> paths_;
};

struct SegmentMeta {
  std::size_t tile_index = 0;
  std::size_t rows = 0;
  std::uint64_t digest = 0;
};

// ---- pivot chunk skipping ----------------------------------------------------

// Tile rows that are nonzero at any of a chunk's pivot columns. Every other
// row solves to all-zero coefficients for every pivot of the chunk (by
// induction over the triangular in-batch solve: f_j = r[c_j] - sum_{i<j}
// f_i q_i[c_j] = 0), so the chunk leaves it unchanged.
template <typename NonzeroAt>
void rows_touching(std::size_t rows, const std::uint64_t* cols, std::size_t count,
                   const NonzeroAt& nonzero_at, std::vector<std::size_t>& active) {
  active.clear();
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t j = 0; j < count; ++j) {
      if (nonzero_at(r, cols[j])) {
        active.push_back(r);
        break;
      }
    }
  }
}

// ---- GF(2) elimination -------------------------------------------------------

// A worker builds a 256-entry four-Russians table per batch only when it owns
// at least this many rows; below that, direct XORs are cheaper.
constexpr std::size_t kGf2TableMinRows = 64;

inline bool gf2_bit(const std::uint64_t* row, std::uint64_t c) {
  return (row[c / 64] >> (c % 64)) & 1ULL;
}

inline void gf2_xor(std::uint64_t* row, const std::uint64_t* other, std::size_t words) {
  for (std::size_t w = 0; w < words; ++w) row[w] ^= other[w];
}

// Reduces the `active` work rows against pivots q_0..q_{count-1}
// (consecutive in global insertion order) in one parallel region: each
// worker runs every batch, in order, over its own rows. Batches of <= 8: the
// in-batch dependency is triangular (an earlier pivot row may be nonzero at a
// later pivot's column, never vice versa), so the batch coefficients solve in
// 8 bit steps; then one XOR-combination — via a worker-local 2^s
// four-Russians table when the worker has enough rows to amortize it —
// clears all s columns at once. XOR is exact, so table and direct paths, any
// batching, and any thread split produce identical rows.
void gf2_reduce_rows(std::uint64_t* work, const std::vector<std::size_t>& active,
                     std::size_t words, const std::uint64_t* pivots, const std::uint64_t* cols,
                     std::size_t count, unsigned threads) {
  parallel_for_blocks(active.size(), threads, [&](std::size_t begin, std::size_t end) {
    const bool use_table = end - begin >= kGf2TableMinRows;
    std::vector<std::uint64_t> table;
    for (std::size_t b = 0; b < count; b += 8) {
      const std::size_t s = std::min<std::size_t>(8, count - b);
      const std::uint64_t* q[8];
      std::uint64_t c[8];
      std::uint8_t tri[8] = {0, 0, 0, 0, 0, 0, 0, 0};  // tri[j] bit i = q_i[c_j], i < j
      for (std::size_t j = 0; j < s; ++j) {
        q[j] = pivots + (b + j) * words;
        c[j] = cols[b + j];
      }
      for (std::size_t j = 1; j < s; ++j) {
        for (std::size_t i = 0; i < j; ++i) {
          if (gf2_bit(q[i], c[j])) tri[j] |= static_cast<std::uint8_t>(1U << i);
        }
      }
      // Pivot rows are zero before their lead, so the sweep starts at the
      // word holding the batch's smallest lead.
      const std::size_t w0 = static_cast<std::size_t>(*std::min_element(c, c + s) / 64);
      const std::size_t span = words - w0;
      if (use_table) {
        table.resize((std::size_t{1} << s) * span);
        std::fill(table.begin(), table.begin() + static_cast<std::ptrdiff_t>(span), 0);
        for (std::size_t m = 1; m < (std::size_t{1} << s); ++m) {
          const std::size_t lsb = static_cast<std::size_t>(__builtin_ctzll(m));
          std::uint64_t* dst = &table[m * span];
          std::memcpy(dst, &table[(m & (m - 1)) * span], span * sizeof(std::uint64_t));
          gf2_xor(dst, q[lsb] + w0, span);
        }
      }
      for (std::size_t k = begin; k < end; ++k) {
        std::uint64_t* row = work + active[k] * words;
        std::uint32_t mask = 0;
        for (std::size_t j = 0; j < s; ++j) {
          const std::uint32_t f =
              static_cast<std::uint32_t>(gf2_bit(row, c[j])) ^
              (static_cast<std::uint32_t>(__builtin_popcount(mask & tri[j])) & 1U);
          mask |= f << j;
        }
        if (mask == 0) continue;
        if (use_table) {
          gf2_xor(row + w0, &table[static_cast<std::size_t>(mask) * span], span);
        } else {
          for (std::size_t j = 0; j < s; ++j) {
            if (mask & (1U << j)) gf2_xor(row + w0, q[j] + w0, span);
          }
        }
      }
    }
  });
}

// ---- mod-p elimination -------------------------------------------------------

// Same region and batch structure as gf2_reduce_rows. Solves the triangular
// batch coefficients f_j = (r[c_j] - sum_{i<j} f_i * q_i[c_j]) mod p, then
// applies r -= sum f_j q_j with raw u64 accumulation: 8 products below 2^60
// plus carries stay below 2^63, so one % p per entry per 8 pivots. Modular
// arithmetic is exact — batching/chunking/threads cannot change the reduced
// row.
void modp_reduce_rows(std::uint32_t* work, const std::vector<std::size_t>& active,
                      std::size_t cols, std::uint64_t p, const std::uint32_t* pivots,
                      const std::uint64_t* pivot_cols, std::size_t count, unsigned threads) {
  parallel_for_blocks(active.size(), threads, [&](std::size_t begin, std::size_t end) {
    for (std::size_t b = 0; b < count; b += 8) {
      const std::size_t s = std::min<std::size_t>(8, count - b);
      const std::uint32_t* q[8];
      std::uint64_t c[8];
      for (std::size_t j = 0; j < s; ++j) {
        q[j] = pivots + (b + j) * cols;
        c[j] = pivot_cols[b + j];
      }
      // Pivot rows are zero before their lead: sweep from the smallest one.
      const std::size_t lead = static_cast<std::size_t>(*std::min_element(c, c + s));
      for (std::size_t k = begin; k < end; ++k) {
        std::uint32_t* row = work + active[k] * cols;
        std::uint64_t f[8] = {0, 0, 0, 0, 0, 0, 0, 0};
        bool any = false;
        for (std::size_t j = 0; j < s; ++j) {
          std::uint64_t acc = 0;
          for (std::size_t i = 0; i < j; ++i) acc += f[i] * q[i][c[j]];
          const std::uint64_t sub = acc % p;
          const std::uint64_t rv = row[c[j]];
          f[j] = rv >= sub ? rv - sub : rv + p - sub;
          any = any || f[j] != 0;
        }
        if (!any) continue;
        for (std::size_t x = lead; x < cols; ++x) {
          std::uint64_t acc = 0;
          for (std::size_t j = 0; j < s; ++j) acc += f[j] * q[j][x];
          if (acc == 0) continue;
          const std::uint64_t sub = acc % p;
          const std::uint64_t v = row[x];
          row[x] = static_cast<std::uint32_t>(v >= sub ? v - sub : v + p - sub);
        }
      }
    }
  });
}

// ---- one tile of elimination -------------------------------------------------
//
// The per-tile body both entry points run. The tile's packed 0/1 rows take
// the field's working layout (GF(2) eliminates the packed words in place;
// mod p widens them to u32 entries), are reduced against every earlier pivot
// (phase 1), and the survivors are inserted in row order as new pivots
// (phase 2). Earlier pivots arrive in chunks through the caller's `read`:
// tiled_partition_rank streams them from its PivotStore, packed_rank hands
// out slices of a RAM buffer.
class TileEliminator {
 public:
  TileEliminator(RankField field, std::uint64_t prime, std::size_t cols, unsigned threads)
      : field_(field),
        prime_(prime),
        cols_(cols),
        words_((cols + 63) / 64),
        row_bytes_(field == RankField::kGf2 ? words_ * sizeof(std::uint64_t)
                                            : cols * sizeof(std::uint32_t)),
        threads_(threads) {
    if (field == RankField::kModp) {
      BCCLB_REQUIRE(prime >= 2 && prime < (1ULL << 30),
                    "tiled rank needs a prime below 2^30 (deferred reduction bound)");
    }
  }

  std::size_t row_bytes() const { return row_bytes_; }

  // Eliminates `rows` rows of `bits` ((cols + 63) / 64 words each) against
  // the pivots of `segments`, whose lead columns are `pivot_cols` in
  // insertion order. read(s, begin, end) returns rows [begin, end) of
  // segment s in field layout; a chunk never spans two segments and holds at
  // most chunk_rows rows. stop() is polled after every chunk: when it is
  // true the tile is abandoned and eliminate returns false.
  template <typename Read, typename Stop>
  bool eliminate(std::vector<std::uint64_t> bits, std::size_t rows,
                 const std::vector<SegmentMeta>& segments,
                 const std::vector<std::uint64_t>& pivot_cols, std::size_t chunk_rows,
                 const Read& read, const Stop& stop) {
    if (field_ == RankField::kGf2) {
      gf2_work_ = std::move(bits);
    } else {
      modp_work_.assign(rows * cols_, 0);
      parallel_for_blocks(rows, threads_, [&](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
          for (std::size_t w = 0; w < words_; ++w) {
            std::uint64_t word = bits[r * words_ + w];
            while (word) {
              const std::size_t bit = static_cast<std::size_t>(__builtin_ctzll(word));
              modp_work_[r * cols_ + w * 64 + bit] = 1;
              word &= word - 1;
            }
          }
        }
      });
      bits.clear();
      bits.shrink_to_fit();
    }

    // Phase 1: reduce the whole tile against every prior pivot, chunk by
    // chunk in insertion order. A chunk is read and applied only when some
    // tile row is nonzero at one of its pivot columns.
    std::size_t applied = 0;
    for (std::size_t s = 0; s < segments.size(); ++s) {
      for (std::size_t cb = 0; cb < segments[s].rows; cb += chunk_rows) {
        const std::size_t nc = std::min(chunk_rows, segments[s].rows - cb);
        const std::uint64_t* cols = pivot_cols.data() + applied;
        if (field_ == RankField::kGf2) {
          rows_touching(rows, cols, nc, [&](std::size_t r, std::uint64_t c) {
            return gf2_bit(gf2_work_.data() + r * words_, c);
          }, active_);
        } else {
          rows_touching(rows, cols, nc, [&](std::size_t r, std::uint64_t c) {
            return modp_work_[r * cols_ + c] != 0;
          }, active_);
        }
        if (active_.empty()) {
          ++chunks_skipped;
        } else {
          ++chunks_read;
          const void* pivots = read(s, cb, cb + nc);
          if (field_ == RankField::kGf2) {
            gf2_reduce_rows(gf2_work_.data(), active_, words_,
                            static_cast<const std::uint64_t*>(pivots), cols, nc, threads_);
          } else {
            modp_reduce_rows(modp_work_.data(), active_, cols_, prime_,
                             static_cast<const std::uint32_t*>(pivots), cols, nc, threads_);
          }
        }
        applied += nc;
        if (stop()) return false;
      }
    }

    // Phase 2: in-tile insertion, sequential in row order — the pivot set
    // (and therefore the rank) depends only on the global row order.
    gf2_new_seg_.clear();
    modp_new_seg_.clear();
    new_cols_.clear();
    if (field_ == RankField::kGf2) {
      for (std::size_t r = 0; r < rows; ++r) {
        std::uint64_t* row = gf2_work_.data() + r * words_;
        for (std::size_t jp = 0; jp < new_cols_.size(); ++jp) {
          if (gf2_bit(row, new_cols_[jp])) {
            const std::size_t w0 = static_cast<std::size_t>(new_cols_[jp] / 64);
            gf2_xor(row + w0, gf2_new_seg_.data() + jp * words_ + w0, words_ - w0);
          }
        }
        for (std::size_t w = 0; w < words_; ++w) {
          if (row[w]) {
            new_cols_.push_back(w * 64 + static_cast<std::uint64_t>(__builtin_ctzll(row[w])));
            gf2_new_seg_.insert(gf2_new_seg_.end(), row, row + words_);
            break;
          }
        }
      }
    } else {
      const std::uint64_t p = prime_;
      for (std::size_t r = 0; r < rows; ++r) {
        std::uint32_t* row = modp_work_.data() + r * cols_;
        for (std::size_t jp = 0; jp < new_cols_.size(); ++jp) {
          const std::uint64_t f = row[new_cols_[jp]];
          if (f == 0) continue;
          const std::uint32_t* q = modp_new_seg_.data() + jp * cols_;
          for (std::size_t x = static_cast<std::size_t>(new_cols_[jp]); x < cols_; ++x) {
            const std::uint64_t sub = (f * q[x]) % p;
            const std::uint64_t v = row[x];
            row[x] = static_cast<std::uint32_t>(v >= sub ? v - sub : v + p - sub);
          }
        }
        std::size_t lead = 0;
        while (lead < cols_ && row[lead] == 0) ++lead;
        if (lead == cols_) continue;
        if (row[lead] != 1) {
          const std::uint64_t inv = modp_inverse(row[lead], p);
          for (std::size_t x = lead; x < cols_; ++x) {
            row[x] = static_cast<std::uint32_t>((row[x] * inv) % p);
          }
        }
        new_cols_.push_back(lead);
        modp_new_seg_.insert(modp_new_seg_.end(), row, row + cols_);
      }
    }
    return true;
  }

  // The last eliminated tile's new pivots: lead columns, and rows in field
  // layout (the bytes of its segment).
  const std::vector<std::uint64_t>& new_cols() const { return new_cols_; }
  std::string_view new_segment() const {
    if (field_ == RankField::kGf2) {
      return {reinterpret_cast<const char*>(gf2_new_seg_.data()),
              gf2_new_seg_.size() * sizeof(std::uint64_t)};
    }
    return {reinterpret_cast<const char*>(modp_new_seg_.data()),
            modp_new_seg_.size() * sizeof(std::uint32_t)};
  }

  // Appends the new pivot rows to an in-RAM pool in field layout (GF(2) rows
  // to `gf2`, mod-p rows to `modp`).
  void append_new_rows(std::vector<std::uint64_t>& gf2, std::vector<std::uint32_t>& modp) const {
    gf2.insert(gf2.end(), gf2_new_seg_.begin(), gf2_new_seg_.end());
    modp.insert(modp.end(), modp_new_seg_.begin(), modp_new_seg_.end());
  }

  // Pivot chunks visited so far: read and applied, or skipped untouched.
  std::size_t chunks_read = 0;
  std::size_t chunks_skipped = 0;

 private:
  RankField field_;
  std::uint64_t prime_;
  std::size_t cols_;
  std::size_t words_;
  std::size_t row_bytes_;
  unsigned threads_;
  std::vector<std::size_t> active_;          // tile rows the current chunk changes
  std::vector<std::uint64_t> gf2_work_;
  std::vector<std::uint32_t> modp_work_;
  std::vector<std::uint64_t> gf2_new_seg_;   // staged new pivot rows (GF(2))
  std::vector<std::uint32_t> modp_new_seg_;  // staged new pivot rows (mod p)
  std::vector<std::uint64_t> new_cols_;
};

// ---- checkpoint serialization ------------------------------------------------

struct RankState {
  std::size_t tiles_done = 0;
  std::size_t rank = 0;
  std::uint64_t chain = 0;
  std::vector<SegmentMeta> segments;
  std::vector<std::string> tile_lines;
};

std::string rank_header(const TiledRankConfig& cfg, std::uint64_t dimension,
                        std::size_t tiles_total) {
  std::ostringstream out;
  out << "bcclb-rank v1\n";
  out << "n " << cfg.n << "\n";
  out << "field " << rank_field_name(cfg.field) << "\n";
  out << "prime " << (cfg.field == RankField::kModp ? cfg.prime : 0) << "\n";
  out << "tile-rows " << cfg.tile_rows << "\n";
  out << "dimension " << dimension << "\n";
  out << "tiles-total " << tiles_total << "\n";
  return out.str();
}

std::string render_checkpoint(const std::string& header, const RankState& st) {
  std::ostringstream out;
  out << header;
  out << "tiles-done " << st.tiles_done << "\n";
  out << "rank " << st.rank << "\n";
  out << "chain " << digest_hex(st.chain) << "\n";
  for (const std::string& line : st.tile_lines) out << line << "\n";
  return out.str();
}

[[noreturn]] void bad_checkpoint(const std::string& path, const std::string& why) {
  throw CheckpointError("tiled rank checkpoint " + path + ": " + why);
}

// Reads a checkpoint written by render_checkpoint. Tile lines are kept as
// read, and the chain is re-derived from them exactly as the run loop extends
// it, so a rewritten tile record cannot resume under the old certificate.
RankState parse_checkpoint(const std::string& path, const std::string& expected_header,
                           std::size_t tiles_total, std::size_t tile_rows,
                           std::uint64_t dimension) {
  const std::string body = read_snapshot(path);
  RecordReader in(body, "tiled rank checkpoint " + path);
  in.expect_bytes(expected_header,
                  "header does not match this configuration (n/field/prime/tile-rows)");
  RankState st;
  st.tiles_done = in.u64(in.next({"tiles-done", ""})[1]);
  if (st.tiles_done > tiles_total) in.fail("tiles-done exceeds tiles-total");
  st.rank = in.u64(in.next({"rank", ""})[1]);
  const std::uint64_t recorded_chain = in.digest(in.next({"chain", ""})[1]);
  st.chain = fnv1a(expected_header);
  std::size_t pivot_total = 0;
  for (std::size_t t = 0; t < st.tiles_done; ++t) {
    const auto tile =
        in.next({"tile", "", "rows", "", "", "ones", "", "bits", "", "pivots", "", "seg", ""});
    const std::size_t lo = t * tile_rows;
    if (in.u64(tile[1]) != t) in.fail("expected the record for tile " + std::to_string(t));
    const std::size_t hi = std::min<std::size_t>(dimension, lo + tile_rows);
    if (in.u64(tile[3]) != lo || in.u64(tile[4]) != hi) {
      in.fail("tile " + std::to_string(t) + " has inconsistent row range");
    }
    in.u64(tile[6]);  // ones and bits are not needed to resume, only validated
    in.digest(tile[8]);
    const SegmentMeta seg{t, static_cast<std::size_t>(in.u64(tile[10])), in.digest(tile[12])};
    st.segments.push_back(seg);
    pivot_total += seg.rows;
    st.tile_lines.emplace_back(in.line());
    st.chain = fnv1a(digest_hex(st.chain) + "\n" + st.tile_lines.back());
  }
  in.expect_end();
  if (st.chain != recorded_chain) in.fail("chain digest does not match the tile records");
  if (pivot_total != st.rank) in.fail("per-tile pivot counts do not sum to rank");
  return st;
}

}  // namespace

std::string rank_checkpoint_path(const std::string& dir) { return dir + "/rank-checkpoint.bcclb"; }

std::string rank_segment_path(const std::string& dir, std::size_t tile_index) {
  char name[32];
  std::snprintf(name, sizeof(name), "/seg-%06zu.bin", tile_index);
  return dir + name;
}

std::size_t packed_rank(std::size_t rows, std::size_t cols, std::size_t words_per_row,
                        const std::uint64_t* bits, RankField field, std::uint64_t prime,
                        unsigned threads) {
  // Fixed, not a knob: every tile runs phase 1 against every earlier pivot
  // chunk, one parallel region per chunk, so short tiles pay thread start-up
  // more often.
  constexpr std::size_t kTileRows = 256;
  const std::size_t words = (cols + 63) / 64;
  BCCLB_REQUIRE(words_per_row >= words, "packed rows are narrower than cols");
  if (cols == 0) return 0;
  TileEliminator eliminator(field, prime, cols, threads);
  const std::uint64_t tail_mask = cols % 64 == 0 ? ~0ULL : (1ULL << (cols % 64)) - 1;
  // All pivots so far form one segment in RAM, read kTileRows at a time.
  std::vector<SegmentMeta> pool(1);
  std::vector<std::uint64_t> pivot_cols;
  std::vector<std::uint64_t> gf2_pivots;  // the pool's rows in field layout
  std::vector<std::uint32_t> modp_pivots;
  const auto read = [&](std::size_t, std::size_t begin, std::size_t) -> const void* {
    if (field == RankField::kGf2) return gf2_pivots.data() + begin * words;
    return modp_pivots.data() + begin * cols;
  };
  for (std::size_t lo = 0; lo < rows; lo += kTileRows) {
    const std::size_t tile_rows = std::min(kTileRows, rows - lo);
    std::vector<std::uint64_t> tile(tile_rows * words);
    for (std::size_t r = 0; r < tile_rows; ++r) {
      std::memcpy(&tile[r * words], bits + (lo + r) * words_per_row,
                  words * sizeof(std::uint64_t));
      tile[r * words + words - 1] &= tail_mask;
    }
    eliminator.eliminate(std::move(tile), tile_rows, pool, pivot_cols, kTileRows, read,
                         [] { return false; });
    eliminator.append_new_rows(gf2_pivots, modp_pivots);
    const std::vector<std::uint64_t>& cols_new = eliminator.new_cols();
    pivot_cols.insert(pivot_cols.end(), cols_new.begin(), cols_new.end());
    pool[0].rows = pivot_cols.size();
  }
  return pivot_cols.size();
}

std::size_t join_tile_rank(const JoinTile& tile, RankField field, std::uint64_t prime) {
  return packed_rank(tile.rows, tile.cols, tile.words_per_row, tile.bits.data(), field, prime);
}

TiledRankReport tiled_partition_rank(const TiledRankConfig& cfg) {
  const std::uint64_t bell = checked_bell_u64(cfg.n);
  const std::size_t dimension = static_cast<std::size_t>(bell);
  if (cfg.tile_rows < 1) {
    throw RangeViolationError("tiled rank: tile-rows must be at least 1");
  }
  // Fermat inverses need a prime modulus. Trial division up to sqrt(2^30);
  // the eliminator refuses anything larger.
  if (cfg.field == RankField::kModp && cfg.prime < (1ULL << 30)) {
    bool prime = cfg.prime >= 2;
    for (std::uint64_t d = 2; prime && d * d <= cfg.prime; ++d) prime = cfg.prime % d != 0;
    if (!prime) {
      throw RangeViolationError("tiled rank: modulus " + std::to_string(cfg.prime) +
                                " is not prime");
    }
  }
  TileEliminator eliminator(cfg.field, cfg.prime, dimension, cfg.threads);
  const std::size_t K = cfg.tile_rows;
  const std::size_t words = (dimension + 63) / 64;
  const std::size_t row_bytes = eliminator.row_bytes();
  const std::size_t tiles_total = (dimension + K - 1) / K;

  // Resident footprint: the packed tile bits, the field-native working tile,
  // the new-segment staging buffer, one four-Russians table per worker that
  // owns enough rows to build one, and the pivot chunk buffer (the only part
  // the budget can shrink).
  const std::size_t tile_bits_bytes = K * words * sizeof(std::uint64_t);
  const std::size_t work_bytes = K * row_bytes;
  const std::size_t workers = cfg.threads > 0 ? cfg.threads : default_parallel_threads();
  const std::size_t gf2_tables =
      cfg.field == RankField::kGf2 ? std::min(workers, K / kGf2TableMinRows) : 0;
  const std::size_t fixed_bytes = tile_bits_bytes +
                                  (cfg.field == RankField::kModp ? work_bytes : 0) + work_bytes +
                                  gf2_tables * 256 * words * sizeof(std::uint64_t);
  std::size_t chunk_rows = 4096;
  if (cfg.mem_budget_bytes > 0) {
    const std::size_t min_bytes = fixed_bytes + 8 * row_bytes;
    if (cfg.mem_budget_bytes < min_bytes) {
      throw ResourceBudgetError(
          "tiled rank: one tile of " + std::to_string(K) + " rows needs >= " +
          std::to_string(min_bytes) + " bytes resident but the budget is " +
          std::to_string(cfg.mem_budget_bytes) + " bytes; lower --tile-rows");
    }
    chunk_rows = std::min<std::size_t>(
        chunk_rows, (cfg.mem_budget_bytes - fixed_bytes) / row_bytes);
  }
  chunk_rows = std::max<std::size_t>(chunk_rows, 8);
  // A chunk never spans two segments, and a segment holds at most K rows.
  const std::size_t chunk_bytes = std::min(chunk_rows, K) * row_bytes;

  std::unique_ptr<PivotStore> store;
  const std::string ckpt_path = cfg.dir.empty() ? std::string() : rank_checkpoint_path(cfg.dir);
  if (cfg.dir.empty()) {
    if (cfg.resume) throw CheckpointError("tiled rank: --resume requires a directory");
    store = std::make_unique<MemoryPivotStore>();
  } else {
    std::error_code ec;
    std::filesystem::create_directories(cfg.dir, ec);
    store = std::make_unique<DiskPivotStore>(cfg.dir);
  }

  const std::string header = rank_header(cfg, dimension, tiles_total);
  RankState st;
  st.chain = fnv1a(header);
  std::vector<std::uint64_t> pivot_cols;  // global insertion order

  if (cfg.resume) {
    st = parse_checkpoint(ckpt_path, header, tiles_total, K, dimension);
    // Re-register every segment, verifying bytes against the recorded
    // digests, and recover the pivot columns from the rows themselves.
    std::vector<std::uint64_t> row_scratch((row_bytes + 7) / 8);
    for (const SegmentMeta& seg : st.segments) {
      const std::string bytes = store->reload_segment(seg.tile_index, seg.rows * row_bytes,
                                                      seg.digest);
      for (std::size_t r = 0; r < seg.rows; ++r) {
        std::memcpy(row_scratch.data(), bytes.data() + r * row_bytes, row_bytes);
        std::uint64_t lead = dimension;
        if (cfg.field == RankField::kGf2) {
          for (std::size_t w = 0; w < words; ++w) {
            if (row_scratch[w]) {
              lead = w * 64 + static_cast<std::uint64_t>(__builtin_ctzll(row_scratch[w]));
              break;
            }
          }
        } else {
          const auto* vr = reinterpret_cast<const std::uint32_t*>(row_scratch.data());
          for (std::size_t x = 0; x < dimension; ++x) {
            if (vr[x]) {
              lead = x;
              break;
            }
          }
        }
        if (lead >= dimension) bad_checkpoint(ckpt_path, "segment contains an all-zero pivot row");
        pivot_cols.push_back(lead);
      }
    }
  } else if (!ckpt_path.empty() && file_exists(ckpt_path)) {
    throw CheckpointError("tiled rank: " + ckpt_path +
                          " already exists; pass --resume or remove the directory");
  }

  TiledRankReport report;
  report.dimension = dimension;
  report.tiles_total = tiles_total;
  report.tiles_resumed = st.tiles_done;
  report.peak_resident_bytes = fixed_bytes + chunk_bytes + store->resident_bytes();

  std::vector<std::uint64_t> chunk;  // u64-aligned; rows in field layout
  const auto read_chunk = [&](std::size_t s, std::size_t begin, std::size_t end) -> const void* {
    store->read_rows(s, begin, end, row_bytes, chunk);
    return chunk.data();
  };
  const auto interrupted = [&] { return cfg.interrupt != nullptr && *cfg.interrupt != 0; };

  while (st.tiles_done < tiles_total) {
    if (interrupted()) break;
    if (cfg.stop_after_tiles > 0 && report.tiles_run >= cfg.stop_after_tiles) break;
    const std::size_t t = st.tiles_done;
    const std::size_t lo = t * K;
    const std::size_t hi = std::min<std::size_t>(dimension, lo + K);

    JoinTile tile = generate_join_tile(cfg.n, lo, hi, cfg.threads);
    // An interrupt mid-tile abandons it: the last checkpoint covers tiles < t.
    if (!eliminator.eliminate(std::move(tile.bits), hi - lo, st.segments, pivot_cols, chunk_rows,
                              read_chunk, interrupted)) {
      break;
    }

    // Phase 3: persist the segment straight from the staging buffer (no
    // second copy), extend the digest chain, checkpoint.
    const std::vector<std::uint64_t>& new_cols = eliminator.new_cols();
    const std::uint64_t seg_digest = store->append_segment(t, eliminator.new_segment());
    for (const std::uint64_t c : new_cols) pivot_cols.push_back(c);
    st.segments.push_back({t, new_cols.size(), seg_digest});
    st.rank += new_cols.size();
    st.tiles_done = t + 1;
    {
      std::ostringstream line;
      line << "tile " << t << " rows " << lo << " " << hi << " ones " << tile.ones << " bits "
           << digest_hex(tile.digest) << " pivots " << new_cols.size() << " seg "
           << digest_hex(seg_digest);
      st.tile_lines.push_back(line.str());
      st.chain = fnv1a(digest_hex(st.chain) + "\n" + line.str());
    }
    if (!ckpt_path.empty()) {
      write_snapshot_atomic(ckpt_path, render_checkpoint(header, st));
    }
    ++report.tiles_run;
    report.peak_resident_bytes = std::max(report.peak_resident_bytes,
                                          fixed_bytes + chunk_bytes + store->resident_bytes());
    if (cfg.progress) cfg.progress(st.tiles_done, tiles_total, st.rank);
    if (cfg.inter_tile_delay_ns > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(cfg.inter_tile_delay_ns));
    }
  }

  report.segments_read = eliminator.chunks_read;
  report.segments_skipped = eliminator.chunks_skipped;
  report.rank = st.rank;
  report.complete = st.tiles_done == tiles_total;
  report.full_rank = report.complete && st.rank == dimension;
  report.certificate_digest = digest_hex(st.chain);
  return report;
}

}  // namespace bcclb
