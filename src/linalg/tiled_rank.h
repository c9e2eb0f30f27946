// Rank over GF(2) or GF(p): tiled elimination, the repo's only elimination
// kernel, in two entry points.
//
// tiled_partition_rank ranks the join matrix M_n out of core: checkpointed
// elimination over rows that are generated on the fly and never held
// together in RAM. Dense M_n tops out at M_8: M_9 is 447 MB of entries
// before elimination even starts, M_10 is 13.4 GB. The elimination is
// streamed and left-looking:
//
//   tile t = rows [t*K, t*K + K)        (K = tile_rows)
//     1. generate_join_tile: unrank row lo (partition/unrank.h), stream the
//        K row partitions with next_rgs, and fill each row with one
//        depth-first walk over column RGS prefixes: the columns sharing a
//        prefix are one contiguous index range, so a prefix that already
//        joins all of the row's blocks ORs its whole range to ones with word
//        masks, and one that cannot (more components left than merges)
//        skips its range; merges live in an undoable union-find over the
//        row's blocks. Bits are packed 64 per word. Rows shard across
//        threads (common/parallel.h); every bit is a pure function of
//        (i, j), so the tile is identical at any BCCLB_THREADS.
//     2. reduce the tile against every pivot row discovered by earlier
//        tiles. Pivots stream through a bounded chunk buffer (sized from
//        the memory budget, never more than one segment) in global
//        insertion order, applied in batches of 8 with a triangular
//        in-batch solve:
//          GF(2)  — four-Russians: a 256-entry XOR-combination table per
//                   batch (built by each worker that owns >= 64 rows)
//                   clears 8 pivots per row with one table lookup;
//          mod p  — one u64 multiply-accumulate sweep per batch and a
//                   single % p per entry per 8 pivots (8 * (2^30)^2 fits
//                   u64).
//        Before a chunk is read, the tile rows nonzero at any of its pivot
//        columns are collected; every other row solves to all-zero
//        coefficients for the whole chunk, so it is left alone, and a
//        chunk no row touches is skipped without being read. The active
//        rows are split across threads once per chunk, and each worker
//        runs the chunk's batches in order over its own rows. Each batch's
//        column sweep starts at its smallest pivot lead (pivot rows are
//        zero before their lead). Field arithmetic is exact, so the result
//        is independent of batching, chunking, skipping, and thread count.
//     3. in-tile insertion: surviving rows become new pivots (normalized so
//        the pivot entry is 1), appended in row order — the classic rank-
//        by-insertion argument makes the pivot set and rank independent of
//        the tiling. Insertion and normalization also sweep from the lead.
//     4. the tile's new pivot rows are persisted as one segment (disk when
//        a directory is configured, RAM otherwise) and the checkpoint is
//        atomically rewritten (bcc/checkpoint.h): header, tiles-done, rank,
//        and a digest chain over per-tile join bits + segment bytes. kill
//        -9 at any point resumes at the last completed tile; segment
//        digests are re-verified on resume (CheckpointError on rot) and the
//        final rank and certificate digest are bit-identical to an
//        uninterrupted run.
//
// Peak matrix residency is tile_rows x row-width (working tile) plus the
// bounded pivot chunk (at most tile_rows rows) — dense M_n never exists.
// The memory budget (BCCLB_MEM_BUDGET / --mem-budget) shrinks the chunk
// buffer first and refuses, with a typed ResourceBudgetError naming budget
// and footprint, only when the tile alone cannot fit.
//
// packed_rank runs steps 2 and 3 on bit-packed rows already in memory (E5's
// rank_report, the kRankTile artifact): fixed 256-row tiles, pivots kept in
// RAM, no store, checkpoint or digest.
//
// Over GF(p) the rank of M_n is sum_{k <= min(p, n)} S(n, k): M_n = Z D Z^T
// with Z the unitriangular zeta matrix of the partition lattice and D the
// diagonal of Moebius values mu(x, 1) = (-1)^{k-1} (k-1)! (x with k blocks),
// which vanish mod p exactly when k > p (partition/bell.h,
// predicted_join_rank). So GF(2) gives 2^{n-1}, and any prime p >= n gives
// full rank B_n (Theorem 2.3).
#pragma once

#include <csignal>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bcclb {

// 30-bit primes (2^30 - 35 and 2^30 - 41) for the mod-p field; the second
// cross-checks the first. Elimination needs p < 2^30 (deferred reduction).
inline constexpr std::uint64_t kPrime30A = 1073741789ULL;
inline constexpr std::uint64_t kPrime30B = 1073741783ULL;

// Modular inverse via Fermat (p prime). Throws std::invalid_argument for x
// divisible by p.
std::uint64_t modp_inverse(std::uint64_t x, std::uint64_t p);

enum class RankField : std::uint8_t { kGf2 = 0, kModp = 1 };

const char* rank_field_name(RankField field);                       // "gf2" / "modp"
std::optional<RankField> parse_rank_field(std::string_view text);   // inverse

// One generated tile of M_n: rows [row_lo, row_lo + rows), bit-packed 64
// columns per word, row-major. `ones` and `digest` (FNV-1a over the packed
// words in little-endian byte order) fingerprint the tile for the
// certificate chain and the kRankTile serving artifact.
struct JoinTile {
  std::size_t row_lo = 0;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t words_per_row = 0;
  std::vector<std::uint64_t> bits;
  std::uint64_t ones = 0;
  std::uint64_t digest = 0;

  bool get(std::size_t r, std::size_t c) const {
    return (bits[r * words_per_row + c / 64] >> (c % 64)) & 1ULL;
  }
};

// Generates rows [row_lo, row_hi) of M_n without materializing anything
// else. Requires 1 <= n <= kMaxUnrankN and row_lo <= row_hi <= B_n
// (RangeViolationError otherwise). threads == 0 uses the BCCLB_THREADS /
// hardware default; the result is bit-identical at any thread count.
JoinTile generate_join_tile(std::size_t n, std::size_t row_lo, std::size_t row_hi,
                            unsigned threads = 0);

struct TiledRankConfig {
  std::size_t n = 0;                  // join matrix M_n
  RankField field = RankField::kModp; // GF(2) loses rank on M_n (rank 2^{n-1})
  std::uint64_t prime = kPrime30A;    // ignored for GF(2)
  std::size_t tile_rows = 512;
  unsigned threads = 0;               // 0 = BCCLB_THREADS / hardware default
  std::string dir;                    // checkpoint + segment dir; "" = RAM-only
  bool resume = false;                // require and verify an existing checkpoint
  std::uint64_t mem_budget_bytes = 0; // 0 = unlimited (CLI resolves BCCLB_MEM_BUDGET)

  // Test hooks, mirroring the campaign runner's: a per-tile delay widens
  // the SIGKILL window for the kill-and-resume scripts; stop_after_tiles
  // checkpoints and returns cleanly after that many tiles this invocation.
  std::uint64_t inter_tile_delay_ns = 0;
  std::size_t stop_after_tiles = 0;   // 0 = run to completion

  // Polled between tiles (the CLI's SIGINT/SIGTERM flag): when set, flush
  // the checkpoint and return with complete = false.
  volatile std::sig_atomic_t* interrupt = nullptr;

  // Called after every completed tile: (tiles_done, tiles_total, rank).
  std::function<void(std::size_t, std::size_t, std::size_t)> progress;
};

struct TiledRankReport {
  std::size_t dimension = 0;       // B_n
  std::size_t rank = 0;
  bool full_rank = false;          // rank == dimension (only meaningful when complete)
  bool complete = false;           // all tiles eliminated
  std::string certificate_digest;  // hex digest chain over all completed tiles
  std::size_t tiles_total = 0;
  std::size_t tiles_run = 0;       // tiles eliminated by this invocation
  std::size_t tiles_resumed = 0;   // tiles restored from the checkpoint
  std::uint64_t peak_resident_bytes = 0;  // tile + chunk + scratch high-water mark
  // Pivot chunks this invocation visited: read and applied, or skipped
  // because no row of the tile was nonzero at any of their pivot columns.
  std::size_t segments_read = 0;
  std::size_t segments_skipped = 0;
};

// Runs (or resumes) the tiled elimination described above. Throws
// RangeViolationError for unsupported n / tile_rows, ResourceBudgetError
// when even one tile cannot fit the budget, CheckpointError for a missing,
// corrupt, or mismatched checkpoint on --resume.
TiledRankReport tiled_partition_rank(const TiledRankConfig& config);

// Rank of `rows` in-memory rows of `cols` bits, packed 64 per word
// (bit c of row r is bit c % 64 of bits[r * words_per_row + c / 64];
// words_per_row >= (cols + 63) / 64, bits past `cols` are ignored). Any
// shape. `prime` is ignored for GF(2) and must be below 2^30 for mod p.
// threads == 0 uses the BCCLB_THREADS / hardware default; the rank is the
// same at any thread count.
std::size_t packed_rank(std::size_t rows, std::size_t cols, std::size_t words_per_row,
                        const std::uint64_t* bits, RankField field, std::uint64_t prime,
                        unsigned threads = 0);

// Rank of a single generated tile over the configured field, standalone
// (pivots from that tile only). Pure function of (n, field, prime,
// tile_rows, tile_index) — the kRankTile serving artifact.
std::size_t join_tile_rank(const JoinTile& tile, RankField field, std::uint64_t prime);

// Checkpoint path inside a rank directory ("<dir>/rank-checkpoint.bcclb").
std::string rank_checkpoint_path(const std::string& dir);

// Segment path for tile t ("<dir>/seg-000042.bin").
std::string rank_segment_path(const std::string& dir, std::size_t tile_index);

}  // namespace bcclb
