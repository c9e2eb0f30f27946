// The bccd wire protocol: versioned, length-prefixed binary frames.
//
// Every message — request or response — is one frame:
//
//     offset  size  field
//          0     4  magic        "BCS1" (0x42 0x43 0x53 0x31 on the wire)
//          4     1  version      kWireVersion (1)
//          5     1  type         RequestType (echoed back in the response)
//          6     2  status       little-endian; 0 in requests, StatusCode in
//                                responses
//          8     4  payload_len  little-endian byte count of the payload
//         12     …  payload
//
// Request payloads are fixed little-endian fields per type (see Request);
// an OK response payload is
//
//     u64 artifact_digest   FNV-1a of the artifact bytes (the PR 2 family)
//     u8  cache_source      CacheSource: cold build / cache hit / coalesced
//     u8[3] reserved        zero
//     u32 artifact_len
//     …   artifact          deterministic text artifact
//
// and an error response payload is a u32-length-prefixed UTF-8 message (the
// error *kind* travels in the status field). All integers little-endian; the
// protocol never carries pointers, padding, or host-endian bytes, so a
// response is bit-identical regardless of which host produced it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace bcclb {

inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 12;
inline constexpr char kWireMagic[4] = {'B', 'C', 'S', '1'};

// Request types cover the paper's core cached queries plus a health probe.
enum class RequestType : std::uint8_t {
  kStats = 1,        // health/stats probe (never cached, served inline)
  kClassify = 2,     // TwoCycle classification of a packed cycle structure
  kIndistGraph = 3,  // Theorem 3.1: indistinguishability-graph CSR +
                     // star-packing certificate
  kRank = 4,         // Theorem 4.4 pipeline: rank certificate for M_n / E_n
  kInfo = 5,         // Theorem 4.5: PartitionComp information bound
  kSimImplicit = 6,  // min-ID flood over an implicit instance (family, n, seed)
  kRankTile = 7,     // one tile of the out-of-core M_n elimination: join bits
                     // digest + standalone tile rank (linalg/tiled_rank.h)
  kBestStrategy = 8,  // best-known adversary strategy table for a bounded
                      // seeded search cell (search/engine.h)
};

// Response status codes; every non-zero code maps 1:1 onto an errors.h leaf.
enum class StatusCode : std::uint16_t {
  kOk = 0,
  kQueueFull = 1,        // QueueFullError — admission queue at capacity
  kRequestTooLarge = 2,  // RequestTooLargeError — payload over the cap
  kProtocolViolation = 3,  // ProtocolViolationError — malformed frame/params
  kDraining = 4,           // DrainingError — daemon is shutting down
  kComputeFailed = 5,      // handler threw a BcclbError (message names kind)
  kInternal = 6,           // anything else; a server bug
  kNoBackend = 7,          // NoBackendError — router found no live shard
};

const char* status_code_name(StatusCode code);

// Where an OK response's artifact came from.
enum class CacheSource : std::uint8_t {
  kCold = 0,       // built for this request
  kHit = 1,        // served from the in-memory artifact cache (digest re-verified)
  kCoalesced = 2,  // shared a concurrent identical request's build
  kDisk = 3,       // warmed from the durable on-disk tier (digest re-verified)
};

// A decoded request. Fields beyond `type` are meaningful per type:
//   kClassify    — n, packed (successor word)
//   kIndistGraph — n
//   kRank        — family ('M' or 'E'), n
//   kInfo        — n, keep_bits (IEEE-754 bit pattern of the keep fraction)
//   kSimImplicit — family (an ImplicitFamily byte), n, packed (the spec seed)
//   kRankTile    — family ('2' for GF(2), 'p' for mod-p), n, packed =
//                  (tile_rows << 32) | tile_index
//   kBestStrategy— family (driver: 'r' random, 'e' evolution, 'x'
//                  exhaustive), n, packed = (rounds << 56) | (buckets << 48)
//                  | (seed << 32) | budget
struct Request {
  RequestType type = RequestType::kStats;
  std::uint32_t n = 0;
  std::uint64_t packed = 0;
  std::uint8_t family = 'M';
  std::uint64_t keep_bits = 0x3ff0000000000000ULL;  // 1.0

  friend bool operator==(const Request&, const Request&) = default;
};

// Canonical payload encoding of a request — the bytes that travel on the
// wire, and the bytes whose FNV-1a is the cache key. One request, one byte
// string, one key: content addressing falls out of the encoding.
std::string encode_request_payload(const Request& request);

// FNV-1a over type byte + canonical payload.
std::uint64_t request_cache_key(const Request& request);

// Full frames, ready to write to a socket.
std::string encode_request_frame(const Request& request);
std::string encode_ok_frame(RequestType type, CacheSource source, std::uint64_t digest,
                            std::string_view artifact);
std::string encode_error_frame(RequestType type, StatusCode code, std::string_view message);

struct FrameHeader {
  std::uint8_t version = 0;
  std::uint8_t type = 0;
  std::uint16_t status = 0;
  std::uint32_t payload_len = 0;
};

// Parses the 12-byte header. Throws ProtocolViolationError on bad magic or
// version — the stream cannot be re-synchronized past either. Length policy
// (RequestTooLarge) is the server's, not the codec's.
FrameHeader decode_frame_header(std::string_view bytes);

// Decodes a request payload for `type`. Throws ProtocolViolationError on an
// unknown type, short/overlong payload, or field values no handler accepts
// (e.g. n beyond the serving range) — the one place parameter validation
// happens, so the scheduler only ever sees well-formed requests.
Request decode_request(std::uint8_t type, std::string_view payload);

// A decoded response (client side).
struct Response {
  RequestType type = RequestType::kStats;
  StatusCode status = StatusCode::kOk;
  CacheSource source = CacheSource::kCold;
  std::uint64_t digest = 0;      // FNV-1a the server computed; verify locally
  std::string artifact;          // OK: artifact text; error: message
};

Response decode_response(const FrameHeader& header, std::string_view payload);

// Serving ranges (validated in decode_request, documented in DESIGN.md §6):
// exhaustive enumeration costs grow factorially, so the daemon refuses sizes
// that cannot be served interactively even cold.
inline constexpr std::uint32_t kMaxClassifyN = 16;   // packed-word limit
inline constexpr std::uint32_t kMinIndistN = 6;      // exhaustive kernel floor
inline constexpr std::uint32_t kMaxIndistN = 10;     // |V1| = 181,440
inline constexpr std::uint32_t kMaxRankMN = 8;       // dim B_8 = 4140
inline constexpr std::uint32_t kMaxRankEN = 10;      // dim 9!! = 945
inline constexpr std::uint32_t kMaxInfoN = 8;        // B_8 partitions
// Implicit simulation is O(n) state but Θ(n) rounds of O(frontier) work;
// 2^20 vertices is the largest size the daemon can serve interactively.
inline constexpr std::uint32_t kMinSimImplicitN = 6;
inline constexpr std::uint32_t kMaxSimImplicitN = 1u << 20;
// A rank tile is O(tile_rows * B_n) work; B_8 columns at 4096 rows is the
// largest tile the daemon can generate and rank interactively.
inline constexpr std::uint32_t kMaxRankTileRows = 4096;
// A best-strategy search runs budget evaluations over the exhaustive
// instance space (|V1| + |V2| engine runs each) plus one Theorem 3.1
// certificate per improvement; n = 7 at 512 evaluations is the largest cell
// that stays interactive cold. The bounds keep the handler a pure, bounded
// function of the request.
inline constexpr std::uint32_t kMinSearchN = 6;
inline constexpr std::uint32_t kMaxSearchN = 7;
inline constexpr std::uint32_t kMaxSearchRounds = 3;
inline constexpr std::uint32_t kMaxSearchBuckets = 16;
inline constexpr std::uint32_t kMaxSearchBudget = 512;

}  // namespace bcclb
