#include "serve/wire.h"

#include <cstring>

#include "bcc/checkpoint.h"
#include "common/errors.h"
#include "partition/bell.h"

namespace bcclb {

namespace {

void append_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void append_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void append_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

// Bounds-checked little-endian reads over a payload cursor.
struct Reader {
  std::string_view bytes;
  std::size_t pos = 0;

  std::uint64_t take(std::size_t width) {
    if (bytes.size() - pos < width) {
      throw ProtocolViolationError("request payload truncated");
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < width; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[pos + i])) << (8 * i);
    }
    pos += width;
    return v;
  }

  void expect_done() const {
    if (pos != bytes.size()) {
      throw ProtocolViolationError("request payload has trailing bytes");
    }
  }
};

std::string frame(std::uint8_t type, std::uint16_t status, std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  out.append(kWireMagic, sizeof kWireMagic);
  out.push_back(static_cast<char>(kWireVersion));
  out.push_back(static_cast<char>(type));
  append_u16(out, status);
  append_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
  return out;
}

}  // namespace

const char* status_code_name(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kQueueFull: return "queue-full";
    case StatusCode::kRequestTooLarge: return "request-too-large";
    case StatusCode::kProtocolViolation: return "protocol-violation";
    case StatusCode::kDraining: return "draining";
    case StatusCode::kComputeFailed: return "compute-failed";
    case StatusCode::kInternal: return "internal";
    case StatusCode::kNoBackend: return "no-backend";
  }
  return "?";
}

std::string encode_request_payload(const Request& request) {
  std::string out;
  switch (request.type) {
    case RequestType::kStats:
      break;
    case RequestType::kClassify:
      append_u32(out, request.n);
      append_u64(out, request.packed);
      break;
    case RequestType::kIndistGraph:
      append_u32(out, request.n);
      break;
    case RequestType::kRank:
      out.push_back(static_cast<char>(request.family));
      append_u32(out, request.n);
      break;
    case RequestType::kInfo:
      append_u32(out, request.n);
      append_u64(out, request.keep_bits);
      break;
    case RequestType::kSimImplicit:
      out.push_back(static_cast<char>(request.family));
      append_u32(out, request.n);
      append_u64(out, request.packed);  // the spec seed
      break;
    case RequestType::kRankTile:
      out.push_back(static_cast<char>(request.family));
      append_u32(out, request.n);
      append_u64(out, request.packed);  // (tile_rows << 32) | tile_index
      break;
    case RequestType::kBestStrategy:
      out.push_back(static_cast<char>(request.family));  // the driver byte
      append_u32(out, request.n);
      append_u64(out, request.packed);  // (rounds<<56)|(buckets<<48)|(seed<<32)|budget
      break;
  }
  return out;
}

std::uint64_t request_cache_key(const Request& request) {
  std::string keyed;
  keyed.push_back(static_cast<char>(request.type));
  keyed += encode_request_payload(request);
  return fnv1a(keyed);
}

std::string encode_request_frame(const Request& request) {
  return frame(static_cast<std::uint8_t>(request.type), 0, encode_request_payload(request));
}

std::string encode_ok_frame(RequestType type, CacheSource source, std::uint64_t digest,
                            std::string_view artifact) {
  std::string payload;
  payload.reserve(16 + artifact.size());
  append_u64(payload, digest);
  payload.push_back(static_cast<char>(source));
  payload.append(3, '\0');
  append_u32(payload, static_cast<std::uint32_t>(artifact.size()));
  payload.append(artifact);
  return frame(static_cast<std::uint8_t>(type), static_cast<std::uint16_t>(StatusCode::kOk),
               payload);
}

std::string encode_error_frame(RequestType type, StatusCode code, std::string_view message) {
  std::string payload;
  payload.reserve(4 + message.size());
  append_u32(payload, static_cast<std::uint32_t>(message.size()));
  payload.append(message);
  return frame(static_cast<std::uint8_t>(type), static_cast<std::uint16_t>(code), payload);
}

FrameHeader decode_frame_header(std::string_view bytes) {
  if (bytes.size() < kFrameHeaderBytes) {
    throw ProtocolViolationError("frame header truncated");
  }
  if (std::memcmp(bytes.data(), kWireMagic, sizeof kWireMagic) != 0) {
    throw ProtocolViolationError("bad frame magic (expected \"BCS1\")");
  }
  FrameHeader header;
  header.version = static_cast<std::uint8_t>(bytes[4]);
  header.type = static_cast<std::uint8_t>(bytes[5]);
  header.status = static_cast<std::uint16_t>(static_cast<unsigned char>(bytes[6]) |
                                             (static_cast<unsigned char>(bytes[7]) << 8));
  header.payload_len = 0;
  for (int i = 0; i < 4; ++i) {
    header.payload_len |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[8 + i]))
                          << (8 * i);
  }
  if (header.version != kWireVersion) {
    throw ProtocolViolationError("unsupported protocol version " +
                                 std::to_string(header.version) + " (this daemon speaks " +
                                 std::to_string(kWireVersion) + ")");
  }
  return header;
}

Request decode_request(std::uint8_t type, std::string_view payload) {
  Request request;
  Reader reader{payload};
  switch (static_cast<RequestType>(type)) {
    case RequestType::kStats:
      request.type = RequestType::kStats;
      break;
    case RequestType::kClassify: {
      request.type = RequestType::kClassify;
      request.n = static_cast<std::uint32_t>(reader.take(4));
      request.packed = reader.take(8);
      if (request.n < 3 || request.n > kMaxClassifyN) {
        throw ProtocolViolationError("classify: n=" + std::to_string(request.n) +
                                     " outside [3, " + std::to_string(kMaxClassifyN) + "]");
      }
      break;
    }
    case RequestType::kIndistGraph: {
      request.type = RequestType::kIndistGraph;
      request.n = static_cast<std::uint32_t>(reader.take(4));
      if (request.n < kMinIndistN || request.n > kMaxIndistN) {
        throw ProtocolViolationError("indist-graph: n=" + std::to_string(request.n) +
                                     " outside [" + std::to_string(kMinIndistN) + ", " +
                                     std::to_string(kMaxIndistN) + "]");
      }
      break;
    }
    case RequestType::kRank: {
      request.type = RequestType::kRank;
      request.family = static_cast<std::uint8_t>(reader.take(1));
      request.n = static_cast<std::uint32_t>(reader.take(4));
      if (request.family == 'M') {
        if (request.n < 1 || request.n > kMaxRankMN) {
          throw ProtocolViolationError("rank: M_n needs n in [1, " +
                                       std::to_string(kMaxRankMN) + "], got " +
                                       std::to_string(request.n));
        }
      } else if (request.family == 'E') {
        if (request.n < 4 || request.n > kMaxRankEN || request.n % 2 != 0) {
          throw ProtocolViolationError("rank: E_n needs even n in [4, " +
                                       std::to_string(kMaxRankEN) + "], got " +
                                       std::to_string(request.n));
        }
      } else {
        throw ProtocolViolationError("rank: unknown matrix family (expected 'M' or 'E')");
      }
      break;
    }
    case RequestType::kInfo: {
      request.type = RequestType::kInfo;
      request.n = static_cast<std::uint32_t>(reader.take(4));
      request.keep_bits = reader.take(8);
      if (request.n < 1 || request.n > kMaxInfoN) {
        throw ProtocolViolationError("info: n=" + std::to_string(request.n) + " outside [1, " +
                                     std::to_string(kMaxInfoN) + "]");
      }
      double keep;
      static_assert(sizeof keep == sizeof request.keep_bits);
      std::memcpy(&keep, &request.keep_bits, sizeof keep);
      if (!(keep >= 0.0 && keep <= 1.0)) {  // rejects NaN too
        throw ProtocolViolationError("info: keep fraction outside [0, 1]");
      }
      break;
    }
    case RequestType::kSimImplicit: {
      request.type = RequestType::kSimImplicit;
      request.family = static_cast<std::uint8_t>(reader.take(1));
      request.n = static_cast<std::uint32_t>(reader.take(4));
      request.packed = reader.take(8);  // the spec seed
      if (request.family > 3) {
        throw ProtocolViolationError("sim-implicit: unknown family byte " +
                                     std::to_string(request.family));
      }
      if (request.n < kMinSimImplicitN || request.n > kMaxSimImplicitN) {
        throw ProtocolViolationError("sim-implicit: n=" + std::to_string(request.n) +
                                     " outside [" + std::to_string(kMinSimImplicitN) + ", " +
                                     std::to_string(kMaxSimImplicitN) + "]");
      }
      break;
    }
    case RequestType::kRankTile: {
      request.type = RequestType::kRankTile;
      request.family = static_cast<std::uint8_t>(reader.take(1));
      request.n = static_cast<std::uint32_t>(reader.take(4));
      request.packed = reader.take(8);
      if (request.family != '2' && request.family != 'p') {
        throw ProtocolViolationError("rank-tile: unknown field byte (expected '2' or 'p')");
      }
      if (request.n < 1 || request.n > kMaxRankMN) {
        throw ProtocolViolationError("rank-tile: n=" + std::to_string(request.n) +
                                     " outside [1, " + std::to_string(kMaxRankMN) + "]");
      }
      const std::uint64_t tile_rows = request.packed >> 32;
      const std::uint64_t tile_index = request.packed & 0xffffffffULL;
      if (tile_rows < 1 || tile_rows > kMaxRankTileRows) {
        throw ProtocolViolationError("rank-tile: tile_rows=" + std::to_string(tile_rows) +
                                     " outside [1, " + std::to_string(kMaxRankTileRows) + "]");
      }
      const std::uint64_t bell = bell_number_u64(request.n);
      const std::uint64_t tiles = (bell + tile_rows - 1) / tile_rows;
      if (tile_index >= tiles) {
        throw ProtocolViolationError("rank-tile: tile_index=" + std::to_string(tile_index) +
                                     " beyond the " + std::to_string(tiles) + " tiles of M_" +
                                     std::to_string(request.n));
      }
      break;
    }
    case RequestType::kBestStrategy: {
      request.type = RequestType::kBestStrategy;
      request.family = static_cast<std::uint8_t>(reader.take(1));
      request.n = static_cast<std::uint32_t>(reader.take(4));
      request.packed = reader.take(8);
      if (request.family != 'r' && request.family != 'e' && request.family != 'x') {
        throw ProtocolViolationError(
            "best-strategy: unknown driver byte (expected 'r', 'e' or 'x')");
      }
      if (request.n < kMinSearchN || request.n > kMaxSearchN) {
        throw ProtocolViolationError("best-strategy: n=" + std::to_string(request.n) +
                                     " outside [" + std::to_string(kMinSearchN) + ", " +
                                     std::to_string(kMaxSearchN) + "]");
      }
      const std::uint64_t rounds = request.packed >> 56;
      const std::uint64_t buckets = (request.packed >> 48) & 0xff;
      const std::uint64_t budget = request.packed & 0xffffffffULL;
      if (rounds < 1 || rounds > kMaxSearchRounds) {
        throw ProtocolViolationError("best-strategy: rounds=" + std::to_string(rounds) +
                                     " outside [1, " + std::to_string(kMaxSearchRounds) + "]");
      }
      if (buckets < 1 || buckets > kMaxSearchBuckets) {
        throw ProtocolViolationError("best-strategy: buckets=" + std::to_string(buckets) +
                                     " outside [1, " + std::to_string(kMaxSearchBuckets) + "]");
      }
      // The exhaustive driver enumerates its whole space; for the seeded
      // drivers the budget is the evaluation count and must be positive.
      if (request.family != 'x' && (budget < 1 || budget > kMaxSearchBudget)) {
        throw ProtocolViolationError("best-strategy: budget=" + std::to_string(budget) +
                                     " outside [1, " + std::to_string(kMaxSearchBudget) + "]");
      }
      if (request.family == 'x' && !(rounds * buckets <= 6 && buckets <= 4)) {
        // 3^(rounds·K)·2^K candidates: cap the exhaustive space at
        // 3^6 · 2^4 = 11664 so a cold build stays interactive.
        throw ProtocolViolationError(
            "best-strategy: exhaustive space too large (need rounds*buckets <= 6 and "
            "buckets <= 4)");
      }
      break;
    }
    default:
      throw ProtocolViolationError("unknown request type " + std::to_string(type));
  }
  reader.expect_done();
  return request;
}

Response decode_response(const FrameHeader& header, std::string_view payload) {
  Response response;
  response.type = static_cast<RequestType>(header.type);
  response.status = static_cast<StatusCode>(header.status);
  Reader reader{payload};
  if (response.status == StatusCode::kOk) {
    response.digest = reader.take(8);
    response.source = static_cast<CacheSource>(reader.take(1));
    reader.take(3);  // reserved
    const std::size_t len = reader.take(4);
    if (payload.size() - reader.pos != len) {
      throw ProtocolViolationError("response artifact length mismatch");
    }
    response.artifact.assign(payload.substr(reader.pos));
  } else {
    const std::size_t len = reader.take(4);
    if (payload.size() - reader.pos != len) {
      throw ProtocolViolationError("response message length mismatch");
    }
    response.artifact.assign(payload.substr(reader.pos));
  }
  return response;
}

}  // namespace bcclb
