// Typed error taxonomy for the bcc_lb library.
//
// Every failure a run can produce carries machine-readable context — which
// instance (by digest), which vertex, which round — so a thousand-job sweep
// can report *what* failed instead of an anonymous what() string. The base
// class derives from std::invalid_argument because that is the exception
// contract the library has always exposed for model violations (bandwidth
// overruns, malformed outboxes); existing catch sites and tests that expect
// std::invalid_argument keep working, while new code can catch BcclbError
// (or a leaf type) and read the structured context.
//
// Leaves:
//   BandwidthViolationError — a broadcast exceeded the b-bit budget
//   RoundLimitError         — a strict run hit max_rounds before finishing
//   FaultInjectionError     — an injected fault produced an invalid message
//                             (transient: a retry without the fault succeeds)
//   JobTimeoutError         — a watchdog deadline expired mid-run
//   RangeViolationError     — an RCC(r, b) round used more than r values
//   CheckpointError         — a campaign snapshot is missing, truncated,
//                             corrupt, or inconsistent with its campaign
//   ResourceBudgetError     — a job's footprint exceeds the memory budget
//   VerifierAnomalyError    — a search candidate scored below its own
//                             certificate floor (a verifier bug, not a
//                             discovery; see DESIGN.md §11)
//   ServeError              — base of the serving daemon's overload and
//                             protocol taxonomy (src/serve/):
//     QueueFullError        — the admission queue is at capacity (backpressure)
//     RequestTooLargeError  — a request frame exceeds the payload cap
//     ProtocolViolationError— malformed frame, unknown type, bad parameters
//     DrainingError         — the daemon is draining and admits no new work
//     ServeClientError      — base of the client-side failure taxonomy:
//       ClientTimeoutError    — a per-request deadline expired (transient)
//       ConnectionLostError   — EOF / reset mid-exchange, or a reconnect
//                               attempt failed (transient for idempotent
//                               queries — every bccd query is)
//       ServerReportedError   — the server answered with a non-OK status and
//                               the retry budget could not clear it; carries
//                               the wire status code
#pragma once

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace bcclb {

// Where an error happened. Fields left at their defaults mean "not
// applicable" and are omitted from the formatted message.
struct ErrorContext {
  std::uint64_t instance_digest = 0;  // BccInstance::digest(); 0 = unknown
  std::int64_t vertex = -1;           // -1 = no single vertex
  std::int64_t round = -1;            // -1 = outside the round loop
};

namespace detail {

inline std::string format_error(const std::string& what, const ErrorContext& ctx) {
  std::string out = what;
  if (ctx.instance_digest != 0 || ctx.vertex >= 0 || ctx.round >= 0) {
    out += " [";
    bool first = true;
    const auto append = [&](const std::string& field) {
      if (!first) out += ", ";
      out += field;
      first = false;
    };
    if (ctx.instance_digest != 0) {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "%016llx",
                    static_cast<unsigned long long>(ctx.instance_digest));
      append(std::string("instance=") + hex);
    }
    if (ctx.vertex >= 0) append("vertex " + std::to_string(ctx.vertex));
    if (ctx.round >= 0) append("round " + std::to_string(ctx.round));
    out += "]";
  }
  return out;
}

}  // namespace detail

class BcclbError : public std::invalid_argument {
 public:
  explicit BcclbError(const std::string& what, const ErrorContext& ctx = {})
      : std::invalid_argument(detail::format_error(what, ctx)), ctx_(ctx) {}

  const ErrorContext& context() const noexcept { return ctx_; }

  // Short type tag for reports and logs ("BandwidthViolationError", ...).
  virtual const char* kind() const noexcept { return "BcclbError"; }

  // True when re-running the job without the triggering condition (an
  // injected fault) can succeed; BatchRunner's bounded retry keys off this.
  virtual bool transient() const noexcept { return false; }

 private:
  ErrorContext ctx_;
};

class BandwidthViolationError : public BcclbError {
 public:
  using BcclbError::BcclbError;
  const char* kind() const noexcept override { return "BandwidthViolationError"; }
};

class RoundLimitError : public BcclbError {
 public:
  using BcclbError::BcclbError;
  const char* kind() const noexcept override { return "RoundLimitError"; }
};

class FaultInjectionError : public BcclbError {
 public:
  using BcclbError::BcclbError;
  const char* kind() const noexcept override { return "FaultInjectionError"; }
  bool transient() const noexcept override { return true; }
};

class JobTimeoutError : public BcclbError {
 public:
  using BcclbError::BcclbError;
  const char* kind() const noexcept override { return "JobTimeoutError"; }
};

class RangeViolationError : public BcclbError {
 public:
  using BcclbError::BcclbError;
  const char* kind() const noexcept override { return "RangeViolationError"; }
};

// A campaign checkpoint (or golden store) failed integrity or consistency
// checks: truncated file, checksum mismatch, malformed record, or a snapshot
// that does not describe the campaign being resumed. Never transient — a
// corrupt checkpoint must be surfaced, not silently re-run over.
class CheckpointError : public BcclbError {
 public:
  using BcclbError::BcclbError;
  const char* kind() const noexcept override { return "CheckpointError"; }
};

// A job was refused because its estimated footprint does not fit the
// campaign memory budget even at one worker. The message names both the
// budget and the offending footprint.
class ResourceBudgetError : public BcclbError {
 public:
  using BcclbError::BcclbError;
  const char* kind() const noexcept override { return "ResourceBudgetError"; }
};

// A result the mathematics rules out, so the code that produced it (or its
// checker) is broken: a strategy-search candidate that scored better than
// its own Theorem 3.1 matching certificate allows (the search throws this
// instead of reporting a "discovery": the anomaly policy of DESIGN.md §11),
// or a `bcclb rank` run whose rank differs from predicted_join_rank. Never
// transient — a broken verifier must stop the run, not be retried.
class VerifierAnomalyError : public BcclbError {
 public:
  using BcclbError::BcclbError;
  const char* kind() const noexcept override { return "VerifierAnomalyError"; }
};

// ---- Serving daemon taxonomy (src/serve/) -----------------------------------
//
// Every way `bcclb serve` refuses work is a distinct leaf, so clients and the
// load generator can count QueueFull (expected under overload, retryable)
// separately from ProtocolViolation (a client bug, never retryable). Each
// leaf maps 1:1 onto a wire status code (serve/wire.h).

class ServeError : public BcclbError {
 public:
  using BcclbError::BcclbError;
  const char* kind() const noexcept override { return "ServeError"; }
};

// Backpressure: the bounded admission queue is full. Transient by design —
// the request was never admitted, so retrying after a backoff is safe.
class QueueFullError : public ServeError {
 public:
  using ServeError::ServeError;
  const char* kind() const noexcept override { return "QueueFullError"; }
  bool transient() const noexcept override { return true; }
};

class RequestTooLargeError : public ServeError {
 public:
  using ServeError::ServeError;
  const char* kind() const noexcept override { return "RequestTooLargeError"; }
};

class ProtocolViolationError : public ServeError {
 public:
  using ServeError::ServeError;
  const char* kind() const noexcept override { return "ProtocolViolationError"; }
};

// Graceful shutdown: the daemon finishes in-flight work but admits nothing
// new. Transient from the client's perspective only in the sense that another
// server instance may accept the request; this one will not.
class DrainingError : public ServeError {
 public:
  using ServeError::ServeError;
  const char* kind() const noexcept override { return "DrainingError"; }
};

// The shard router exhausted every backend for a request: each shard was
// either circuit-open, unreachable, or failed the attempt. Transient by
// design — a backend coming back (or its circuit half-opening) makes the
// same request routable again, so clients retry it like QueueFull, and a
// dead cluster degrades into typed answers instead of hangs.
class NoBackendError : public ServeError {
 public:
  using ServeError::ServeError;
  const char* kind() const noexcept override { return "NoBackendError"; }
  bool transient() const noexcept override { return true; }
};

// ---- Client-side taxonomy (serve/client.h) ----------------------------------
//
// The hardened ServeClient distinguishes *how* a round-trip failed so loadgen
// and tests can assert exact failure modes: a deadline expiry and a dropped
// connection are both retryable (every bccd query is a pure function of its
// request), a server-reported terminal status is not, and a protocol
// violation (undecodable response) remains ProtocolViolationError above.

class ServeClientError : public ServeError {
 public:
  using ServeError::ServeError;
  const char* kind() const noexcept override { return "ServeClientError"; }
};

// A per-request deadline expired before the response arrived. The connection
// may have a half-read frame in flight, so the retry path reconnects first.
class ClientTimeoutError : public ServeClientError {
 public:
  using ServeClientError::ServeClientError;
  const char* kind() const noexcept override { return "ClientTimeoutError"; }
  bool transient() const noexcept override { return true; }
};

// The transport died mid-exchange: EOF inside a frame, ECONNRESET/EPIPE, or a
// reconnect attempt that could not reach the endpoint (daemon restarting).
class ConnectionLostError : public ServeClientError {
 public:
  using ServeClientError::ServeClientError;
  const char* kind() const noexcept override { return "ConnectionLostError"; }
  bool transient() const noexcept override { return true; }
};

// The server answered — with a non-OK status the retry budget was unable (or
// not allowed) to clear. `wire_status` is the raw StatusCode so callers can
// switch on it without re-parsing the message text.
class ServerReportedError : public ServeClientError {
 public:
  ServerReportedError(const std::string& what, std::uint16_t wire_status)
      : ServeClientError(what), wire_status_(wire_status) {}
  const char* kind() const noexcept override { return "ServerReportedError"; }
  std::uint16_t wire_status() const noexcept { return wire_status_; }

 private:
  std::uint16_t wire_status_ = 0;
};

}  // namespace bcclb
