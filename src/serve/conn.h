// The connection layer bccd and bccr share (DESIGN.md §6, §9): a Listener
// for the socket, a FrameConn per client for framing, bounded output and
// flushing, and one drain rule — once a server has no admitted work left, a
// connection gets at most kDrainLingerNs to take its unsent bytes, then it
// closes. Both servers thus send the same bytes for the same framing error.
// Each keeps its own threading: bccd multiplexes FrameConns on one poll
// loop, bccr runs one FrameConn per connection thread.
#pragma once

#include <sys/un.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "serve/wire.h"

namespace bcclb {

// How long a drained server still serves a connection (see the header).
inline constexpr std::uint64_t kDrainLingerNs = 500'000'000ULL;

// Monotonic ns (steady_clock).
std::uint64_t steady_now_ns();

// "<what>: <strerror(errno)>".
std::string errno_text(const char* what);

// The address of a Unix-domain socket at `path`; throws ServeError, prefixed
// with `who`, when the path does not fit.
sockaddr_un unix_address(const std::string& path, const char* who);

// Framing outcomes both servers count and report in their stats.
struct FramingCounters {
  std::atomic<std::uint64_t> too_large{0};
  std::atomic<std::uint64_t> protocol_violations{0};
  // Times a connection's input was paused at FrameConn::kMaxUnsentBytes.
  std::atomic<std::uint64_t> unsent_pauses{0};
};

class Listener {
 public:
  Listener() = default;
  ~Listener() { close(); }
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  // Listens on `unix_path` when it is non-empty, else on 127.0.0.1:tcp_port
  // (0 = kernel-assigned). Throws ServeError, prefixed with `who`, on failure
  // (path served by a live process, port taken, ...).
  void bind(const std::string& unix_path, std::uint16_t tcp_port, const char* who);

  bool listening() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  // Resolved TCP port (meaningful in TCP mode once bound).
  std::uint16_t tcp_port() const { return tcp_port_; }
  // "unix:<path>" or "tcp:127.0.0.1:<port>", for logs.
  std::string endpoint() const;

  // A pending connection as a non-blocking fd, or -1 when none is waiting.
  int accept();

  // Stops listening and removes the socket file this listener created.
  void close();

 private:
  int fd_ = -1;
  std::string unix_path_;
  std::uint16_t tcp_port_ = 0;
  bool owns_path_ = false;
};

// Answers one intact request frame: returns the response frame to queue, or
// an empty string when the answer will come later through queue_output().
using FrameHandler = std::function<std::string(const FrameHeader&, std::string_view payload)>;

class FrameConn {
 public:
  // Per-connection bound on response bytes not yet sent: past it the input
  // is neither read nor parsed until the client drains the output, so a
  // client that pipelines requests and never reads cannot grow the server.
  static constexpr std::size_t kMaxUnsentBytes = std::size_t{1} << 20;

  // Takes ownership of a connected, non-blocking socket.
  explicit FrameConn(int fd) : fd_(fd) {}
  ~FrameConn();
  FrameConn(const FrameConn&) = delete;
  FrameConn& operator=(const FrameConn&) = delete;

  int fd() const { return fd_; }
  std::size_t unsent() const { return outbuf_.size() - outpos_; }
  // The poll() events this connection waits for.
  short poll_events() const;
  // True once the peer stopped sending (or broke framing) and every
  // response has been sent: the connection can close.
  bool finished() const { return close_after_flush_ && unsent() == 0; }

  // One recv() into the input buffer; end of stream marks close-after-flush.
  void receive();

  // Appends a response frame produced outside serve().
  void queue_output(std::string_view frame);

  // Parses every complete frame in the input, in order: answers framing
  // errors itself, passes intact frames to `handle`, and sends as it goes.
  // Stops at the unsent bound. Returns false when the peer is gone.
  bool serve(std::size_t max_request_bytes, FramingCounters& counters,
             const FrameHandler& handle);

 private:
  // Sends what the socket takes; false when the peer is gone.
  bool flush();

  int fd_ = -1;
  std::string inbuf_;
  std::string outbuf_;
  std::size_t outpos_ = 0;
  std::size_t discard_ = 0;  // oversized payload bytes still to skip
  bool close_after_flush_ = false;
};

}  // namespace bcclb
