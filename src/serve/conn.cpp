#include "serve/conn.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/errors.h"

namespace bcclb {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

sockaddr_un unix_address(const std::string& path, const char* who) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    throw ServeError(std::string(who) + ": unix socket path longer than " +
                     std::to_string(sizeof addr.sun_path - 1) + " bytes");
  }
  std::memcpy(addr.sun_path, path.data(), path.size());
  return addr;
}

// ---- Listener ---------------------------------------------------------------

void Listener::bind(const std::string& unix_path, std::uint16_t tcp_port, const char* who) {
  const std::string prefix = std::string(who) + ": ";
  if (fd_ >= 0) throw ServeError(prefix + "already bound");
  unix_path_ = unix_path;
  if (!unix_path.empty()) {
    const sockaddr_un addr = unix_address(unix_path, who);
    // A stale socket file from a crashed server blocks bind(); a live one
    // means another instance is serving. Probe: if anyone accepts, refuse.
    const int probe = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (probe >= 0) {
      const bool live =
          ::connect(probe, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0;
      ::close(probe);
      if (live) throw ServeError(prefix + "'" + unix_path + "' is already being served");
    }
    ::unlink(unix_path.c_str());

    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw ServeError(errno_text((prefix + "socket").c_str()));
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      throw ServeError(errno_text((prefix + "bind '" + unix_path + "'").c_str()));
    }
    owns_path_ = true;
  } else {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw ServeError(errno_text((prefix + "socket").c_str()));
    const int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(tcp_port);
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      throw ServeError(errno_text((prefix + "bind 127.0.0.1").c_str()));
    }
    socklen_t len = sizeof addr;
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    tcp_port_ = ntohs(addr.sin_port);
  }
  if (::listen(fd_, 128) != 0) throw ServeError(errno_text((prefix + "listen").c_str()));
}

std::string Listener::endpoint() const {
  if (!unix_path_.empty()) return "unix:" + unix_path_;
  return "tcp:127.0.0.1:" + std::to_string(tcp_port_);
}

int Listener::accept() {
  return ::accept4(fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
}

void Listener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (owns_path_) {
    ::unlink(unix_path_.c_str());
    owns_path_ = false;
  }
}

// ---- FrameConn --------------------------------------------------------------

FrameConn::~FrameConn() {
  if (fd_ >= 0) ::close(fd_);
}

short FrameConn::poll_events() const {
  // Over the unsent bound, or once no more input is wanted, stop reading.
  short events = close_after_flush_ || unsent() > kMaxUnsentBytes ? 0 : POLLIN;
  if (unsent() > 0) events |= POLLOUT;
  return events;
}

void FrameConn::receive() {
  if (close_after_flush_) return;  // no more input is wanted
  char buf[65536];
  const ssize_t r = ::recv(fd_, buf, sizeof buf, 0);
  if (r > 0) {
    inbuf_.append(buf, static_cast<std::size_t>(r));
  } else if (r == 0) {
    close_after_flush_ = true;  // peer is done sending
  }
  // r < 0: EAGAIN, or a real error that the next send or poll reports.
}

void FrameConn::queue_output(std::string_view frame) { outbuf_ += frame; }

bool FrameConn::serve(std::size_t max_request_bytes, FramingCounters& counters,
                      const FrameHandler& handle) {
  bool parsed = false;
  for (;;) {
    if (!flush()) return false;
    // Over the unsent bound the rest of the input waits for the client.
    if (unsent() > kMaxUnsentBytes) {
      if (parsed) counters.unsent_pauses.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    if (discard_ > 0) {
      const std::size_t take = std::min(discard_, inbuf_.size());
      inbuf_.erase(0, take);
      discard_ -= take;
      if (discard_ > 0) return true;
    }
    if (inbuf_.size() < kFrameHeaderBytes) return true;
    FrameHeader header;
    try {
      header = decode_frame_header(inbuf_);
    } catch (const ProtocolViolationError& e) {
      // Bad magic or version: the stream cannot be re-synchronized. Answer
      // once, then close after the flush.
      counters.protocol_violations.fetch_add(1, std::memory_order_relaxed);
      queue_output(encode_error_frame(static_cast<RequestType>(0),
                                      StatusCode::kProtocolViolation, e.what()));
      close_after_flush_ = true;
      inbuf_.clear();
      continue;
    }
    parsed = true;
    if (header.payload_len > max_request_bytes) {
      // Framing is intact: skip exactly payload_len bytes and keep serving.
      counters.too_large.fetch_add(1, std::memory_order_relaxed);
      queue_output(encode_error_frame(
          static_cast<RequestType>(header.type), StatusCode::kRequestTooLarge,
          "request payload of " + std::to_string(header.payload_len) + " bytes exceeds the " +
              std::to_string(max_request_bytes) + "-byte cap"));
      inbuf_.erase(0, kFrameHeaderBytes);
      discard_ = header.payload_len;
      continue;
    }
    if (inbuf_.size() < kFrameHeaderBytes + header.payload_len) return true;
    queue_output(handle(header,
                        std::string_view(inbuf_).substr(kFrameHeaderBytes, header.payload_len)));
    inbuf_.erase(0, kFrameHeaderBytes + header.payload_len);
  }
}

bool FrameConn::flush() {
  while (unsent() > 0) {
    const ssize_t w = ::send(fd_, outbuf_.data() + outpos_, unsent(), MSG_NOSIGNAL);
    if (w > 0) {
      outpos_ += static_cast<std::size_t>(w);
    } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      return false;
    }
  }
  if (unsent() == 0) {
    outbuf_.clear();
    outpos_ = 0;
  } else if (outpos_ >= kMaxUnsentBytes) {
    // A reader that keeps up only partly never empties the buffer; drop the
    // sent prefix so it stays near the bound.
    outbuf_.erase(0, outpos_);
    outpos_ = 0;
  }
  return true;
}

}  // namespace bcclb
