#include "serve/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "bcc/batch_runner.h"
#include "common/errors.h"
#include "serve/conn.h"

namespace bcclb {

namespace {

// Maps an I/O errno onto the client taxonomy: peer-gone errnos become
// ConnectionLostError (transient, retryable), everything else ServeError.
[[noreturn]] void throw_io(const char* what) {
  const int err = errno;
  const std::string msg = std::string(what) + ": " + std::strerror(err);
  if (err == ECONNRESET || err == EPIPE || err == ECONNABORTED || err == ENOTCONN) {
    throw ConnectionLostError(msg);
  }
  throw ServeError(msg);
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_io("client: fcntl O_NONBLOCK");
  }
}

}  // namespace

ServeClient ServeClient::connect_unix(const std::string& path) {
  const sockaddr_un addr = unix_address(path, "client");
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_io("client: socket");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_io(("client: connect '" + path + "'").c_str());
  }
  set_nonblocking(fd);
  ServeClient client(fd);
  client.unix_path_ = path;
  return client;
}

ServeClient ServeClient::connect_tcp(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_io("client: socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_io("client: connect 127.0.0.1");
  }
  set_nonblocking(fd);
  ServeClient client(fd);
  client.tcp_port_ = port;
  return client;
}

ServeClient::ServeClient(ServeClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      unix_path_(std::move(other.unix_path_)),
      tcp_port_(other.tcp_port_) {}

ServeClient& ServeClient::operator=(ServeClient&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    unix_path_ = std::move(other.unix_path_);
    tcp_port_ = other.tcp_port_;
  }
  return *this;
}

ServeClient::~ServeClient() { close(); }

void ServeClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void ServeClient::shutdown_write() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void ServeClient::reconnect() {
  close();
  try {
    if (!unix_path_.empty()) {
      const std::string path = unix_path_;
      *this = connect_unix(path);
    } else {
      *this = connect_tcp(tcp_port_);
    }
  } catch (const ConnectionLostError&) {
    throw;
  } catch (const ServeError& e) {
    // A refused/absent endpoint is a lost connection from the retry loop's
    // point of view — transient while the daemon restarts.
    throw ConnectionLostError(std::string("client: reconnect failed: ") + e.what());
  }
}

ServeClient::DeadlineNs ServeClient::deadline_from_ms(std::uint64_t ms) {
  if (ms == 0) return 0;
  return steady_now_ns() + ms * 1'000'000ULL;
}

void ServeClient::wait_io(short events, DeadlineNs deadline) {
  for (;;) {
    int timeout_ms = -1;
    if (deadline != 0) {
      const std::uint64_t now = steady_now_ns();
      if (now >= deadline) throw ClientTimeoutError("client: request deadline expired");
      // Round up so we never spin on a sub-millisecond remainder.
      timeout_ms = static_cast<int>((deadline - now + 999'999) / 1'000'000);
    }
    pollfd pfd{fd_, events, 0};
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw_io("client: poll");
    }
    if (rc == 0) throw ClientTimeoutError("client: request deadline expired");
    // On POLLERR/POLLHUP fall through: the next recv/send reports the
    // specific condition (EOF, ECONNRESET, ...).
    return;
  }
}

void ServeClient::write_all(const char* data, std::size_t size, DeadlineNs deadline) {
  if (fd_ < 0) throw ConnectionLostError("client: not connected");
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t w = ::send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        wait_io(POLLOUT, deadline);
        continue;
      }
      throw_io("client: send");
    }
    sent += static_cast<std::size_t>(w);
  }
}

void ServeClient::read_exact(char* data, std::size_t size, DeadlineNs deadline) {
  if (fd_ < 0) throw ConnectionLostError("client: not connected");
  std::size_t got = 0;
  while (got < size) {
    const ssize_t r = ::recv(fd_, data + got, size - got, 0);
    if (r == 0) {
      throw ConnectionLostError("client: server closed the connection mid-frame");
    }
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        wait_io(POLLIN, deadline);
        continue;
      }
      throw_io("client: recv");
    }
    got += static_cast<std::size_t>(r);
  }
}

void ServeClient::send_raw(std::string_view bytes) { write_all(bytes.data(), bytes.size(), 0); }

void ServeClient::send_frame(const Request& request) {
  const std::string frame = encode_request_frame(request);
  write_all(frame.data(), frame.size(), 0);
}

Response ServeClient::read_response_until(DeadlineNs deadline) {
  char header_bytes[kFrameHeaderBytes];
  read_exact(header_bytes, sizeof header_bytes, deadline);
  const FrameHeader header =
      decode_frame_header(std::string_view(header_bytes, sizeof header_bytes));
  std::string payload(header.payload_len, '\0');
  if (header.payload_len > 0) read_exact(payload.data(), payload.size(), deadline);
  return decode_response(header, payload);
}

Response ServeClient::read_response(std::uint64_t deadline_ms) {
  return read_response_until(deadline_from_ms(deadline_ms));
}

Response ServeClient::request(const Request& req) {
  send_frame(req);
  return read_response_until(0);
}

std::uint64_t client_retry_backoff_ns(const ClientRetryPolicy& policy, const Request& request,
                                      unsigned retry) {
  // The BatchRunner retry schedule verbatim: base << (k-1) capped, with
  // seeded jitter keyed by (seed, job, attempt). The request's cache key is
  // the job id, so distinct requests de-synchronize instead of thundering.
  BatchPolicy backoff;
  backoff.backoff_base_ns = policy.backoff_base_ms * 1'000'000ULL;
  backoff.backoff_cap_ns = policy.backoff_cap_ms * 1'000'000ULL;
  backoff.backoff_seed = policy.backoff_seed;
  return retry_backoff_ns(backoff, static_cast<std::size_t>(request_cache_key(request)), retry);
}

RetryOutcome ServeClient::request_with_retry(const Request& req,
                                             const ClientRetryPolicy& policy) {
  RetryOutcome out;
  for (unsigned attempt = 0;; ++attempt) {
    try {
      if (!connected()) {
        reconnect();
        ++out.reconnects;
      }
      const DeadlineNs deadline = deadline_from_ms(policy.deadline_ms);
      const std::string frame = encode_request_frame(req);
      write_all(frame.data(), frame.size(), deadline);
      out.response = read_response_until(deadline);
      const bool retryable_status =
          (out.response.status == StatusCode::kQueueFull && policy.retry_queue_full) ||
          (out.response.status == StatusCode::kNoBackend && policy.retry_no_backend);
      if (!retryable_status || attempt >= policy.max_retries) return out;
    } catch (const ClientTimeoutError&) {
      // The stream is poisoned — the late response may still arrive and would
      // desynchronize framing. Drop the connection; the retry redials.
      close();
      if (attempt >= policy.max_retries) throw;
    } catch (const ConnectionLostError&) {
      close();
      if (attempt >= policy.max_retries) throw;
    }
    ++out.retries;
    const std::uint64_t ns = client_retry_backoff_ns(policy, req, attempt + 1);
    if (ns > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
  }
}

const Response& require_ok(const Response& response) {
  if (response.status != StatusCode::kOk) {
    throw ServerReportedError(std::string("server reported ") +
                                  status_code_name(response.status) + ": " + response.artifact,
                              static_cast<std::uint16_t>(response.status));
  }
  return response;
}

}  // namespace bcclb
