#include "bench_core.h"

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

extern char** environ;

namespace perfbench {

// ---------------------------------------------------------------------------
// Percentiles.

namespace {
constexpr double kTailLadder[] = {99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0};

// Percentiles are handled in tenths so that e.g. 95% of 200 is exactly 190
// (floating point would round 0.95 * 200 up to the next index).
std::uint64_t tenths(double q) { return static_cast<std::uint64_t>(std::llround(q * 10.0)); }
}  // namespace

std::size_t rank_index(std::size_t n, double q) {
  const std::uint64_t pos = (tenths(q) * n + 999) / 1000;  // ceil(q/100 * n)
  return static_cast<std::size_t>(std::max<std::uint64_t>(pos, 1) - 1);
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  return n - 1 - rank_index(n, q);
}

std::optional<double> highest_tail_percentile(std::size_t n) {
  for (const double q : kTailLadder) {
    if (samples_beyond(n, q) >= kMinBeyondTail) return q;
  }
  return std::nullopt;
}

std::size_t min_samples_for_tail(double q) {
  std::size_t n = kMinBeyondTail + 1;
  while (samples_beyond(n, q) < kMinBeyondTail) ++n;
  return n;
}

std::optional<LatencySummary> summarize_latency(std::vector<double> sample, double tail_q) {
  const std::size_t n = sample.size();
  if (n == 0 || samples_beyond(n, tail_q) < kMinBeyondTail) return std::nullopt;
  std::sort(sample.begin(), sample.end());
  LatencySummary s;
  s.count = n;
  s.p50 = sample[rank_index(n, 50.0)];
  s.tail = sample[rank_index(n, tail_q)];
  s.beyond = samples_beyond(n, tail_q);
  return s;
}

double median(std::vector<double> sample) {
  std::sort(sample.begin(), sample.end());
  return sample[rank_index(sample.size(), 50.0)];
}

// ---------------------------------------------------------------------------
// Checkers.

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string check_served_artifact(std::string_view artifact, std::uint64_t frame_digest,
                                  std::optional<std::uint64_t> expected) {
  if (fnv1a64(artifact) != frame_digest) return "artifact bytes do not hash to the frame digest";
  if (expected && *expected != frame_digest) return "artifact digest differs from the first seen";
  return {};
}

std::string check_sim_artifact(std::string_view artifact) {
  if (artifact.find("correct = yes") == std::string_view::npos) {
    return "sim-implicit artifact does not report correct = yes";
  }
  return {};
}

std::string check_search_artifact(std::string_view artifact, std::string* strategy_digest) {
  if (artifact.find("bound-respected yes") == std::string_view::npos) {
    return "search artifact is not bound-respected";
  }
  const std::string_view marker = "strategy-digest ";
  const std::size_t at = artifact.find(marker);
  if (at == std::string_view::npos) return "search artifact has no strategy digest";
  const std::size_t begin = at + marker.size();
  const std::size_t end = artifact.find('\n', begin);
  const std::string_view digest = artifact.substr(begin, end - begin);
  if (digest.size() != 16 ||
      digest.find_first_not_of("0123456789abcdef") != std::string_view::npos) {
    return "search artifact has a malformed strategy digest";
  }
  if (strategy_digest != nullptr) *strategy_digest = std::string(digest);
  return {};
}

std::uint64_t bell(std::size_t n) {
  // Bell triangle: each row starts with the last entry of the previous row.
  std::vector<std::uint64_t> row{1};
  for (std::size_t i = 1; i <= n; ++i) {
    std::vector<std::uint64_t> next{row.back()};
    for (const std::uint64_t v : row) next.push_back(next.back() + v);
    row = std::move(next);
  }
  return row.front();
}

std::optional<std::uint64_t> field_u64(std::string_view text, std::string_view key) {
  for (std::size_t at = text.find(key); at != std::string_view::npos;
       at = text.find(key, at + 1)) {
    std::size_t i = at + key.size();
    if (i >= text.size() || text[i] < '0' || text[i] > '9') continue;
    std::uint64_t v = 0;
    for (; i < text.size() && text[i] >= '0' && text[i] <= '9'; ++i) v = v * 10 + (text[i] - '0');
    return v;
  }
  return std::nullopt;
}

std::string check_rank_certificate(std::string_view text, std::size_t n,
                                   std::string_view expected_digest) {
  const std::uint64_t b = bell(n);
  const auto rank = field_u64(text, "\nrank ");
  const auto dimension = field_u64(text, "\ndimension ");
  if (!rank || !dimension) return "rank certificate is missing rank or dimension";
  if (*dimension != b) return "rank certificate dimension is not B_n";
  if (*rank != b) return "rank certificate rank " + std::to_string(*rank) + " != B_n";
  if (text.find("\nfull-rank yes\n") == std::string_view::npos) {
    return "rank certificate is not full rank";
  }
  const std::string want = "\ncertificate " + std::string(expected_digest) + "\n";
  if (text.find(want) == std::string_view::npos) return "rank certificate digest differs";
  return {};
}

bool valid_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

// ---------------------------------------------------------------------------
// Tracer.

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

std::int64_t Tracer::open(const char* name, std::uint64_t op) {
  const std::int64_t parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({name, now_ns(), 0, parent, op});
  stack_.push_back(static_cast<std::int64_t>(spans_.size() - 1));
  return stack_.back();
}

void Tracer::close(std::int64_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  stack_.pop_back();
}

void Tracer::add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                 std::int64_t parent, std::uint64_t op) {
  spans_.push_back({name, start_ns, end_ns, parent, op});
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double dur = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    Totals& t = out[spans_[i].name];
    ++t.calls;
    t.total_ns += dur;
    t.self_ns += dur - child_ns[i];
  }
  return out;
}

double Tracer::mean_self_ns(const std::string& name) const {
  const auto all = totals();
  const auto it = all.find(name);
  if (it == all.end() || it->second.calls == 0) return 0.0;
  return it->second.self_ns / static_cast<double>(it->second.calls);
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent << ",\"op\":" << s.op
        << "}\n";
  }
}

// ---------------------------------------------------------------------------
// Child processes.

namespace {
// Live children, so that a driver stopped by a signal takes its daemons down
// with it instead of leaving them running. Lock-free: the handler reads it.
constexpr std::size_t kMaxChildren = 16;
std::atomic<pid_t> g_children[kMaxChildren];

void track_child(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t empty = 0;
    if (slot.compare_exchange_strong(empty, pid)) return;
  }
}

void untrack_child(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

extern "C" void kill_children_and_exit(int sig) {
  for (auto& slot : g_children) {
    const pid_t pid = slot.load();
    if (pid > 0) ::kill(pid, SIGKILL);
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}
}  // namespace

void kill_children_on_signal() {
  for (const int sig : {SIGINT, SIGTERM, SIGHUP}) ::signal(sig, kill_children_and_exit);
}

bool ExitInfo::ok() const { return WIFEXITED(status) && WEXITSTATUS(status) == 0; }

Child::Child(const std::vector<std::string>& argv, bool capture_stdout, bool capture_stderr) {
  int out_pipe[2] = {-1, -1};
  int err_pipe[2] = {-1, -1};
  if ((capture_stdout && pipe2(out_pipe, O_CLOEXEC) != 0) ||
      (capture_stderr && pipe2(err_pipe, O_CLOEXEC) != 0)) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  if (capture_stdout) {
    posix_spawn_file_actions_adddup2(&actions, out_pipe[1], 1);
  } else {
    posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  }
  if (capture_stderr) {
    posix_spawn_file_actions_adddup2(&actions, err_pipe[1], 2);
  } else {
    posix_spawn_file_actions_addopen(&actions, 2, "/dev/null", O_WRONLY, 0);
  }
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const int rc = posix_spawn(&pid_, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (capture_stdout) ::close(out_pipe[1]);
  if (capture_stderr) ::close(err_pipe[1]);
  out_fd_ = out_pipe[0];
  err_fd_ = err_pipe[0];
  if (rc != 0) {
    pid_ = -1;
    close_fds();
    throw std::runtime_error("spawn " + argv[0] + ": " + std::strerror(rc));
  }
  track_child(pid_);
}

Child::Child(Child&& other) noexcept { *this = std::move(other); }

Child& Child::operator=(Child&& other) noexcept {
  if (this != &other) {
    std::swap(pid_, other.pid_);
    std::swap(out_fd_, other.out_fd_);
    std::swap(err_fd_, other.err_fd_);
    std::swap(out_buf_, other.out_buf_);
    std::swap(err_buf_, other.err_buf_);
  }
  return *this;
}

Child::~Child() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    untrack_child(pid_);
  }
  close_fds();
}

void Child::close_fds() {
  if (out_fd_ >= 0) ::close(out_fd_);
  if (err_fd_ >= 0) ::close(err_fd_);
  out_fd_ = err_fd_ = -1;
}

void Child::pump(bool want_stderr_lines,
                 std::vector<std::pair<std::string, std::uint64_t>>* lines,
                 std::uint64_t deadline_ns) {
  pollfd fds[2];
  int count = 0;
  if (out_fd_ >= 0) fds[count++] = {out_fd_, POLLIN, 0};
  if (err_fd_ >= 0) fds[count++] = {err_fd_, POLLIN, 0};
  if (count == 0) return;
  int timeout_ms = -1;
  if (deadline_ns != 0) {
    const std::uint64_t now = now_ns();
    timeout_ms = now >= deadline_ns ? 0 : static_cast<int>((deadline_ns - now) / 1'000'000 + 1);
  }
  const int ready = ::poll(fds, static_cast<nfds_t>(count), timeout_ms);
  if (ready <= 0) return;
  char buf[65536];
  for (int i = 0; i < count; ++i) {
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    const bool is_err = fds[i].fd == err_fd_;
    const ssize_t got = ::read(fds[i].fd, buf, sizeof buf);
    const std::uint64_t at = now_ns();
    std::string& sink = is_err ? err_buf_ : out_buf_;
    if (got > 0) sink.append(buf, static_cast<std::size_t>(got));
    const bool eof = got == 0 || (got < 0 && errno != EINTR && errno != EAGAIN);
    if (is_err && want_stderr_lines) {
      for (std::size_t nl; (nl = err_buf_.find('\n')) != std::string::npos;) {
        lines->emplace_back(err_buf_.substr(0, nl), at);
        err_buf_.erase(0, nl + 1);
      }
      if (eof && !err_buf_.empty()) {
        lines->emplace_back(err_buf_, at);
        err_buf_.clear();
      }
    }
    if (eof) {
      ::close(fds[i].fd);
      (is_err ? err_fd_ : out_fd_) = -1;
    }
  }
}

std::optional<std::string> Child::read_stdout_line(std::uint64_t deadline_ns) {
  for (;;) {
    const std::size_t nl = out_buf_.find('\n');
    if (nl != std::string::npos) {
      std::string line = out_buf_.substr(0, nl);
      out_buf_.erase(0, nl + 1);
      return line;
    }
    if (out_fd_ < 0 || now_ns() >= deadline_ns) return std::nullopt;
    pump(false, nullptr, deadline_ns);
  }
}

std::string Child::drain_stdout(std::uint64_t deadline_ns) {
  while (!at_eof() && (deadline_ns == 0 || now_ns() < deadline_ns)) {
    pump(false, nullptr, deadline_ns);
  }
  std::string out = std::move(out_buf_);
  out_buf_.clear();
  return out;
}

void Child::signal(int sig) {
  if (pid_ > 0) ::kill(pid_, sig);
}

ExitInfo Child::wait() {
  ExitInfo info;
  if (pid_ <= 0) return info;
  rusage usage{};
  while (::wait4(pid_, &info.status, 0, &usage) < 0 && errno == EINTR) {
  }
  untrack_child(pid_);
  pid_ = -1;
  close_fds();
  const auto ms = [](const timeval& tv) { return tv.tv_sec * 1e3 + tv.tv_usec / 1e3; };
  info.cpu_ms = ms(usage.ru_utime) + ms(usage.ru_stime);
  info.max_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return info;
}

double proc_cpu_ms(pid_t pid) {
  const std::string stat = read_file("/proc/" + std::to_string(pid) + "/stat");
  // Fields after the parenthesised command name start at field 3 (state);
  // utime and stime are fields 14 and 15.
  std::istringstream in(stat.substr(stat.rfind(')') + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 3; i <= 15 && (in >> field); ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double proc_peak_rss_mib(pid_t pid) {
  const std::string status = read_file("/proc/" + std::to_string(pid) + "/status");
  const std::size_t at = status.find("VmHWM:");
  if (at == std::string::npos) return 0.0;
  return std::stod(status.substr(at + 6)) / 1024.0;  // "VmHWM:   66712 kB"
}

std::string cpu_model() {
  const std::string info = read_file("/proc/cpuinfo");
  const std::size_t at = info.find("model name");
  if (at == std::string::npos) return "unknown";
  const std::size_t colon = info.find(':', at);
  const std::size_t end = info.find('\n', colon);
  std::string model = info.substr(colon + 1, end - colon - 1);
  model.erase(0, model.find_first_not_of(' '));
  return model;
}

std::string kernel_release() {
  utsname u{};
  return ::uname(&u) == 0 ? std::string(u.release) : "unknown";
}

unsigned online_cpus() { return static_cast<unsigned>(::sysconf(_SC_NPROCESSORS_ONLN)); }

void make_dirs(const std::string& path) { std::filesystem::create_directories(path); }

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::uint64_t file_size(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

std::string json_quote(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof esc, "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
