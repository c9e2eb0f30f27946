// Benchmark-side building blocks shared by the driver and its self-tests:
// the percentile/tail rule, output checkers, an in-memory span recorder, and
// process helpers (spawn, wait4 rusage, /proc readings).
//
// Nothing here is part of the library under test; the benchmark only calls
// the library's public headers from workloads.cpp.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Percentiles.
//
// p50 and the tail come from one sorted sample with the nearest-rank rule:
// percentile q of n samples is the element at index ceil(q/100 * n) - 1. A
// tail percentile is only reported when at least kMinBeyondTail samples lie
// strictly above its index; a run that cannot reach that count refuses to
// report a tail instead of reporting p50 (or the maximum) as the tail.

inline constexpr std::size_t kMinBeyondTail = 10;

// Index of percentile q (0 < q <= 100) in a sorted sample of size n >= 1.
std::size_t rank_index(std::size_t n, double q);

// Samples strictly above percentile q's index.
std::size_t samples_beyond(std::size_t n, double q);

// The highest percentile of the ladder 99.9, 99.5, 99, 98, 95, 90, 80, 75
// that keeps kMinBeyondTail samples beyond it; nullopt when none does.
std::optional<double> highest_tail_percentile(std::size_t n);

// Smallest sample size for which percentile q has kMinBeyondTail beyond it.
std::size_t min_samples_for_tail(double q);

struct LatencySummary {
  std::size_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;
  std::size_t beyond = 0;
};

// Sorts `sample` and returns p50 and percentile tail_q. nullopt when the
// sample is empty or too small for tail_q (fewer than kMinBeyondTail beyond).
std::optional<LatencySummary> summarize_latency(std::vector<double> sample, double tail_q);

// Median by the same nearest-rank rule (sample must be non-empty).
double median(std::vector<double> sample);

// ---------------------------------------------------------------------------
// Output checkers. Each returns an empty string when the output is right and
// a one-line reason otherwise.

// FNV-1a, the digest family the serving wire protocol uses.
std::uint64_t fnv1a64(std::string_view bytes);

// An OK serving response: the frame digest must equal FNV-1a of the artifact
// bytes, and (when `expected` is set) the digest first seen for the key.
std::string check_served_artifact(std::string_view artifact, std::uint64_t frame_digest,
                                  std::optional<std::uint64_t> expected);

// A kSimImplicit artifact must report `correct = yes`.
std::string check_sim_artifact(std::string_view artifact);

// A search cell artifact must report `bound-respected yes` and carry a
// strategy digest; the digest is written to *strategy_digest.
std::string check_search_artifact(std::string_view artifact, std::string* strategy_digest);

// A `bcclb rank` certificate must be full rank with rank == B_n and the
// pinned certificate digest.
std::string check_rank_certificate(std::string_view stdout_text, std::size_t n,
                                   std::string_view expected_digest);

// Bell number B_n by the Bell triangle (independent of the library).
std::uint64_t bell(std::size_t n);

// Value of `key = <u64>` (or `key <u64>`) in a line-oriented artifact.
std::optional<std::uint64_t> field_u64(std::string_view text, std::string_view key);

// Metric and workload names: [A-Za-z0-9_.-]+, starting with a letter/digit.
bool valid_name(std::string_view name);

// ---------------------------------------------------------------------------
// Spans, recorded only in traced runs. Spans live in memory and are written
// out once at the end. Self time = duration minus the time covered by the
// span's direct children (children of one span never overlap: the traced
// replays are single-threaded).

class Tracer {
 public:
  struct Span {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::int64_t parent;  // -1 = root
    std::uint64_t op;
  };
  struct Totals {
    std::uint64_t calls = 0;
    double self_ns = 0.0;
    double total_ns = 0.0;
  };

  std::int64_t open(const char* name, std::uint64_t op);
  void close(std::int64_t id);
  // A span whose interval was measured elsewhere (e.g. progress callbacks).
  void add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns, std::int64_t parent,
           std::uint64_t op);

  std::map<std::string, Totals> totals() const;
  double mean_self_ns(const std::string& name) const;
  std::size_t size() const { return spans_.size(); }
  void write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
};

class SpanGuard {
 public:
  SpanGuard(Tracer& tracer, const char* name, std::uint64_t op)
      : tracer_(tracer), id_(tracer.open(name, op)) {}
  ~SpanGuard() { tracer_.close(id_); }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

// ---------------------------------------------------------------------------
// Processes under test.

std::uint64_t now_ns();  // steady clock

struct ExitInfo {
  int status = 0;              // raw wait status
  double cpu_ms = 0.0;         // user + system over the child's life
  double max_rss_mib = 0.0;    // ru_maxrss
  bool ok() const;             // exited normally with code 0
};

// A child process. Output streams are captured through pipes when asked,
// otherwise sent to /dev/null. The destructor SIGKILLs and reaps a child that
// is still running, so no path leaves a process behind.
class Child {
 public:
  Child() = default;
  Child(const std::vector<std::string>& argv, bool capture_stdout, bool capture_stderr);
  Child(Child&& other) noexcept;
  Child& operator=(Child&& other) noexcept;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  ~Child();

  pid_t pid() const { return pid_; }

  // Reads stdout until one full line arrives (or the deadline passes).
  std::optional<std::string> read_stdout_line(std::uint64_t deadline_ns);
  // Reads stderr lines as they arrive, calling on_line(line, arrival_ns),
  // until EOF. Stdout is drained alongside so the child never blocks.
  template <typename F>
  void follow_stderr(F&& on_line);
  // Drains the remaining stdout (and stderr) until EOF, or until the
  // deadline passes (0 = none); returns what stdout held.
  std::string drain_stdout(std::uint64_t deadline_ns = 0);
  bool at_eof() const { return out_fd_ < 0 && err_fd_ < 0; }

  void signal(int sig);
  ExitInfo wait();  // blocks until exit; reaps

 private:
  void pump(bool want_stderr_lines, std::vector<std::pair<std::string, std::uint64_t>>* lines,
            std::uint64_t deadline_ns);
  void close_fds();

  pid_t pid_ = -1;
  int out_fd_ = -1;
  int err_fd_ = -1;
  std::string out_buf_;
  std::string err_buf_;
};

template <typename F>
void Child::follow_stderr(F&& on_line) {
  std::vector<std::pair<std::string, std::uint64_t>> lines;
  while (err_fd_ >= 0) {
    lines.clear();
    pump(true, &lines, 0);
    for (auto& [line, at] : lines) on_line(line, at);
  }
}

// Installs SIGINT/SIGTERM/SIGHUP handlers that SIGKILL every live Child and
// then die of the same signal.
void kill_children_on_signal();

// utime + stime of a live process, in ms (/proc/<pid>/stat).
double proc_cpu_ms(pid_t pid);
// VmHWM of a live process, in MiB (/proc/<pid>/status).
double proc_peak_rss_mib(pid_t pid);

// Machine stamp: nproc, CPU model, kernel release.
std::string cpu_model();
std::string kernel_release();
unsigned online_cpus();

// Filesystem helpers (paths are relative to the checkout root).
void make_dirs(const std::string& path);
void remove_tree(const std::string& path);
std::string read_file(const std::string& path);
void write_file(const std::string& path, std::string_view bytes);
std::uint64_t file_size(const std::string& path);

// JSON string escaping for the result records.
std::string json_quote(std::string_view text);

}  // namespace perfbench
