// The four benchmark workloads. Each drives the real `bcclb` binaries
// (serve, route, search, rank) from this one process; a traced run
// additionally replays the same ops through the library's public functions
// and times each layer call with a span.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Worker widths: every bcclb process runs at BCCLB_THREADS = kThreads and the
// serving workloads use kConnections client connections, so the system under
// test plus this driver fit on a 4-core machine.
inline constexpr unsigned kThreads = 2;
inline constexpr unsigned kConnections = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  unsigned seconds = 10;
  bool trace = false;
  double tail_q = 0.0;  // the workload's fixed tail percentile
  std::string bcclb;    // the CLI under test
  std::string run_dir;     // per-run directory for sockets and job directories
  std::string spans_path;  // where a traced run writes its spans (JSON lines)
  bool corrupt = false; // test hook: flip one byte of one output before checking
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // the first few reasons

  // End-to-end measurements (untraced runs).
  std::vector<double> latencies_ms;
  double window_s = 0.0;
  double cpu_ms = 0.0;        // processes under test, measured window only
  double peak_rss_mib = 0.0;  // largest VmHWM / ru_maxrss among them
  std::vector<double> setup_s;

  // Per-layer values (traced runs), keyed by metric name.
  std::map<std::string, double> layer;

  // Extra fields for the result record, as JSON values.
  std::map<std::string, std::string> record;

  void fail(const std::string& reason);
};

struct Workload {
  const char* name;
  double tail_q;       // fixed per workload; also stated in BENCHMARK.json
  const char* widths;  // worker and connection widths, for the stamp
  Outcome (*run)(const Options&);
};

const std::vector<Workload>& workloads();

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in report order. A traced run reports all of them;
// layers its workload does not exercise read 0.
const std::vector<LayerMetric>& layer_metrics();

}  // namespace perfbench
