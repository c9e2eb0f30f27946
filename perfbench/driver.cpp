// perfbench_driver — runs one benchmark workload against the real bcclb
// binaries and prints every metric by name with its unit. The last stdout
// line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    --bcclb <path> [--work-dir <dir>] [--commit <id>]
//                    [--source-digest <hex>] [--corrupt]
//   perfbench_driver --list <workloads|end-to-end|per-layer>
//
// --trace 0 reports the end-to-end metrics; --trace 1 replays the same ops
// through the library's public calls and reports the per-layer metrics.
// --corrupt flips one byte of one output before it is checked, to prove the
// checker fails the run. Exit code 0 only when every op was correct.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench_core.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct EndToEnd {
  const char* name;
  const char* unit;
};

// error_rate (failed / attempted) is not among them: it is 0 on every run
// that passes, so it travels as the result's "attempted" and "failed".
const std::vector<EndToEnd>& end_to_end_metrics() {
  static const std::vector<EndToEnd> all = {
      {"throughput", "ops/s"},  {"p50_ms", "ms"},       {"tail_ms", "ms"},
      {"cpu_ms_per_op", "ms"},  {"peak_rss_mib", "MiB"}, {"setup_s", "s"},
  };
  return all;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "--bcclb <path> [--work-dir <dir>] [--commit <id>] [--source-digest <hex>] "
               "[--corrupt]\n"
               "       perfbench_driver --list <workloads|end-to-end|per-layer>\n");
  return 2;
}

std::optional<std::uint64_t> parse_u64(const char* text) {
  if (text == nullptr || *text == '\0') return std::nullopt;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*end != '\0') return std::nullopt;
  return v;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int list(const std::string& what) {
  if (what == "workloads") {
    for (const Workload& w : workloads()) std::printf("%s\n", w.name);
  } else if (what == "end-to-end") {
    for (const EndToEnd& m : end_to_end_metrics()) std::printf("%s %s\n", m.name, m.unit);
  } else if (what == "per-layer") {
    for (const LayerMetric& m : layer_metrics()) std::printf("%s %s\n", m.name, m.unit);
  } else {
    return usage();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::string work_dir = ".bench_build/perfbench";
  std::string commit = "unknown", source_digest = "unknown";
  std::optional<std::uint64_t> seed, seconds, trace;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--corrupt") {
      opts.corrupt = true;
      continue;
    }
    if (value == nullptr) return usage();
    ++i;
    if (flag == "--list") return list(value);
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      seed = parse_u64(value);
    } else if (flag == "--seconds") {
      seconds = parse_u64(value);
    } else if (flag == "--trace") {
      trace = parse_u64(value);
    } else if (flag == "--bcclb") {
      opts.bcclb = value;
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else if (flag == "--source-digest") {
      source_digest = value;
    } else {
      return usage();
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : workloads()) {
    if (opts.workload == w.name) workload = &w;
  }
  if (workload == nullptr || !seed || !seconds || *seconds == 0 || !trace || *trace > 1 ||
      opts.bcclb.empty()) {
    return usage();
  }
  opts.seed = *seed;
  opts.seconds = static_cast<unsigned>(*seconds);
  opts.trace = *trace == 1;
  opts.tail_q = workload->tail_q;

  // Every bcclb child and every in-process library call runs at this width,
  // and no other BCCLB_* setting (fault plans, memory budgets) leaks in.
  std::vector<std::string> inherited;
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string entry = *env;
    if (entry.rfind("BCCLB_", 0) == 0) inherited.push_back(entry.substr(0, entry.find('=')));
  }
  for (const std::string& name : inherited) ::unsetenv(name.c_str());
  ::setenv("BCCLB_THREADS", std::to_string(kThreads).c_str(), 1);
  kill_children_on_signal();
  const std::string tag = opts.workload + "-seed" + std::to_string(opts.seed) + "-trace" +
                          std::to_string(*trace);
  opts.run_dir = work_dir + "/run-" + std::to_string(::getpid());
  opts.spans_path = work_dir + "/" + tag + ".spans.jsonl";
  make_dirs(opts.run_dir);

  Outcome out;
  try {
    out = workload->run(opts);
  } catch (const std::exception& e) {
    remove_tree(opts.run_dir);
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload->name, e.what());
    return 1;
  }
  remove_tree(opts.run_dir);

  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::optional<LatencySummary> summary;
  if (!opts.trace) {
    summary = summarize_latency(out.latencies_ms, workload->tail_q);
    if (!summary) {
      std::fprintf(stderr, "perfbench: %zu ops are too few for a p%g tail; no result\n",
                   out.latencies_ms.size(), workload->tail_q);
      return 1;
    }
    const double completed = static_cast<double>(out.attempted - out.failed);
    const double values[] = {
        completed / out.window_s,
        summary->p50,
        summary->tail,
        completed > 0 ? out.cpu_ms / completed : 0.0,
        out.peak_rss_mib,
        median(out.setup_s),
    };
    for (std::size_t m = 0; m < end_to_end_metrics().size(); ++m) {
      metrics.push_back({end_to_end_metrics()[m].name, {values[m], end_to_end_metrics()[m].unit}});
    }
  } else {
    for (const LayerMetric& m : layer_metrics()) {
      const auto it = out.layer.find(m.name);
      metrics.push_back({m.name, {it == out.layer.end() ? 0.0 : it->second, m.unit}});
    }
  }

  // Human-readable lines first, then the stamp, then the result.
  for (const auto& [name, value] : metrics) {
    std::printf("metric %-30s %.6g %s\n", name.c_str(), value.first, value.second.c_str());
  }
  std::printf("error_rate %.6g (%llu failed of %llu attempted)\n",
              out.attempted ? static_cast<double>(out.failed) / out.attempted : 0.0,
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  for (const std::string& why : out.failures) std::printf("failure: %s\n", why.c_str());

  std::string stamp = "{\"workload\":" + json_quote(opts.workload) +
                      ",\"seed\":" + std::to_string(opts.seed) +
                      ",\"trace\":" + std::to_string(*trace) +
                      ",\"seconds\":" + std::to_string(opts.seconds) +
                      ",\"commit\":" + json_quote(commit) +
                      ",\"source_digest\":" + json_quote(source_digest) +
                      ",\"nproc\":" + std::to_string(online_cpus()) +
                      ",\"cpu_model\":" + json_quote(cpu_model()) +
                      ",\"kernel\":" + json_quote(kernel_release()) +
                      ",\"bcclb_threads\":" + std::to_string(kThreads) +
                      ",\"widths\":" + json_quote(workload->widths) +
                      ",\"tail_percentile\":" + number(workload->tail_q);
  if (summary) {
    stamp += ",\"samples\":" + std::to_string(summary->count) +
             ",\"samples_beyond_tail\":" + std::to_string(summary->beyond) +
             ",\"highest_supported_tail\":" +
             number(highest_tail_percentile(summary->count).value_or(0)) +
             ",\"window_s\":" + number(out.window_s);
  }
  stamp += "}";
  std::printf("stamp %s\n", stamp.c_str());
  std::string record = "{";
  for (const auto& [key, value] : out.record) {
    record += (record.size() > 1 ? "," : "") + json_quote(key) + ":" + value;
  }
  record += "}";

  std::string metrics_json = "{";
  for (const auto& [name, value] : metrics) {
    metrics_json += (metrics_json.size() > 1 ? "," : "") + json_quote(name) + ":{\"value\":" +
                    number(value.first) + ",\"unit\":" + json_quote(value.second) + "}";
  }
  metrics_json += "}";
  const bool correct = out.failed == 0;
  write_file(work_dir + "/" + tag + ".json",
             "{\"stamp\":" + stamp + ",\"metrics\":" + metrics_json +
                 ",\"record\":" + record + "}\n");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics_json.c_str());
  return correct ? 0 : 1;
}
