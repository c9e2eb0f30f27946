// Self-tests of the benchmark's own rules: the percentile/tail rule on
// hand-made samples, the output checkers on corrupted outputs, span self
// time, and the name rule. Exit code 0 when every check holds.
//
//   perfbench_selftest
//
// `python3 perfbench/run.py --self-test` builds and runs this, and checks the
// names in BENCHMARK.json against the driver's own lists.
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "bench_core.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL %s\n", what);
  }
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  std::shuffle(v.begin(), v.end(), std::mt19937(7));  // summarize must sort
  return v;
}

void test_percentiles() {
  using namespace perfbench;
  const auto s100 = summarize_latency(one_to(100), 90.0);
  expect(s100 && s100->p50 == 50.0 && s100->tail == 90.0 && s100->beyond == 10,
         "p50 and p90 of 1..100 by nearest rank, 10 samples beyond p90");
  expect(!summarize_latency(one_to(100), 95.0), "p95 of 100 samples refused (5 beyond)");
  expect(!summarize_latency({}, 50.0), "empty sample refused");
  const auto s200 = summarize_latency(one_to(200), 95.0);
  expect(s200 && s200->tail == 190.0 && s200->beyond == 10, "p95 of 200 is exactly the 190th");
  expect(highest_tail_percentile(1000) == 99.0, "1000 samples reach p99, not p99.5");
  expect(highest_tail_percentile(999) == 98.0, "999 samples fall back to p98");
  expect(!highest_tail_percentile(12), "12 samples support no tail");
  expect(min_samples_for_tail(99.0) == 1000, "p99 needs 1000 samples");
  expect(min_samples_for_tail(90.0) == 100, "p90 needs 100 samples");
  // tail >= p50 on any sample, including heavy ties and a bimodal one.
  std::vector<double> bimodal(600, 1.0);
  std::fill(bimodal.begin(), bimodal.begin() + 250, 50.0);
  for (const double q : {75.0, 90.0, 95.0, 98.0}) {
    const auto s = summarize_latency(bimodal, q);
    expect(s && s->tail >= s->p50 && s->beyond >= kMinBeyondTail, "tail >= p50 (bimodal)");
  }
  expect(median({3.0, 1.0, 2.0}) == 2.0, "median of three");
}

void test_checkers() {
  using namespace perfbench;
  const std::string artifact = "sim-implicit family=one-cycle n=64 seed=1\n"
                               "decision = YES (connectivity), correct = yes\n";
  const std::uint64_t digest = fnv1a64(artifact);
  expect(fnv1a64("a") == 0xaf63dc4c8601ec8cULL, "FNV-1a test vector");
  expect(check_served_artifact(artifact, digest, digest).empty(), "good artifact accepted");
  std::string flipped = artifact;
  flipped[10] ^= 0x01;
  expect(!check_served_artifact(flipped, digest, digest).empty(), "bit-flipped artifact rejected");
  expect(!check_served_artifact(artifact, digest, digest ^ 1).empty(),
         "digest differing from the first seen rejected");
  expect(check_sim_artifact(artifact).empty(), "correct sim artifact accepted");
  expect(!check_sim_artifact("decision = NO (connectivity), correct = NO\n").empty(),
         "incorrect sim artifact rejected");

  const std::string cell = "bcclb search artifact v1\n"
                           "certificate-floor 11025/75600 bound-respected yes\n"
                           "strategy-digest be7759e0278e4d6b\n";
  std::string strategy;
  expect(check_search_artifact(cell, &strategy).empty() && strategy == "be7759e0278e4d6b",
         "bound-respected cell accepted with its digest");
  expect(!check_search_artifact("certificate-floor 1/2 bound-respected ANOMALY\n"
                                "strategy-digest be7759e0278e4d6b\n",
                                nullptr)
              .empty(),
         "anomalous cell rejected");

  expect(bell(8) == 4140 && bell(9) == 21147 && bell(0) == 1, "Bell numbers");
  const auto certificate = [](const char* rank, const char* digest) {
    return std::string("bcclb rank certificate v1\nmatrix M_8\ndimension 4140\nfield modp\n"
                       "prime 1073741789\ntile-rows 32\ntiles 130\nrank ") +
           rank + "\nfull-rank yes\ncertificate " + digest + "\n";
  };
  expect(check_rank_certificate(certificate("4140", "e6b8d08274a74e8c"), 8, "e6b8d08274a74e8c")
             .empty(),
         "full-rank certificate accepted");
  expect(!check_rank_certificate(certificate("4139", "e6b8d08274a74e8c"), 8, "e6b8d08274a74e8c")
              .empty(),
         "wrong-rank certificate rejected");
  expect(!check_rank_certificate(certificate("4140", "e6b8d08274a74e8d"), 8, "e6b8d08274a74e8c")
              .empty(),
         "certificate with another digest rejected");
  expect(field_u64("a = 1\nrounds = 42\n", "rounds = ") == 42, "field parser");
}

void test_spans() {
  perfbench::Tracer t;
  t.add("parent", 0, 100, -1, 0);
  t.add("child", 10, 40, 0, 0);
  t.add("child", 50, 60, 0, 0);
  const auto totals = t.totals();
  expect(totals.at("parent").self_ns == 60.0 && totals.at("parent").total_ns == 100.0,
         "parent self time excludes its children");
  expect(t.mean_self_ns("child") == 20.0 && t.mean_self_ns("absent") == 0.0,
         "mean self time per call");
}

void test_names() {
  using perfbench::valid_name;
  expect(valid_name("warm_routed") && valid_name("wire.decode_request_ns") &&
             valid_name("p50_ms") && valid_name("1x-a"),
         "valid names accepted");
  expect(!valid_name("") && !valid_name("_lead") && !valid_name("has space") &&
             !valid_name("slash/name") && !valid_name(std::string(65, 'a')),
         "invalid names rejected");
}

}  // namespace

int main() {
  test_percentiles();
  test_checkers();
  test_spans();
  test_names();
  std::printf("perfbench self-test: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}
