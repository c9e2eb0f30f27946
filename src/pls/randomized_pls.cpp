#include "pls/randomized_pls.h"

#include <queue>

#include "common/check.h"
#include "common/random.h"

namespace bcclb {

namespace {

// c-bit public-coin hash (seed from the shared coins, so every vertex
// evaluates the same function).
std::uint64_t hash_c(std::uint64_t seed, std::uint64_t a, std::uint64_t b, unsigned c) {
  return fmix64(seed ^ fmix64(a * 0x9e3779b97f4a7c15ULL + b)) >> (64 - c);
}

struct Digest {
  std::uint64_t root_hash = 0;
  std::uint64_t pair_hash = 0;
  bool claims_root = false;
};

}  // namespace

std::vector<RandomizedLabel> prove_randomized_connectivity(const BccInstance& instance) {
  const std::size_t n = instance.num_vertices();
  constexpr std::uint64_t kUnset = static_cast<std::uint64_t>(-1);
  std::vector<RootDist> pair(n);
  std::vector<std::uint64_t> seen(n, kUnset);
  for (VertexId s = 0; s < n; ++s) {
    if (seen[s] != kUnset) continue;
    seen[s] = 0;
    pair[s] = {instance.id_of(s), 0};
    std::queue<VertexId> q;
    q.push(s);
    while (!q.empty()) {
      const VertexId v = q.front();
      q.pop();
      for (VertexId u : instance.input().neighbors(v)) {
        if (seen[u] == kUnset) {
          seen[u] = 0;
          pair[u] = {pair[s].root, pair[v].dist + 1};
          q.push(u);
        }
      }
    }
  }
  std::vector<RandomizedLabel> labels(n);
  for (VertexId v = 0; v < n; ++v) {
    labels[v].own = pair[v];
    for (Port p : instance.input_ports(v)) {
      labels[v].copies.push_back(pair[instance.wiring().peer(v, p)]);
    }
  }
  return labels;
}

RandomizedPlsResult run_randomized_pls(const BccInstance& instance,
                                       const std::vector<RandomizedLabel>& labels,
                                       unsigned hash_bits, const PublicCoins& coins) {
  const std::size_t n = instance.num_vertices();
  BCCLB_REQUIRE(labels.size() == n, "need one label per vertex");
  BCCLB_REQUIRE(hash_bits >= 1 && hash_bits <= 32, "hash width out of range");
  const std::uint64_t seed = coins.word(0, 64);

  // Broadcast phase: every vertex publishes its digest.
  std::vector<Digest> digest(n);
  for (VertexId v = 0; v < n; ++v) {
    digest[v].root_hash = hash_c(seed, labels[v].own.root, 0x526f6f74, hash_bits);
    digest[v].pair_hash = hash_c(seed, labels[v].own.root, labels[v].own.dist, hash_bits);
    digest[v].claims_root = labels[v].own.dist == 0;
  }

  RandomizedPlsResult result;
  result.accepted = true;
  result.broadcast_bits = 2 * static_cast<std::size_t>(hash_bits) + 1;

  std::size_t root_claims = 0;
  for (const Digest& d : digest) root_claims += d.claims_root ? 1 : 0;

  for (VertexId v = 0; v < n; ++v) {
    const RandomizedLabel& l = labels[v];
    const auto input_ports = instance.input_ports(v);
    bool ok = l.copies.size() == input_ports.size();
    // (1) one root hash globally (all broadcasts visible).
    for (VertexId u = 0; ok && u < n; ++u) {
      ok = digest[u].root_hash == digest[v].root_hash;
    }
    // (2) exactly one distance-0 claim.
    ok = ok && root_claims == 1;
    // (3) a claimed root must be this very vertex.
    if (ok && l.own.dist == 0) ok = l.own.root == instance.id_of(v);
    ok = ok && l.own.dist < n;
    // (4) copies hash-match their owners' digests.
    for (std::size_t i = 0; ok && i < input_ports.size(); ++i) {
      const VertexId owner = instance.wiring().peer(v, input_ports[i]);
      ok = hash_c(seed, l.copies[i].root, l.copies[i].dist, hash_bits) ==
           digest[owner].pair_hash;
    }
    // (5) grounding through the (verified) copies.
    if (ok && l.own.dist > 0) {
      bool grounded = false;
      for (const RootDist& c : l.copies) {
        if (c.dist + 1 == l.own.dist && c.root == l.own.root) grounded = true;
      }
      ok = grounded;
    }
    result.votes.push_back(ok);
    result.accepted = result.accepted && ok;
  }
  return result;
}

}  // namespace bcclb
