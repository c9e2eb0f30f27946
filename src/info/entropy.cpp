#include "info/entropy.h"

#include <algorithm>
#include <cmath>

namespace bcclb {

namespace {

double plogp_sum(double total, const auto& masses) {
  double h = 0.0;
  for (const auto& [key, m] : masses) {
    if (m <= 0.0) continue;
    const double p = m / total;
    h -= p * std::log2(p);
  }
  return h;
}

}  // namespace

double entropy(const Distribution& d) {
  if (d.total_mass() <= 0.0) return 0.0;
  return plogp_sum(d.total_mass(), d.masses());
}

double joint_entropy(const JointDistribution& j) {
  if (j.total_mass() <= 0.0) return 0.0;
  return plogp_sum(j.total_mass(), j.masses());
}

double mutual_information(const JointDistribution& j) {
  const double i = entropy(j.marginal_x()) + entropy(j.marginal_y()) - joint_entropy(j);
  return std::max(0.0, i);
}

}  // namespace bcclb
