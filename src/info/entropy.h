// Shannon entropy, joint entropy and mutual information (base 2),
// following the definitions recalled in Section 2 of the paper.
#pragma once

#include "info/distribution.h"

namespace bcclb {

// H(X) = -sum p log2 p. Masses are normalized internally.
double entropy(const Distribution& d);

// Joint entropy H(X, Y).
double joint_entropy(const JointDistribution& j);

// I(X; Y) = H(X) - H(X | Y) = H(X) + H(Y) - H(X, Y). Clamped at 0 to absorb
// double rounding.
double mutual_information(const JointDistribution& j);

}  // namespace bcclb
