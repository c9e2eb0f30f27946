// Tests for distributions, entropy and mutual information.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/random.h"
#include "info/entropy.h"

namespace bcclb {
namespace {

// prefix followed by i in decimal. Appending, rather than writing
// "x" + std::to_string(i), avoids GCC 12's false -Wrestrict warning on the
// inlined string::insert.
std::string label(const char* prefix, int i) {
  std::string s = prefix;
  s += std::to_string(i);
  return s;
}

TEST(Distribution, MassAccumulates) {
  Distribution d;
  d.add("a", 1.0);
  d.add("a", 2.0);
  d.add("b", 1.0);
  EXPECT_DOUBLE_EQ(d.total_mass(), 4.0);
  EXPECT_EQ(d.support_size(), 2u);
  EXPECT_THROW(d.add("c", -1.0), std::invalid_argument);
}

TEST(Entropy, UniformIsLogSupport) {
  Distribution d;
  for (int i = 0; i < 8; ++i) d.add(label("x", i), 1.0);
  EXPECT_NEAR(entropy(d), 3.0, 1e-12);
}

TEST(Entropy, PointMassIsZero) {
  Distribution d;
  d.add("only", 5.0);
  EXPECT_DOUBLE_EQ(entropy(d), 0.0);
}

TEST(Entropy, UnnormalizedMassesAreNormalized) {
  Distribution a, b;
  a.add("x", 1.0);
  a.add("y", 1.0);
  b.add("x", 10.0);
  b.add("y", 10.0);
  EXPECT_NEAR(entropy(a), entropy(b), 1e-12);
}

TEST(Entropy, BinaryEntropyFormula) {
  for (double p : {0.1, 0.25, 0.5, 0.9}) {
    Distribution d;
    d.add("one", p);
    d.add("zero", 1 - p);
    const double expect = -p * std::log2(p) - (1 - p) * std::log2(1 - p);
    EXPECT_NEAR(entropy(d), expect, 1e-12);
  }
}

TEST(Joint, MarginalsAreConsistent) {
  JointDistribution j;
  j.add("a", "1", 0.25);
  j.add("a", "2", 0.25);
  j.add("b", "1", 0.5);
  EXPECT_DOUBLE_EQ(j.total_mass(), 1.0);
  EXPECT_EQ(j.marginal_x().support_size(), 2u);
  EXPECT_EQ(j.marginal_y().support_size(), 2u);
  EXPECT_NEAR(j.marginal_x().masses().at("a"), 0.5, 1e-12);
}

TEST(MutualInformation, IndependentIsZero) {
  JointDistribution j;
  for (const char* x : {"a", "b"}) {
    for (const char* y : {"1", "2", "3"}) j.add(x, y, 1.0);
  }
  EXPECT_NEAR(mutual_information(j), 0.0, 1e-12);
}

TEST(MutualInformation, DeterministicFunctionGivesFullEntropy) {
  // Y = f(X) injective: I(X; Y) = H(X).
  JointDistribution j;
  for (int i = 0; i < 16; ++i) {
    j.add(label("x", i), label("y", i), 1.0);
  }
  EXPECT_NEAR(mutual_information(j), 4.0, 1e-12);
}

TEST(MutualInformation, ManyToOneLosesInformation) {
  // Y = X mod 2 with X uniform on 4 values: I = 1 bit.
  JointDistribution j;
  for (int i = 0; i < 4; ++i) {
    j.add(label("x", i), i % 2 ? "odd" : "even", 1.0);
  }
  EXPECT_NEAR(mutual_information(j), 1.0, 1e-12);
}

TEST(MutualInformation, ChainIdentity) {
  // I = H(X) + H(Y) - H(X,Y).
  Rng rng(31);
  JointDistribution j;
  for (int i = 0; i < 5; ++i) {
    for (int k = 0; k < 4; ++k) {
      j.add(label("x", i), label("y", k), rng.next_double() + 0.01);
    }
  }
  const double hx = entropy(j.marginal_x());
  const double hy = entropy(j.marginal_y());
  const double hxy = joint_entropy(j);
  EXPECT_NEAR(mutual_information(j), hx + hy - hxy, 1e-9);
  // I >= 0 and I <= min(H(X), H(Y)).
  EXPECT_GE(mutual_information(j), 0.0);
  EXPECT_LE(mutual_information(j), std::min(hx, hy) + 1e-9);
}

TEST(MutualInformation, SymmetricInArguments) {
  Rng rng(7);
  JointDistribution j, swapped;
  for (int i = 0; i < 4; ++i) {
    for (int k = 0; k < 3; ++k) {
      const double m = rng.next_double() + 0.01;
      j.add(label("x", i), label("y", k), m);
      swapped.add(label("y", k), label("x", i), m);
    }
  }
  EXPECT_NEAR(mutual_information(j), mutual_information(swapped), 1e-9);
}

}  // namespace
}  // namespace bcclb
