// Finite-difference verification of every autograd op's backward pass,
// driven by the auto-enumerating op suite (src/verify/op_suite.h): the
// suite table is the single registration point for an op's gradient
// coverage, and the analyzer cross-checks it against the shape-rule
// registry, so a new op cannot ship without appearing here.

#include <cmath>

#include <gtest/gtest.h>

#include "autograd/meta.h"
#include "verify/op_suite.h"

namespace nmcdr {
namespace verify {
namespace {

using ag::Tensor;

/// One gtest case per suite entry, so failures name the offending op
/// cluster directly.
class OpSuiteGradCheck : public ::testing::TestWithParam<size_t> {};

TEST_P(OpSuiteGradCheck, FiniteDifferencesMatchBackward) {
  const OpCase& c = OpSuite()[GetParam()];
  SCOPED_TRACE(c.name);
  for (const GradCheckIssue& issue : RunGradCheck(c)) {
    ADD_FAILURE() << issue.case_name << ": " << issue.detail;
  }
}

std::string CaseName(const ::testing::TestParamInfo<size_t>& info) {
  return OpSuite()[info.param].name;
}

INSTANTIATE_TEST_SUITE_P(AllOps, OpSuiteGradCheck,
                         ::testing::Range<size_t>(0, OpSuite().size()),
                         CaseName);

// Every backward pass must verify under BOTH kernel backends — the
// finite-difference machinery assumes nothing about the backend beyond
// determinism, and the backends are bit-exact by contract, so a failure
// here is a backend bug rather than a gradient bug.

TEST(OpSuiteBackends, GradChecksPassUnderSerialBackend) {
  for (const GradCheckIssue& issue :
       RunAllGradChecks(&SerialKernelBackend())) {
    ADD_FAILURE() << issue.case_name << ": " << issue.detail;
  }
}

TEST(OpSuiteBackends, GradChecksPassUnderVectorBackend) {
  for (const GradCheckIssue& issue :
       RunAllGradChecks(&VectorKernelBackend())) {
    ADD_FAILURE() << issue.case_name << ": " << issue.detail;
  }
}

// The suite must cover every op the shape-rule registry knows, and vice
// versa — the two tables enumerate the same op set by construction.
TEST(OpSuiteCoverage, SuiteAndShapeRulesEnumerateTheSameOps) {
  const std::vector<std::string> rules = ag::RegisteredShapeRuleOps();
  const std::vector<std::string> checked = GradCheckedOps();
  EXPECT_EQ(rules, checked);
}

// Behavioural invariants of the tape that the per-op checks don't touch.

TEST(GradCheck, GradientAccumulatesWhenInputReused) {
  // y = x + x -> dy/dx = 2.
  Tensor x{Matrix::FromRows({{3.f}}), true};
  Tensor loss = Sum(Add(x, x));
  ag::Backward(loss);
  EXPECT_NEAR(x.grad().At(0, 0), 2.f, 1e-6f);
}

TEST(GradCheck, NoGradGuardProducesLeaf) {
  Tensor x{Matrix::FromRows({{1.f}}), true};
  ag::NoGradGuard guard;
  Tensor y = Scale(x, 2.f);
  EXPECT_FALSE(y.requires_grad());
}

TEST(GradCheck, DetachStopsGradient) {
  Tensor x{Matrix::FromRows({{2.f}}), true};
  Tensor y = Scale(x.Detach(), 3.f);
  EXPECT_FALSE(y.requires_grad());
}

}  // namespace
}  // namespace verify
}  // namespace nmcdr
