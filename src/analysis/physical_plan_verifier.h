#pragma once

#include "analysis/verifier.h"

/// \file physical_plan_verifier.h
/// \brief Structural invariants of physical plans (stage DAGs).

namespace sparkopt {
namespace analysis {

/// \brief Verifies that a PhysicalPlan is a well-formed stage DAG.
///
/// Checked invariants (violation code in parentheses):
///  - stage ids match their storage index               (kInternal)
///  - deps / broadcast_deps in range, not self,
///    no duplicates                                     (kOutOfRange)
///  - deps and broadcast_deps are disjoint              (kInvalidArgument)
///  - the stage DAG is acyclic                          (kFailedPrecondition)
///  - num_partitions >= 1                              (kInternal)
///  - partition runs are canonical: every count >= 1,
///    no two adjacent runs of equal bytes, counts
///    summing to num_partitions                         (kInternal)
///  - partition run bytes / IO totals / cpu_work are
///    finite and non-negative                           (kOutOfRange)
///  - exactly one stage is the root (does not exchange
///    its output)                                       (kFailedPrecondition)
///  - BHJ stages take their build side as a broadcast
///    dependency, never as a shuffle dependency         (kFailedPrecondition)
///
/// When the logical plan is supplied, additionally:
///  - every logical operator is executed by exactly one
///    stage; none orphaned, none duplicated             (kFailedPrecondition)
///  - join decisions reference join operators           (kInvalidArgument)
class PhysicalPlanVerifier : public Verifier {
 public:
  const char* name() const override { return "physical_plan"; }
  bool applicable(const VerifyInput& in) const override;
  VerifyReport Verify(const VerifyInput& in) const override;
};

}  // namespace analysis
}  // namespace sparkopt
