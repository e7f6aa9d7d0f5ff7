#pragma once

#include <cstddef>
#include <vector>

#include "gtest/gtest.h"
#include "physical/physical_plan.h"

/// \file partition_runs_util.h
/// \brief Test helpers between QueryStage::partitions runs and one size
/// per task, so tests written against per-task sizes keep their
/// assertions.

namespace sparkopt {

/// One size per task, in task order.
inline std::vector<double> ExpandRuns(const std::vector<PartitionRun>& runs) {
  std::vector<double> sizes;
  for (const PartitionRun& r : runs) sizes.insert(sizes.end(), r.count, r.bytes);
  return sizes;
}

/// The canonical runs of per-task `sizes`.
inline std::vector<PartitionRun> RunsOf(const std::vector<double>& sizes) {
  std::vector<PartitionRun> runs;
  for (double b : sizes) {
    if (!runs.empty() && runs.back().bytes == b) {
      ++runs.back().count;
    } else {
      runs.push_back({1, b});
    }
  }
  return runs;
}

/// Input bytes of task `task` of `stage`.
inline double TaskBytes(const QueryStage& stage, int task) {
  return ExpandRuns(stage.partitions).at(static_cast<size_t>(task));
}

/// Every count >= 1 and no two adjacent runs of equal bytes.
inline ::testing::AssertionResult IsCanonical(
    const std::vector<PartitionRun>& runs) {
  for (size_t i = 0; i < runs.size(); ++i) {
    if (runs[i].count < 1) {
      return ::testing::AssertionFailure()
             << "run " << i << " has count " << runs[i].count;
    }
    if (i > 0 && runs[i].bytes == runs[i - 1].bytes) {
      return ::testing::AssertionFailure()
             << "runs " << i - 1 << " and " << i << " both hold "
             << runs[i].bytes << " bytes";
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace sparkopt
