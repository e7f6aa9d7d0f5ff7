#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

/// \file partition_oracle.h
/// \brief Reference copies of the three partition rules as they stood
/// when every stage held one `double` per task. The run-based rules in
/// physical/physical_plan.h must expand to exactly these vectors, bit for
/// bit; the differential and pinned-bits tests compare against them.

namespace sparkopt {
namespace oracle {

inline std::vector<double> SkewedPartitionSizes(double total_bytes, int n,
                                                double z) {
  n = std::max(n, 1);
  std::vector<double> w(n);
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    w[i] = std::pow(static_cast<double>(i + 1), -2.0 * z);
    sum += w[i];
  }
  for (int i = 0; i < n; ++i) {
    w[i] = total_bytes * (w[i] / sum);
  }
  return w;
}

inline std::vector<double> ApplySkewSplit(std::vector<double> partition_sizes,
                                          double threshold_mb, double factor,
                                          double advisory_mb) {
  if (partition_sizes.empty()) return partition_sizes;
  const double mb = 1024.0 * 1024.0;
  std::vector<double> sorted = partition_sizes;
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted[sorted.size() / 2];
  const double limit = std::max(threshold_mb * mb, factor * median);
  const double chunk = std::max(advisory_mb * mb, 1.0 * mb);
  std::vector<double> out;
  out.reserve(partition_sizes.size());
  for (double b : partition_sizes) {
    if (b > limit && b > chunk) {
      const int pieces = static_cast<int>(std::ceil(b / chunk));
      for (int i = 0; i < pieces; ++i) out.push_back(b / pieces);
    } else {
      out.push_back(b);
    }
  }
  return out;
}

inline std::vector<double> ApplyCoalesce(std::vector<double> partition_sizes,
                                         double advisory_mb,
                                         double small_factor,
                                         double min_size_mb) {
  const double mb = 1024.0 * 1024.0;
  const double small =
      std::max(min_size_mb * mb, small_factor * advisory_mb * mb);
  const double target = advisory_mb * mb;
  std::vector<double> out;
  double acc = 0.0;
  for (double b : partition_sizes) {
    if (b < small) {
      acc += b;
      if (acc >= target) {
        out.push_back(acc);
        acc = 0.0;
      }
    } else {
      out.push_back(b);
    }
  }
  if (acc > 0.0) out.push_back(acc);
  if (out.empty()) out.push_back(0.0);
  return out;
}

}  // namespace oracle
}  // namespace sparkopt
