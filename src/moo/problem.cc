#include "moo/problem.h"

#include <cmath>
#include <utility>

namespace sparkopt {

void SubQObjectiveModel::EvaluateBatch(
    int subq, const std::vector<std::vector<double>>& confs,
    std::vector<ObjectiveVector>* out) const {
  out->resize(confs.size());
  for (size_t i = 0; i < confs.size(); ++i) {
    (*out)[i] = Evaluate(subq, confs[i]);
  }
}

void RowList::Resize(size_t n) {
  while (rows.size() > n) {
    spare.push_back(std::move(rows.back()));
    rows.pop_back();
  }
  while (rows.size() < n && !spare.empty()) {
    rows.push_back(std::move(spare.back()));
    spare.pop_back();
  }
  rows.resize(n);
}

size_t MooRunResult::Recommend(const std::vector<double>& weights) const {
  std::vector<ObjectiveVector> pts;
  pts.reserve(pareto.size());
  for (const auto& s : pareto) pts.push_back(s.objectives);
  return WeightedUtopiaNearest(pts, weights);
}

Status CheckPreference(const std::vector<double>& weights,
                       int num_objectives) {
  if (weights.size() != static_cast<size_t>(num_objectives)) {
    return Status::InvalidArgument("preference dimensionality mismatch");
  }
  for (const double w : weights) {
    if (!std::isfinite(w) || w < 0.0) {
      return Status::InvalidArgument(
          "preference weights must be finite and non-negative");
    }
  }
  return Status::OK();
}

FlatProblem::FlatProblem(const SubQObjectiveModel* model, bool fine_grained)
    : model_(model), fine_grained_(fine_grained) {
  const auto& space = SparkParamSpace();
  c_idx_ = space.CategoryIndices(ParamCategory::kContext);
  p_idx_ = space.CategoryIndices(ParamCategory::kPlan);
  s_idx_ = space.CategoryIndices(ParamCategory::kStage);
  const size_t groups = fine_grained_ ? model_->num_subqs() : 1;
  dims_ = c_idx_.size() + groups * (p_idx_.size() + s_idx_.size());
}

MooSolution FlatProblem::Decode(const std::vector<double>& x) const {
  const auto& space = SparkParamSpace();
  const size_t groups = fine_grained_ ? model_->num_subqs() : 1;
  MooSolution sol;

  // Unit-cube base config with defaults everywhere, then overwrite.
  std::vector<double> base_unit(kNumSparkParams, 0.0);
  {
    const auto defaults = space.Defaults();
    base_unit = space.Normalize(defaults);
  }
  size_t pos = 0;
  for (size_t j : c_idx_) base_unit[j] = x[pos++];

  sol.per_subq_conf.reserve(groups);
  for (size_t g = 0; g < groups; ++g) {
    std::vector<double> unit = base_unit;
    for (size_t j : p_idx_) unit[j] = x[pos++];
    for (size_t j : s_idx_) unit[j] = x[pos++];
    sol.per_subq_conf.push_back(space.Denormalize(unit));
  }
  sol.conf = sol.per_subq_conf.front();
  if (!fine_grained_) sol.per_subq_conf.clear();
  return sol;
}

ObjectiveVector FlatProblem::Eval(const std::vector<double>& x) const {
  MooSolution sol = Decode(x);
  const size_t k = static_cast<size_t>(model_->num_objectives());
  ObjectiveVector total(k, 0.0);
  const int m = model_->num_subqs();
  for (int i = 0; i < m; ++i) {
    const auto& conf = fine_grained_ ? sol.per_subq_conf[i] : sol.conf;
    const auto f = model_->Evaluate(i, conf);
    for (size_t d = 0; d < k; ++d) total[d] += f[d];
  }
  return total;
}

}  // namespace sparkopt
