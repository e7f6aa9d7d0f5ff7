#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_safety.h"
#include "exec/cluster.h"
#include "exec/cost_model.h"
#include "model/mlp.h"
#include "moo/hmooc.h"
#include "workload/builder.h"

/// \file artifact_registry.h
/// \brief Versioned, atomically hot-swappable bundle of everything a
/// tuning session reads: workload (named queries + the catalogs their
/// plans reference), cluster/cost/price description, the trained subQ
/// regressor (optional), and the solver configuration.
///
/// Hot-swap protocol (DESIGN.md section 15): a bundle is mutable only
/// while being assembled; Publish() freezes it behind shared_ptr<const>
/// and swaps the registry's current pointer under a mutex. Sessions
/// snapshot the pointer once at admission and use that version for the
/// whole solve — an in-flight request never observes a mix of old and new
/// artifacts, and old versions stay alive (shared_ptr refcount) until the
/// last session using them completes. The version number is part of every
/// shared-eval-cache key salt, so cached evaluations can never leak
/// across model/workload versions.

namespace sparkopt {

/// \brief One immutable-after-publish artifact bundle.
///
/// Queries hold raw pointers to their catalog, so catalogs live here too
/// (AddCatalog hands out a stable pointer owned by the bundle).
struct ServiceArtifacts {
  /// Assigned by ArtifactRegistry::Publish (0 = never published).
  uint64_t version = 0;
  /// Human-readable tag for logs and reports.
  std::string name = "unnamed";

  ClusterSpec cluster;
  CostModelParams cost_params;
  PriceBook prices;
  /// Solver configuration used for every request against this version
  /// (budget changes roll out atomically with model/workload changes).
  HmoocOptions hmooc;
  /// Trained subQ regressor; when untrained the analytic compile-time
  /// model is used instead (mirrors TunerOptions::learned_subq_model).
  Regressor subq_model;
  /// Ignored; bench/suite/ still reads it.
  size_t eval_cache_capacity = 0;

  /// Stores `catalog` in the bundle and returns a pointer that stays
  /// valid for the bundle's lifetime — pass it to MakeTpchQuery etc.
  const std::vector<TableStats>* AddCatalog(std::vector<TableStats> catalog);

  /// Registers `q` under q.name. Fails on duplicate names or an empty
  /// name (the request routing key).
  Status AddQuery(Query q);

  const Query* FindQuery(const std::string& name) const;
  size_t num_queries() const { return queries_.size(); }
  /// Name-ordered view (deterministic iteration for benches/tests).
  const std::map<std::string, Query>& queries() const { return queries_; }

 private:
  std::vector<std::unique_ptr<const std::vector<TableStats>>> catalogs_;
  std::map<std::string, Query> queries_;
};

/// \brief Holder of the current artifact version (see file comment).
class ArtifactRegistry {
 public:
  /// Freezes `artifacts`, assigns the next version number, and makes it
  /// current. Returns the assigned version. Thread-safe.
  uint64_t Publish(std::shared_ptr<ServiceArtifacts> artifacts)
      SPARKOPT_EXCLUDES(mu_);

  /// The current bundle (nullptr before the first Publish). The returned
  /// snapshot pins its version for as long as the caller holds it.
  std::shared_ptr<const ServiceArtifacts> Current() const
      SPARKOPT_EXCLUDES(mu_);

  /// Version of the current bundle (0 before the first Publish).
  uint64_t current_version() const SPARKOPT_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::shared_ptr<const ServiceArtifacts> current_ SPARKOPT_GUARDED_BY(mu_);
  uint64_t next_version_ SPARKOPT_GUARDED_BY(mu_) = 1;
};

}  // namespace sparkopt
