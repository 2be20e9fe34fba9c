// Bandwidth-oblivious baselines modelling k3s/Kubernetes: pods are placed
// one at a time (the paper's §5 notes vanilla Kubernetes cannot see
// inter-pod requirements), scored by a NodeResourcesFit strategy. Link
// capacities never enter the decision — by design, since that is the gap
// BASS fills.
//
//  * kLeastAllocated (the default policy, what the paper compares against)
//    spreads pods across the emptiest nodes;
//  * kMostAllocated (kube's bin-packing strategy) piles pods onto the
//    fullest node that still fits. It co-locates heavily *by accident* —
//    comparing it against BASS separates "BASS wins because it packs
//    tightly" from "BASS wins because it packs the right components
//    together" (see bench_ablation_heuristic).
#pragma once

#include "sched/bass_scheduler.h"

namespace bass::sched {

enum class K3sScoring { kLeastAllocated, kMostAllocated };

class K3sScheduler final : public Scheduler {
 public:
  explicit K3sScheduler(K3sScoring scoring = K3sScoring::kLeastAllocated)
      : scoring_(scoring) {}

  std::string name() const override {
    return scoring_ == K3sScoring::kLeastAllocated ? "k3s-default"
                                                   : "k3s-most-allocated";
  }

  util::Expected<Placement> schedule(const PreparedApp& app,
                                     const cluster::ClusterState& cluster,
                                     const NetworkView& view) override;

 private:
  K3sScoring scoring_;
  NodeBudget budget_;  // decision scratch
};

}  // namespace bass::sched
