#pragma once
// ReLU-reduction baselines for the Fig. 7 comparison.  Each reimplements
// the *placement rule* of the corresponding paper at activation-site
// granularity (hence the "-like" suffix: only the placement rule is
// reproduced, not the rest of each method):
//
//  * DeepReDuce-like — stage-level ReLU dropping: whole stages keep or
//    lose their ReLUs, most-critical stages retained first.
//  * DELPHI-like    — greedy per-layer polynomial swap, replacing the most
//    expensive (largest) ReLU layers first.
//  * CryptoNAS-like — ReLU-budget macro search: keeps uniformly spaced
//    sites to maximize retained count under the budget.
//  * SNL-like       — fine-grained selective linearization: keeps the
//    smallest sites first (maximizes the number of nonlinear locations).
//
// All return choices whose total ReLU count is <= budget; pooling sites
// stay maxpool when any ReLU survives in their stage, else avgpool.

#include "nn/models.hpp"

namespace pasnet::baselines {

/// Identifies which baseline produced a set of choices.
enum class ReluReducer { deepreduce, delphi, cryptonas, snl };

[[nodiscard]] const char* reducer_name(ReluReducer r) noexcept;

/// Applies the named reduction rule to `backbone` under `budget` (total
/// ReLU activation count, in elements).
[[nodiscard]] nn::ArchChoices reduce_relus(ReluReducer reducer,
                                           const nn::ModelDescriptor& backbone,
                                           long long budget);

/// The per-site ReLU counts of a backbone, ordered like nn::act_sites.
[[nodiscard]] std::vector<long long> site_relu_counts(const nn::ModelDescriptor& backbone);

}  // namespace pasnet::baselines
