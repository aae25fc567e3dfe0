#include "methods/dst_engine.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/ops.hpp"
#include "tensor/topk.hpp"
#include "util/check.hpp"

namespace dstee::methods {

DstEngine::DstEngine(sparse::SparseModel& model, optim::Optimizer& optimizer,
                     DstEngineConfig config, util::Rng rng)
    : model_(&model),
      optimizer_(&optimizer),
      config_(std::move(config)),
      schedule_(config_.schedule),
      rng_(rng),
      tracker_(model) {
  util::check(config_.drop != nullptr, "engine requires a drop policy");
  util::check(config_.grow != nullptr, "engine requires a grow policy");
}

bool DstEngine::maybe_update(std::size_t iteration, double learning_rate) {
  if (!schedule_.is_update_step(iteration)) return false;
  run_update(iteration, learning_rate);
  return true;
}

void DstEngine::force_update(std::size_t iteration, double learning_rate) {
  run_update(iteration, learning_rate);
}

std::vector<std::size_t> DstEngine::grow_budgets(
    const std::vector<std::size_t>& drop_counts) const {
  const std::size_t L = model_->num_layers();
  if (!config_.redistribute_across_layers) return drop_counts;

  // Redistribute the global budget ∝ mean |grad| per layer (DSR/SNFS),
  // capped by each layer's inactive capacity; leftover returns to layers
  // proportionally to their drop counts.
  std::size_t budget = 0;
  for (const auto k : drop_counts) budget += k;
  std::vector<double> weight(L, 0.0);
  double weight_sum = 0.0;
  for (std::size_t i = 0; i < L; ++i) {
    const auto& g = model_->layer(i).param().grad();
    weight[i] = tensor::mean(tensor::abs(g));
    weight_sum += weight[i];
  }
  std::vector<std::size_t> grow(L, 0);
  if (weight_sum <= 0.0) return drop_counts;

  std::size_t assigned = 0;
  std::vector<std::size_t> capacity(L);
  for (std::size_t i = 0; i < L; ++i) {
    const auto& layer = model_->layer(i);
    // Growth candidates are the PRE-drop inactive positions (just-dropped
    // weights are excluded from regrowth within the same round), so the
    // per-layer capacity is the current inactive count. Σ capacity ≥ Σ
    // drops holds because each layer's drop count is capped by its own
    // inactive count, so the full budget is always placeable.
    capacity[i] = layer.numel() - layer.num_active();
    grow[i] = std::min<std::size_t>(
        capacity[i], static_cast<std::size_t>(std::floor(
                         static_cast<double>(budget) * weight[i] / weight_sum)));
    assigned += grow[i];
  }
  // Hand the rounding remainder to layers with spare capacity, largest
  // gradient first.
  std::vector<std::size_t> order(L);
  for (std::size_t i = 0; i < L; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return weight[a] > weight[b];
  });
  std::size_t cursor = 0;
  while (assigned < budget) {
    const std::size_t i = order[cursor % L];
    if (grow[i] < capacity[i]) {
      ++grow[i];
      ++assigned;
    }
    ++cursor;
    if (cursor > 4 * L * (budget + 1)) break;  // all layers saturated
  }
  return grow;
}

void DstEngine::run_update(std::size_t iteration, double learning_rate) {
  const double alpha = schedule_.drop_fraction(iteration);
  const std::size_t L = model_->num_layers();

  // Pass 1: per-layer drop counts from the CURRENT topology.
  std::vector<std::size_t> drop_counts(L, 0);
  for (std::size_t i = 0; i < L; ++i) {
    const auto& layer = model_->layer(i);
    const std::size_t active = layer.num_active();
    const std::size_t inactive = layer.numel() - active;
    std::size_t k = static_cast<std::size_t>(
        std::llround(alpha * static_cast<double>(active)));
    // Keep at least one active weight, and never drop more than can be
    // regrown: growth candidates are the PRE-update inactive positions, so
    // k must not exceed them (an ERK-clamped dense layer has none and is
    // left untouched, as in RigL).
    k = std::min(k, active > 0 ? active - 1 : 0);
    k = std::min(k, inactive);
    drop_counts[i] = k;
  }
  const std::vector<std::size_t> grow_counts = grow_budgets(drop_counts);

  sparse::UpdateStats stats;
  stats.round = ++round_;
  stats.iteration = iteration;

  for (std::size_t i = 0; i < L; ++i) {
    auto& layer = model_->layer(i);
    const tensor::Tensor& dense_grad = layer.param().grad();
    // Read before anything is edited: a released counter throws here.
    const tensor::Tensor& counter = layer.counter();

    // ---- select (on the pre-update mask; sets are disjoint) -------------
    util::Rng drop_rng = rng_.fork("drop/" + std::to_string(round_) + "/" +
                                   std::to_string(i));
    DropContext drop_ctx{layer, dense_grad, learning_rate, drop_rng};
    const std::vector<std::size_t> drops =
        config_.drop->select(drop_ctx, drop_counts[i]);

    util::Rng grow_rng = rng_.fork("grow/" + std::to_string(round_) + "/" +
                                   std::to_string(i));
    GrowContext grow_ctx{layer, i, dense_grad, iteration, grow_rng};
    const tensor::Tensor scores = config_.grow->scores(grow_ctx);

    // Eligible = inactive under the pre-update mask.
    std::vector<std::size_t> eligible = layer.mask().inactive_indices();
    const std::size_t k_grow = std::min(grow_counts[i], eligible.size());
    const std::vector<std::size_t> grows =
        tensor::topk_indices_among(scores, std::move(eligible), k_grow);

    if (observer_) {
      // round_ was already advanced for this update above.
      observer_(UpdateObservation{i, round_, iteration, drops, grows,
                                  dense_grad, scores});
    }

    // ---- apply -----------------------------------------------------------
    auto& param = layer.param();
    for (const std::size_t j : drops) {
      layer.mask().deactivate(j);
      param.value[j] = 0.0f;
      if (config_.reset_momentum) {
        optimizer_->reset_state_at(layer.optimizer_index(), j);
      }
    }
    for (const std::size_t j : grows) {
      if (counter[j] == 0.0f) ++stats.never_seen_grown;
      layer.mask().activate(j);
      param.value[j] = 0.0f;  // grown weights start at zero (RigL/paper)
      if (config_.reset_momentum) {
        optimizer_->reset_state_at(layer.optimizer_index(), j);
      }
    }
    stats.dropped += drops.size();
    stats.grown += grows.size();
  }

  // Counter update N ← N + M with the NEW mask (Algorithm 1), then record
  // exploration on the new topology.
  model_->accumulate_counters();
  tracker_.observe(*model_);
  stats.exploration_rate = tracker_.exploration_rate();
  log_.record(stats);
}

}  // namespace dstee::methods
