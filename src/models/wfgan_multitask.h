// Multi-task WFGAN (paper §V-A): the query-trace and resource-trace
// forecasting tasks are trained jointly. The shallow network — the generator
// LSTM — is shared between both tasks while each task keeps its own
// attention layer, dense head, and discriminator ("the shallow network
// parameters in the hidden layer will be shared by both forecasting models,
// while their deep network parameters will be optimized separately").
//
// That is one LSTM trunk plus two WfganTask networks (wfgan.h), the same
// GAN code as the single-task WfganForecaster. Each minibatch runs every
// task's D-steps, then `g_steps` joint generator updates whose per-task
// gradients accumulate into the shared trunk before one optimizer step.

#pragma once

#include <array>

#include "models/wfgan.h"

namespace dbaugur::models {

/// Task index within the multi-task model.
enum class WorkloadTask { kQuery = 0, kResource = 1 };

class MultiTaskWfgan {
 public:
  MultiTaskWfgan(const ForecasterOptions& opts, const WfganOptions& gan);

  /// Jointly trains on the query trace and the resource trace. Each epoch
  /// runs full minibatches only, as many as the shorter task fills.
  Status Fit(const std::vector<double>& query_series,
             const std::vector<double>& resource_series);

  /// Predicts the raw-scale value H steps after the window for one task.
  StatusOr<double> Predict(WorkloadTask task,
                           const std::vector<double>& window) const;

  int64_t ParameterCount() const { return CountParameters(Params()); }
  /// Parameters in the shared trunk only (tests assert sharing is real).
  int64_t SharedParameterCount() const {
    return CountParameters(trunk_.Params());
  }

  /// All parameter tensors (shared trunk, then per-task generator heads and
  /// discriminators in task order) — serialization.
  std::vector<nn::Param> Params() const;

  /// Lossless snapshot of the trunk, both task networks, and both task
  /// scalers, restorable into a same-options MultiTaskWfgan without
  /// retraining (serve/ system snapshots). Same format as a single-task
  /// model's state, with two scalers.
  StatusOr<std::vector<uint8_t>> SaveState() const {
    return SerializeNeuralState({&tasks_[0].scaler, &tasks_[1].scaler},
                                Params());
  }
  Status LoadState(const std::vector<uint8_t>& buffer) {
    DBAUGUR_RETURN_IF_ERROR(DeserializeNeuralState(
        buffer, {&tasks_[0].scaler, &tasks_[1].scaler}, Params()));
    fitted_ = true;
    return Status::OK();
  }

 private:
  struct Task {
    Task(const ForecasterOptions& opts, const WfganOptions& gan, Rng* rng)
        : net(opts, gan, rng) {}
    WfganTask net;
    ts::MinMaxScaler scaler;
    std::vector<ts::WindowSample> samples;
  };

  Status TrainEpoch();

  ForecasterOptions opts_;
  WfganOptions gan_;
  Rng rng_;
  // Mutable: forward passes cache activations even from const Predict. The
  // trunk draws its weights first, then task 0, then task 1.
  mutable nn::LSTM trunk_;
  mutable std::array<Task, 2> tasks_;
  nn::Adam g_adam_;
  // Batch workspaces reused across batches.
  nn::Matrix xb_;
  std::array<nn::Matrix, 2> ys_;
  std::array<std::vector<nn::Matrix>, 2> xs_;
  bool fitted_ = false;
};

}  // namespace dbaugur::models
