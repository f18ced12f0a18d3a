// Temporal Convolutional Network forecaster (paper setup: five residual
// levels with dilation factors 1, 2, 4, 8, 16) — the ensemble's long-term
// "global view" member. Fit, Predict, the checkpoint and the accounting come
// from NeuralForecaster.

#pragma once

#include <memory>
#include <vector>

#include "models/neural_common.h"
#include "nn/conv1d.h"
#include "nn/dense.h"
#include "nn/optimizer.h"

namespace dbaugur::models {

/// TCN sizes; dilations default to the paper's 1,2,4,8,16.
struct TcnOptions {
  size_t channels = 16;
  size_t kernel = 2;
  std::vector<size_t> dilations = {1, 2, 4, 8, 16};
};

class TcnForecaster : public NeuralForecaster {
 public:
  TcnForecaster(const ForecasterOptions& opts, const TcnOptions& tcn);
  explicit TcnForecaster(const ForecasterOptions& opts)
      : TcnForecaster(opts, TcnOptions{}) {}

  std::string name() const override { return "TCN"; }

  /// Receptive field in time steps: 1 + (k-1) * 2 * sum(dilations).
  size_t ReceptiveField() const;

  /// Parameter tensors in layer order (blocks, head) — used by serialization.
  std::vector<nn::Param> Params() const override;

 private:
  Status RunEpoch() override;
  double PredictScaled(const nn::Matrix& window) const override;
  /// Blocks, then the head on the last time step's channels.
  const nn::Matrix& ForwardBatch(const nn::Matrix& xb) const;

  TcnOptions tcn_opts_;
  // Layers are mutable: forward passes cache activations even from const
  // Predict.
  mutable std::vector<std::unique_ptr<nn::TCNBlock>> blocks_;
  mutable nn::Dense head_;
  nn::Adam adam_;
  // Batch workspaces reused across batches (mutable: Predict is const).
  mutable nn::Matrix xb_, y_, grad_, feats_;
  mutable nn::Tensor3 t_in_, dt_;
};

}  // namespace dbaugur::models
