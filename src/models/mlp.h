// MLP forecaster (the paper's short-term "local view" model): two hidden
// layers of 32 and 16 ReLU units over the raw condition window. Fit, Predict,
// the checkpoint and the accounting come from NeuralForecaster.

#pragma once

#include "models/neural_common.h"
#include "nn/dense.h"
#include "nn/optimizer.h"

namespace dbaugur::models {

/// MLP-specific sizes (paper: 32 and 16 units).
struct MlpOptions {
  size_t hidden1 = 32;
  size_t hidden2 = 16;
};

class MlpForecaster : public NeuralForecaster {
 public:
  MlpForecaster(const ForecasterOptions& opts, const MlpOptions& mlp);
  explicit MlpForecaster(const ForecasterOptions& opts)
      : MlpForecaster(opts, MlpOptions{}) {}

  std::string name() const override { return "MLP"; }

  /// Parameter tensors in layer order (l1, l2, l3) — used by serialization.
  std::vector<nn::Param> Params() const override;

 private:
  Status RunEpoch() override;
  double PredictScaled(const nn::Matrix& window) const override;
  const nn::Matrix& ForwardBatch(const nn::Matrix& x) const;

  // Layers are mutable: forward passes cache activations even from const
  // Predict.
  mutable nn::Dense l1_, l2_, l3_;
  nn::Adam adam_;
  nn::Matrix x_, y_, grad_;  // batch workspaces
};

}  // namespace dbaugur::models
