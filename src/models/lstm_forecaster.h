// LSTM forecaster baseline (paper setup: input length 30, hidden/output
// dimension 16, dense head producing the final value). Fit, Predict, the
// checkpoint and the accounting come from NeuralForecaster.

#pragma once

#include "models/neural_common.h"
#include "nn/dense.h"
#include "nn/lstm.h"
#include "nn/optimizer.h"

namespace dbaugur::models {

/// LSTM-specific sizes.
struct LstmOptions {
  size_t hidden = 16;
};

class LstmForecaster : public NeuralForecaster {
 public:
  LstmForecaster(const ForecasterOptions& opts, const LstmOptions& lstm);
  explicit LstmForecaster(const ForecasterOptions& opts)
      : LstmForecaster(opts, LstmOptions{}) {}

  std::string name() const override { return "LSTM"; }

  /// Parameter tensors in layer order (lstm, head) — used by serialization.
  std::vector<nn::Param> Params() const override;

 private:
  Status RunEpoch() override;
  double PredictScaled(const nn::Matrix& window) const override;

  // Layers are mutable: forward passes cache activations even from const
  // Predict.
  mutable nn::LSTM lstm_;
  mutable nn::Dense head_;
  nn::Adam adam_;
  nn::Matrix xb_, y_, grad_;  // batch workspaces
  std::vector<nn::Matrix> xs_, grad_hs_;
};

}  // namespace dbaugur::models
