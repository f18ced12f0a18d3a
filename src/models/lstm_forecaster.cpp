#include "models/lstm_forecaster.h"

#include <algorithm>

#include "nn/loss.h"

namespace dbaugur::models {

LstmForecaster::LstmForecaster(const ForecasterOptions& opts,
                               const LstmOptions& lstm)
    : NeuralForecaster(opts),
      lstm_(1, lstm.hidden, &rng_),
      head_(lstm.hidden, 1, nn::Activation::kIdentity, &rng_),
      adam_(opts.learning_rate) {}

std::vector<nn::Param> LstmForecaster::Params() const {
  std::vector<nn::Param> params = lstm_.Params();
  AppendParams(&params, head_.Params());
  return params;
}

Status LstmForecaster::RunEpoch() {
  std::vector<size_t> order = rng_.Permutation(train_samples_.size());
  std::vector<nn::Param> params = Params();
  for (size_t begin = 0; begin < order.size(); begin += opts_.batch_size) {
    size_t count = std::min(opts_.batch_size, order.size() - begin);
    BatchWindowsInto(train_samples_, order, begin, count, &xb_);
    BatchTargetsInto(train_samples_, order, begin, count, &y_);
    ToTimeMajorInto(xb_, &xs_);
    const std::vector<nn::Matrix>& hs = lstm_.ForwardSequence(xs_);
    nn::MSELoss(head_.Forward(hs.back()), y_, &grad_);
    ZeroGrads(params);
    LastStepGradSequence(head_.Backward(grad_), hs.size(), &grad_hs_);
    lstm_.BackwardSequence(grad_hs_);
    nn::ClipGradNorm(params, opts_.grad_clip);
    adam_.Step(params);
  }
  return Status::OK();
}

double LstmForecaster::PredictScaled(const nn::Matrix& window) const {
  std::vector<nn::Matrix> xs;
  ToTimeMajorInto(window, &xs);
  return head_.Forward(lstm_.ForwardSequence(xs).back())(0, 0);
}

}  // namespace dbaugur::models
