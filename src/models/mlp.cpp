#include "models/mlp.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "models/neural_common.h"
#include "nn/loss.h"
#include "nn/serialize.h"

namespace dbaugur::models {

// Layer graph, optimizer state, and reusable batch workspaces.
struct MlpForecaster::Core {
  nn::Dense l1, l2, l3;
  nn::Adam adam;
  nn::Matrix x, y, grad;

  Core(const ForecasterOptions& opts, const MlpOptions& mlp, Rng* rng)
      : l1(opts.window, mlp.hidden1, nn::Activation::kRelu, rng),
        l2(mlp.hidden1, mlp.hidden2, nn::Activation::kRelu, rng),
        l3(mlp.hidden2, 1, nn::Activation::kIdentity, rng),
        adam(opts.learning_rate) {}

  std::vector<nn::Param> AllParams() {
    std::vector<nn::Param> params = l1.Params();
    for (auto& p : l2.Params()) params.push_back(p);
    for (auto& p : l3.Params()) params.push_back(p);
    return params;
  }

  const nn::Matrix& ForwardBatch(const nn::Matrix& in) {
    return l3.Forward(l2.Forward(l1.Forward(in)));
  }
};

MlpForecaster::MlpForecaster(const ForecasterOptions& opts,
                             const MlpOptions& mlp)
    : opts_(opts),
      mlp_(mlp),
      rng_(opts.seed),
      core_(std::make_unique<Core>(opts, mlp, &rng_)) {}

MlpForecaster::~MlpForecaster() = default;

Status MlpForecaster::PrepareTraining(const std::vector<double>& series) {
  auto ds = BuildScaledDataset(series, opts_);
  if (!ds.ok()) return ds.status();
  scaler_ = ds->scaler;
  train_samples_ = std::move(ds->samples);
  return Status::OK();
}

Status MlpForecaster::TrainEpoch() {
  if (train_samples_.empty()) {
    return Status::FailedPrecondition("MLP: PrepareTraining not called");
  }
  Core& c = *core_;
  std::vector<size_t> order = rng_.Permutation(train_samples_.size());
  std::vector<nn::Param> params = c.AllParams();
  for (size_t begin = 0; begin < order.size(); begin += opts_.batch_size) {
    size_t count = std::min(opts_.batch_size, order.size() - begin);
    BatchWindowsInto(train_samples_, order, begin, count, &c.x);
    BatchTargetsInto(train_samples_, order, begin, count, &c.y);
    const nn::Matrix& pred = c.ForwardBatch(c.x);
    nn::MSELoss(pred, c.y, &c.grad);
    for (auto& p : params) p.grad->Fill(0.0);
    c.l1.Backward(c.l2.Backward(c.l3.Backward(c.grad)));
    nn::ClipGradNorm(params, opts_.grad_clip);
    c.adam.Step(params);
  }
  return Status::OK();
}

std::vector<nn::Param> MlpForecaster::Params() const {
  return core_->AllParams();
}

Status MlpForecaster::Fit(const std::vector<double>& series) {
  DBAUGUR_RETURN_IF_ERROR(PrepareTraining(series));
  for (size_t e = 0; e < opts_.epochs; ++e) {
    DBAUGUR_RETURN_IF_ERROR(TrainEpoch());
  }
  fitted_ = true;
  return Status::OK();
}

StatusOr<double> MlpForecaster::Predict(
    const std::vector<double>& window) const {
  if (!fitted_) return Status::FailedPrecondition("MLP: Fit not called");
  if (window.size() != opts_.window) {
    return Status::InvalidArgument("MLP: window size mismatch");
  }
  nn::Matrix x(1, window.size());
  for (size_t j = 0; j < window.size(); ++j) {
    x(0, j) = scaler_.Transform(window[j]);
  }
  const nn::Matrix& pred = core_->ForwardBatch(x);
  return scaler_.Inverse(pred(0, 0));
}

StatusOr<std::vector<uint8_t>> MlpForecaster::SaveState() const {
  return SerializeNeuralState({&scaler_}, Params());
}

Status MlpForecaster::LoadState(const std::vector<uint8_t>& buffer) {
  DBAUGUR_RETURN_IF_ERROR(DeserializeNeuralState(buffer, {&scaler_}, Params()));
  fitted_ = true;
  return Status::OK();
}

int64_t MlpForecaster::StorageBytes() const {
  return nn::StorageBytes(Params());
}

int64_t MlpForecaster::ParameterCount() const {
  int64_t n = 0;
  for (auto& p : Params()) n += static_cast<int64_t>(p.value->size());
  return n;
}

}  // namespace dbaugur::models
