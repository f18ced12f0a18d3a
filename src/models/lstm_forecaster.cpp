#include "models/lstm_forecaster.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "models/neural_common.h"
#include "nn/loss.h"
#include "nn/serialize.h"

namespace dbaugur::models {

// Layer graph, optimizer state, and reusable batch workspaces.
struct LstmForecaster::Core {
  nn::LSTM lstm;
  nn::Dense head;
  nn::Adam adam;
  nn::Matrix xb, y, grad;
  std::vector<nn::Matrix> xs, grad_hs;

  Core(size_t hidden, Rng* rng, double lr)
      : lstm(1, hidden, rng),
        head(hidden, 1, nn::Activation::kIdentity, rng),
        adam(lr) {}

  std::vector<nn::Param> AllParams() {
    std::vector<nn::Param> params = lstm.Params();
    for (auto& p : head.Params()) params.push_back(p);
    return params;
  }
};

LstmForecaster::LstmForecaster(const ForecasterOptions& opts,
                               const LstmOptions& lstm)
    : opts_(opts),
      lstm_opts_(lstm),
      rng_(opts.seed),
      core_(std::make_unique<Core>(lstm.hidden, &rng_, opts.learning_rate)) {}

LstmForecaster::~LstmForecaster() = default;

Status LstmForecaster::PrepareTraining(const std::vector<double>& series) {
  auto ds = BuildScaledDataset(series, opts_);
  if (!ds.ok()) return ds.status();
  scaler_ = ds->scaler;
  train_samples_ = std::move(ds->samples);
  return Status::OK();
}

Status LstmForecaster::TrainEpoch() {
  if (train_samples_.empty()) {
    return Status::FailedPrecondition("LSTM: PrepareTraining not called");
  }
  Core& c = *core_;
  const size_t hidden = lstm_opts_.hidden;
  std::vector<size_t> order = rng_.Permutation(train_samples_.size());
  std::vector<nn::Param> params = c.AllParams();
  for (size_t begin = 0; begin < order.size(); begin += opts_.batch_size) {
    size_t count = std::min(opts_.batch_size, order.size() - begin);
    BatchWindowsInto(train_samples_, order, begin, count, &c.xb);
    BatchTargetsInto(train_samples_, order, begin, count, &c.y);
    ToTimeMajorInto(c.xb, &c.xs);
    const std::vector<nn::Matrix>& hs = c.lstm.ForwardSequence(c.xs);
    const nn::Matrix& pred = c.head.Forward(hs.back());
    nn::MSELoss(pred, c.y, &c.grad);
    for (auto& p : params) p.grad->Fill(0.0);
    const nn::Matrix& dh_last = c.head.Backward(c.grad);
    c.grad_hs.resize(hs.size());
    for (size_t t = 0; t + 1 < c.grad_hs.size(); ++t) {
      c.grad_hs[t].Resize(count, hidden);
      c.grad_hs[t].Fill(0.0);
    }
    c.grad_hs.back() = dh_last;
    c.lstm.BackwardSequence(c.grad_hs);
    nn::ClipGradNorm(params, opts_.grad_clip);
    c.adam.Step(params);
  }
  return Status::OK();
}

std::vector<nn::Param> LstmForecaster::Params() const {
  return core_->AllParams();
}

Status LstmForecaster::Fit(const std::vector<double>& series) {
  DBAUGUR_RETURN_IF_ERROR(PrepareTraining(series));
  for (size_t e = 0; e < opts_.epochs; ++e) {
    DBAUGUR_RETURN_IF_ERROR(TrainEpoch());
  }
  fitted_ = true;
  return Status::OK();
}

StatusOr<double> LstmForecaster::Predict(
    const std::vector<double>& window) const {
  if (!fitted_) return Status::FailedPrecondition("LSTM: Fit not called");
  if (window.size() != opts_.window) {
    return Status::InvalidArgument("LSTM: window size mismatch");
  }
  std::vector<nn::Matrix> xs(window.size(), nn::Matrix(1, 1));
  for (size_t t = 0; t < window.size(); ++t) {
    xs[t](0, 0) = scaler_.Transform(window[t]);
  }
  const std::vector<nn::Matrix>& hs = core_->lstm.ForwardSequence(xs);
  const nn::Matrix& pred = core_->head.Forward(hs.back());
  return scaler_.Inverse(pred(0, 0));
}

StatusOr<std::vector<uint8_t>> LstmForecaster::SaveState() const {
  return SerializeNeuralState({&scaler_}, Params());
}

Status LstmForecaster::LoadState(const std::vector<uint8_t>& buffer) {
  DBAUGUR_RETURN_IF_ERROR(DeserializeNeuralState(buffer, {&scaler_}, Params()));
  fitted_ = true;
  return Status::OK();
}

int64_t LstmForecaster::StorageBytes() const {
  return nn::StorageBytes(Params());
}

int64_t LstmForecaster::ParameterCount() const {
  int64_t n = 0;
  for (auto& p : Params()) n += static_cast<int64_t>(p.value->size());
  return n;
}

}  // namespace dbaugur::models
