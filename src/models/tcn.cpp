#include "models/tcn.h"

#include <algorithm>

#include "nn/loss.h"

namespace dbaugur::models {

TcnForecaster::TcnForecaster(const ForecasterOptions& opts,
                             const TcnOptions& tcn)
    : NeuralForecaster(opts),
      tcn_opts_(tcn),
      head_(tcn.channels, 1, nn::Activation::kIdentity, &rng_),
      adam_(opts.learning_rate) {
  // The head draws its weights before the blocks (checkpoint RNG order).
  size_t in_ch = 1;
  for (size_t d : tcn_opts_.dilations) {
    blocks_.push_back(std::make_unique<nn::TCNBlock>(
        in_ch, tcn_opts_.channels, tcn_opts_.kernel, d, &rng_));
    in_ch = tcn_opts_.channels;
  }
}

size_t TcnForecaster::ReceptiveField() const {
  size_t sum = 0;
  for (size_t d : tcn_opts_.dilations) sum += d;
  return 1 + (tcn_opts_.kernel - 1) * 2 * sum;
}

std::vector<nn::Param> TcnForecaster::Params() const {
  std::vector<nn::Param> params;
  for (auto& b : blocks_) AppendParams(&params, b->Params());
  AppendParams(&params, head_.Params());
  return params;
}

const nn::Matrix& TcnForecaster::ForwardBatch(const nn::Matrix& xb) const {
  ToTensor3Into(xb, &t_in_);
  // Chain block workspaces by reference; each block owns its output.
  const nn::Tensor3* t = &t_in_;
  for (auto& b : blocks_) t = &b->Forward(*t);
  size_t last = t->time() - 1;
  feats_.Resize(xb.rows(), tcn_opts_.channels);
  for (size_t r = 0; r < xb.rows(); ++r) {
    for (size_t c = 0; c < tcn_opts_.channels; ++c) {
      feats_(r, c) = (*t)(r, c, last);
    }
  }
  return head_.Forward(feats_);
}

Status TcnForecaster::RunEpoch() {
  std::vector<size_t> order = rng_.Permutation(train_samples_.size());
  std::vector<nn::Param> params = Params();
  for (size_t begin = 0; begin < order.size(); begin += opts_.batch_size) {
    size_t count = std::min(opts_.batch_size, order.size() - begin);
    BatchWindowsInto(train_samples_, order, begin, count, &xb_);
    BatchTargetsInto(train_samples_, order, begin, count, &y_);
    nn::MSELoss(ForwardBatch(xb_), y_, &grad_);
    ZeroGrads(params);
    // The head read only the last time step, so only it gets gradient
    // (causal convolutions keep the window's length).
    const nn::Matrix& dfeats = head_.Backward(grad_);
    const size_t time = t_in_.time();
    dt_.Resize(count, tcn_opts_.channels, time);
    dt_.Fill(0.0);
    for (size_t r = 0; r < count; ++r) {
      for (size_t c = 0; c < tcn_opts_.channels; ++c) {
        dt_(r, c, time - 1) = dfeats(r, c);
      }
    }
    const nn::Tensor3* dt = &dt_;
    for (size_t b = blocks_.size(); b-- > 0;) dt = &blocks_[b]->Backward(*dt);
    nn::ClipGradNorm(params, opts_.grad_clip);
    adam_.Step(params);
  }
  return Status::OK();
}

double TcnForecaster::PredictScaled(const nn::Matrix& window) const {
  return ForwardBatch(window)(0, 0);
}

}  // namespace dbaugur::models
