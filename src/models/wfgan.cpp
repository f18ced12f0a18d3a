#include "models/wfgan.h"

#include <algorithm>

#include "common/math_utils.h"
#include "nn/loss.h"

namespace dbaugur::models {

WfganTask::WfganTask(const ForecasterOptions& opts, const WfganOptions& gan,
                     Rng* rng)
    : gan_(gan),
      grad_clip_(opts.grad_clip),
      attn_(gan.hidden, gan.attn_dim, rng),
      head_(gan.hidden, 1, nn::Activation::kIdentity, rng),
      d_lstm_(1, gan.hidden, rng),
      d_attn_(gan.hidden, gan.attn_dim, rng),
      d_head_(gan.hidden, 1, nn::Activation::kIdentity, rng),
      d_adam_(opts.learning_rate) {}

std::vector<nn::Param> WfganTask::GeneratorParams() {
  std::vector<nn::Param> params;
  if (gan_.use_attention) AppendParams(&params, attn_.Params());
  AppendParams(&params, head_.Params());
  return params;
}

std::vector<nn::Param> WfganTask::DiscriminatorParams() {
  std::vector<nn::Param> params = d_lstm_.Params();
  if (gan_.use_attention) AppendParams(&params, d_attn_.Params());
  AppendParams(&params, d_head_.Params());
  return params;
}

std::vector<nn::Param> WfganTask::Params() {
  std::vector<nn::Param> params = GeneratorParams();
  AppendParams(&params, DiscriminatorParams());
  return params;
}

const nn::Matrix& WfganTask::GeneratorForward(
    nn::LSTM& trunk, const std::vector<nn::Matrix>& xs) {
  const std::vector<nn::Matrix>& hs = trunk.ForwardSequence(xs);
  return head_.Forward(gan_.use_attention ? attn_.Forward(hs) : hs.back());
}

void WfganTask::GeneratorBackward(nn::LSTM& trunk, const nn::Matrix& grad_pred,
                                  size_t steps) {
  const nn::Matrix& dcontext = head_.Backward(grad_pred);
  if (gan_.use_attention) {
    trunk.BackwardSequence(attn_.Backward(dcontext));
  } else {
    LastStepGradSequence(dcontext, steps, &g_grad_hs_);
    trunk.BackwardSequence(g_grad_hs_);
  }
}

const nn::Matrix& WfganTask::DiscriminatorForward(
    const std::vector<nn::Matrix>& xs) {
  const std::vector<nn::Matrix>& hs = d_lstm_.ForwardSequence(xs);
  return d_head_.Forward(gan_.use_attention ? d_attn_.Forward(hs) : hs.back());
}

const std::vector<nn::Matrix>& WfganTask::DiscriminatorBackward(
    const nn::Matrix& grad_logit, size_t steps) {
  const nn::Matrix& dcontext = d_head_.Backward(grad_logit);
  if (gan_.use_attention) {
    return d_lstm_.BackwardSequence(d_attn_.Backward(dcontext));
  }
  LastStepGradSequence(dcontext, steps, &d_grad_hs_);
  return d_lstm_.BackwardSequence(d_grad_hs_);
}

void WfganTask::DiscriminatorSteps(nn::LSTM& trunk,
                                   const std::vector<nn::Matrix>& xs,
                                   const nn::Matrix& y,
                                   WfganEpochStats* stats) {
  const size_t count = y.rows();
  // The fake forecasts are computed once and detached: no generator backward.
  const nn::Matrix& fake = GeneratorForward(trunk, xs);
  CopySequenceWithTail(xs, y, &xs_real_);
  CopySequenceWithTail(xs, fake, &xs_fake_);
  real_labels_.Resize(count, 1);
  real_labels_.Fill(gan_.real_label);
  fake_labels_.Resize(count, 1);
  fake_labels_.Fill(0.0);
  std::vector<nn::Param> dparams = DiscriminatorParams();
  for (size_t s = 0; s < gan_.d_steps; ++s) {
    ZeroGrads(dparams);
    double loss_real = nn::BCEWithLogitsLoss(DiscriminatorForward(xs_real_),
                                             real_labels_, &grad_real_);
    DiscriminatorBackward(grad_real_, xs_real_.size());
    double loss_fake = nn::BCEWithLogitsLoss(DiscriminatorForward(xs_fake_),
                                             fake_labels_, &grad_fake_);
    DiscriminatorBackward(grad_fake_, xs_fake_.size());
    nn::ClipGradNorm(dparams, grad_clip_);
    d_adam_.Step(dparams);
    stats->d_loss += loss_real + loss_fake;
  }
}

void WfganTask::GeneratorGradient(nn::LSTM& trunk,
                                  const std::vector<nn::Matrix>& xs,
                                  const nn::Matrix& y,
                                  WfganEpochStats* stats) {
  const nn::Matrix& fake = GeneratorForward(trunk, xs);
  grad_pred_.Resize(y.rows(), 1);
  grad_pred_.Fill(0.0);
  stats->g_mse += nn::MSELoss(fake, y, &mse_grad_);
  grad_pred_.AddScaled(mse_grad_, gan_.supervised_weight);
  if (gan_.adversarial) {
    // dLoss/dForecast flows back through the discriminator's input; the
    // discriminator's own parameter gradients from this pass are discarded.
    CopySequenceWithTail(xs, fake, &xs_fake_);
    const nn::Matrix& fake_logits = DiscriminatorForward(xs_fake_);
    stats->g_adv +=
        gan_.saturating_g_loss
            ? nn::GeneratorGanLossSaturating(fake_logits, &grad_logit_)
            : nn::GeneratorGanLoss(fake_logits, &grad_logit_);
    const std::vector<nn::Matrix>& dxs =
        DiscriminatorBackward(grad_logit_, xs_fake_.size());
    grad_pred_.AddScaled(dxs.back(), gan_.adversarial_weight);
    ZeroGrads(DiscriminatorParams());
  }
  GeneratorBackward(trunk, grad_pred_, xs.size());
}

WfganForecaster::WfganForecaster(const ForecasterOptions& opts,
                                 const WfganOptions& gan)
    : NeuralForecaster(opts),
      gan_(gan),
      trunk_(1, gan.hidden, &rng_),
      task_(opts, gan, &rng_),
      g_adam_(opts.learning_rate) {}

std::vector<nn::Param> WfganForecaster::Params() const {
  std::vector<nn::Param> params = trunk_.Params();
  AppendParams(&params, task_.Params());
  return params;
}

Status WfganForecaster::RunEpoch() {
  std::vector<size_t> order = rng_.Permutation(train_samples_.size());
  std::vector<nn::Param> gparams = trunk_.Params();
  AppendParams(&gparams, task_.GeneratorParams());
  WfganEpochStats stats;
  size_t batches = 0;
  // Every window trains once per epoch, the last minibatch possibly partial.
  for (size_t begin = 0; begin < order.size(); begin += opts_.batch_size) {
    size_t count = std::min(opts_.batch_size, order.size() - begin);
    BatchWindowsInto(train_samples_, order, begin, count, &xb_);
    BatchTargetsInto(train_samples_, order, begin, count, &y_);
    ToTimeMajorInto(xb_, &xs_);
    if (gan_.adversarial) task_.DiscriminatorSteps(trunk_, xs_, y_, &stats);
    for (size_t s = 0; s < gan_.g_steps; ++s) {
      ZeroGrads(gparams);
      task_.GeneratorGradient(trunk_, xs_, y_, &stats);
      nn::ClipGradNorm(gparams, opts_.grad_clip);
      g_adam_.Step(gparams);
    }
    ++batches;
  }
  if (batches > 0) {
    stats.d_loss /= static_cast<double>(batches * std::max<size_t>(1, gan_.d_steps));
    stats.g_adv /= static_cast<double>(batches * gan_.g_steps);
    stats.g_mse /= static_cast<double>(batches * gan_.g_steps);
  }
  last_stats_ = stats;
  return Status::OK();
}

double WfganForecaster::PredictScaled(const nn::Matrix& window) const {
  std::vector<nn::Matrix> xs;
  ToTimeMajorInto(window, &xs);
  return task_.GeneratorForward(trunk_, xs)(0, 0);
}

StatusOr<double> WfganForecaster::DiscriminatorScore(
    const std::vector<double>& window, double value) const {
  if (!fitted_) return Status::FailedPrecondition("WFGAN: Fit not called");
  if (window.size() != opts_.window) {
    return Status::InvalidArgument("WFGAN: window size mismatch");
  }
  std::vector<nn::Matrix> xs(window.size() + 1, nn::Matrix(1, 1));
  for (size_t t = 0; t < window.size(); ++t) {
    xs[t](0, 0) = scaler_.Transform(window[t]);
  }
  xs.back()(0, 0) = scaler_.Transform(value);
  return Sigmoid(task_.DiscriminatorForward(xs)(0, 0));
}

}  // namespace dbaugur::models
