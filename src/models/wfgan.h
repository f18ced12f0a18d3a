// WFGAN: Workload Forecasting GAN (the paper's core contribution, §V-A/V-B).
//
// A conditional GAN where the generator receives the length-T condition
// window X and emits the forecast x̂_{T+H}; the discriminator scores the
// length-(T+1) concatenations X ∘ x_{T+H} (real) and X ∘ x̂_{T+H} (fake).
// Both networks are an LSTM (paper: 30 cells) followed by a temporal
// attention layer (paper Eq. 2-3) and a dense head. Training alternates
// D-steps and G-steps per the paper's Algorithm 2.
//
// The GAN lives in WfganTask: the generator's attention and head on top of
// an LSTM trunk the task does not own, the discriminator, and the D-step and
// generator-gradient passes. WfganForecaster is one trunk plus one task;
// MultiTaskWfgan (wfgan_multitask.h) shares one trunk between two tasks. Fit,
// Predict, the checkpoint and the accounting come from NeuralForecaster.
//
// Two deliberate implementation choices beyond the paper's text, both
// standard for forecasting GANs and both exposed for ablation:
//  * the generator objective adds a supervised MSE term
//    (supervised_weight); pure adversarial training of a point forecaster
//    is unstable at this scale,
//  * the generator's adversarial term defaults to the non-saturating loss
//    -log D(fake) instead of Eq. 5's log(1 - D(fake)) (Goodfellow et al.'s
//    own recommendation); `saturating_g_loss` restores Eq. 5.

#pragma once

#include <vector>

#include "models/neural_common.h"
#include "nn/attention.h"
#include "nn/dense.h"
#include "nn/lstm.h"
#include "nn/optimizer.h"

namespace dbaugur::models {

/// WFGAN architecture / training knobs.
struct WfganOptions {
  size_t hidden = 30;       ///< LSTM cells (paper: one LSTM layer, 30 cells).
  size_t attn_dim = 16;     ///< Attention projection width.
  size_t d_steps = 1;       ///< Discriminator updates per minibatch.
  size_t g_steps = 1;       ///< Generator updates per minibatch.
  double adversarial_weight = 0.2;  ///< Weight of the GAN term in G's loss.
  double supervised_weight = 1.0;   ///< Weight of the MSE term in G's loss.
  double real_label = 0.9;          ///< Label smoothing for real samples.
  bool use_attention = true;        ///< Disable to ablate Eq. 2-3.
  bool adversarial = true;          ///< Disable to ablate GAN training.
  bool saturating_g_loss = false;   ///< Use the paper's Eq. 5 G loss.
};

/// Per-epoch training diagnostics.
struct WfganEpochStats {
  double d_loss = 0.0;   ///< Mean discriminator BCE.
  double g_adv = 0.0;    ///< Mean generator adversarial loss.
  double g_mse = 0.0;    ///< Mean generator supervised MSE (scaled space).
};

/// One WFGAN task network over a caller-owned generator LSTM trunk: the
/// generator's temporal attention and dense head, the conditional
/// discriminator (LSTM, attention, dense head) scoring length-(T+1)
/// sequences, and the discriminator's Adam. Its layers draw from `rng` in the
/// order attn, head, d_lstm, d_attn, d_head. Sequences are time-major lists
/// of [batch, 1] matrices in scaled space; returned references are
/// layer-owned workspaces, valid until the next call.
class WfganTask {
 public:
  WfganTask(const ForecasterOptions& opts, const WfganOptions& gan, Rng* rng);

  /// Generator forward: trunk, then attention (or the last hidden state when
  /// attention is ablated), then the head. Returns [batch, 1] forecasts.
  const nn::Matrix& GeneratorForward(nn::LSTM& trunk,
                                     const std::vector<nn::Matrix>& xs);

  /// Discriminator forward on a length-(T+1) sequence; returns [batch, 1]
  /// logits.
  const nn::Matrix& DiscriminatorForward(const std::vector<nn::Matrix>& xs);

  /// Algorithm 2, lines 5-7: `d_steps` discriminator updates on one
  /// minibatch, real X ∘ y against the detached fake X ∘ G(X). Adds each
  /// step's BCE (real + fake) to stats->d_loss.
  void DiscriminatorSteps(nn::LSTM& trunk, const std::vector<nn::Matrix>& xs,
                          const nn::Matrix& y, WfganEpochStats* stats);

  /// Algorithm 2, lines 8-10, plus the supervised MSE term: accumulates one
  /// minibatch's generator gradient into the trunk and this task's generator
  /// layers. The caller zeroes, clips and steps the generator parameters.
  /// Adds the MSE and the adversarial loss to *stats.
  void GeneratorGradient(nn::LSTM& trunk, const std::vector<nn::Matrix>& xs,
                         const nn::Matrix& y, WfganEpochStats* stats);

  /// Attention (when used) and head; the trunk is the caller's.
  std::vector<nn::Param> GeneratorParams();
  /// Discriminator LSTM, attention (when used) and head.
  std::vector<nn::Param> DiscriminatorParams();
  /// GeneratorParams then DiscriminatorParams: the checkpoint layout.
  std::vector<nn::Param> Params();

 private:
  /// Generator backward from dLoss/dForecast through the head, attention and
  /// trunk (`steps` = trunk sequence length).
  void GeneratorBackward(nn::LSTM& trunk, const nn::Matrix& grad_pred,
                         size_t steps);
  /// Discriminator backward; returns dLoss/dInput per step.
  const std::vector<nn::Matrix>& DiscriminatorBackward(
      const nn::Matrix& grad_logit, size_t steps);

  WfganOptions gan_;
  double grad_clip_;
  nn::TemporalAttention attn_;
  nn::Dense head_;
  nn::LSTM d_lstm_;
  nn::TemporalAttention d_attn_;
  nn::Dense d_head_;
  nn::Adam d_adam_;
  // Minibatch workspaces reused across batches.
  nn::Matrix grad_pred_, mse_grad_, grad_real_, grad_fake_, grad_logit_,
      real_labels_, fake_labels_;
  std::vector<nn::Matrix> xs_real_, xs_fake_;
  std::vector<nn::Matrix> g_grad_hs_, d_grad_hs_;  // no-attention path
};

/// The single-task WFGAN forecaster: one generator LSTM trunk and one task.
class WfganForecaster : public NeuralForecaster {
 public:
  WfganForecaster(const ForecasterOptions& opts, const WfganOptions& gan);
  explicit WfganForecaster(const ForecasterOptions& opts)
      : WfganForecaster(opts, WfganOptions{}) {}

  std::string name() const override { return "WFGAN"; }

  /// Diagnostics from the most recent TrainEpoch.
  const WfganEpochStats& last_stats() const { return last_stats_; }

  /// Discriminator probability that `window ∘ value` is a real trace
  /// (inputs in raw scale). Exposed for tests and examples.
  StatusOr<double> DiscriminatorScore(const std::vector<double>& window,
                                      double value) const;

  /// All parameter tensors (generator then discriminator) — serialization.
  std::vector<nn::Param> Params() const override;

 private:
  Status RunEpoch() override;
  double PredictScaled(const nn::Matrix& window) const override;

  WfganOptions gan_;
  // Layers are mutable: forward passes cache activations even from const
  // Predict. The trunk is constructed (draws its weights) before the task.
  mutable nn::LSTM trunk_;
  mutable WfganTask task_;
  nn::Adam g_adam_;
  WfganEpochStats last_stats_;
  nn::Matrix xb_, y_;  // batch workspaces
  std::vector<nn::Matrix> xs_;
};

}  // namespace dbaugur::models
