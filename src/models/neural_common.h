// Shared plumbing for the neural forecasters: the NeuralForecaster base
// (fit / predict / state / accounting written once for MLP, LSTM, TCN and
// WFGAN), min-max-scaled sliding-window datasets, and batch assembly in the
// layouts the nn substrate expects.

#pragma once

#include <vector>

#include "common/rng.h"
#include "models/forecaster.h"
#include "nn/layer.h"
#include "nn/matrix.h"
#include "ts/scaler.h"
#include "ts/window_dataset.h"

namespace dbaugur::models {

/// Window samples in [0,1] scale plus the scaler that maps back to raw scale.
struct ScaledDataset {
  std::vector<ts::WindowSample> samples;
  ts::MinMaxScaler scaler;
};

/// Fits a MinMaxScaler on `series` and extracts scaled (window, target) pairs.
StatusOr<ScaledDataset> BuildScaledDataset(const std::vector<double>& series,
                                           const ForecasterOptions& opts);

// Batch assembly into caller-held workspaces, so training loops hold one
// batch buffer across all batches of an epoch instead of reallocating.

/// Packs selected samples' windows into a [count, T] matrix.
void BatchWindowsInto(const std::vector<ts::WindowSample>& samples,
                      const std::vector<size_t>& idx, size_t begin,
                      size_t count, nn::Matrix* out);

/// Packs selected samples' targets into a [count, 1] matrix.
void BatchTargetsInto(const std::vector<ts::WindowSample>& samples,
                      const std::vector<size_t>& idx, size_t begin,
                      size_t count, nn::Matrix* out);

/// Converts a [batch, T] matrix into a time-major sequence of [batch, 1]
/// matrices for recurrent layers (per-step buffers reused).
void ToTimeMajorInto(const nn::Matrix& batch, std::vector<nn::Matrix>* xs);

/// Converts a [batch, T] matrix into a [batch, 1 channel, T] tensor for
/// convolutional layers.
void ToTensor3Into(const nn::Matrix& batch, nn::Tensor3* out);

/// dst = xs ++ [tail], reusing dst's buffers (a plain `dst = xs;
/// dst.push_back(tail)` would free and reallocate every batch). Used to build
/// the discriminator's length-(T+1) real/fake sequences.
void CopySequenceWithTail(const std::vector<nn::Matrix>& xs,
                          const nn::Matrix& tail,
                          std::vector<nn::Matrix>* dst);

/// Length-`steps` gradient sequence that is zero except for its last step,
/// `dlast` (the recurrent models' backward from a head that reads the last
/// hidden state).
void LastStepGradSequence(const nn::Matrix& dlast, size_t steps,
                          std::vector<nn::Matrix>* dst);

/// Appends `more` to `*params` (builds a model's layer-ordered Params()).
void AppendParams(std::vector<nn::Param>* params,
                  const std::vector<nn::Param>& more);

/// Number of trainable scalars in `params`.
int64_t CountParameters(const std::vector<nn::Param>& params);

/// Resets every gradient accumulator in `params` to zero.
void ZeroGrads(const std::vector<nn::Param>& params);

// --- Model state (scalers + weights) for snapshot persistence. -------------
//
// A neural model's Predict path depends on its parameter tensors and the
// min-max scalers fitted on its training series. SerializeNeuralState packs
// `scalers` followed by a lossless float64 nn::SerializeParamsF64 blob;
// DeserializeNeuralState validates magic / scaler count / params (reusing
// nn/serialize's count+shape+truncation rejection) and restores in place.

/// Packs scaler states and parameter values into one self-describing blob.
std::vector<uint8_t> SerializeNeuralState(
    const std::vector<const ts::MinMaxScaler*>& scalers,
    const std::vector<nn::Param>& params);

/// Restores a SerializeNeuralState blob. `scalers` and `params` must match
/// the saving model's layout; corrupt/truncated/mismatched blobs are
/// rejected with InvalidArgument without partially applying scaler state.
Status DeserializeNeuralState(const std::vector<uint8_t>& buffer,
                              const std::vector<ts::MinMaxScaler*>& scalers,
                              std::vector<nn::Param> params);

/// Base of the single-series neural forecasters. It owns the options, the
/// seeded RNG (drawn by the subclass's layer constructors, in member order,
/// and then by each epoch's batch permutation), the min-max scaler and the
/// scaled training windows, and implements everything that does not depend on
/// the network: Fit (PrepareTraining, then `epochs` TrainEpoch calls),
/// Predict (guards, scaling, PredictScaled, inverse scaling), the
/// SerializeNeuralState({scaler}, Params()) checkpoint, and the size
/// accounting. A subclass supplies its layers, Params(), RunEpoch(),
/// PredictScaled() and name().
class NeuralForecaster : public Forecaster {
 public:
  Status Fit(const std::vector<double>& series) override;
  StatusOr<double> Predict(const std::vector<double>& window) const override;
  int64_t StorageBytes() const override;
  int64_t ParameterCount() const override;
  StatusOr<std::vector<uint8_t>> SaveState() const override;
  Status LoadState(const std::vector<uint8_t>& buffer) override;

  /// Fits the scaler on `series` and builds the scaled training windows (the
  /// first step of Fit; Table II timing calls it once, then TrainEpoch).
  Status PrepareTraining(const std::vector<double>& series);

  /// Runs exactly one training epoch over the prepared windows.
  /// FailedPrecondition before PrepareTraining.
  Status TrainEpoch();

  /// Parameter tensors in layer order: the SaveState layout.
  virtual std::vector<nn::Param> Params() const = 0;

 protected:
  explicit NeuralForecaster(const ForecasterOptions& opts)
      : opts_(opts), rng_(opts.seed) {}

  /// One pass over train_samples_ (non-empty) in rng_-permuted minibatches.
  virtual Status RunEpoch() = 0;

  /// The scaled-space forecast for one scaled condition window, given as a
  /// [1, T] row.
  virtual double PredictScaled(const nn::Matrix& window) const = 0;

  ForecasterOptions opts_;
  Rng rng_;
  ts::MinMaxScaler scaler_;
  std::vector<ts::WindowSample> train_samples_;
  bool fitted_ = false;
};

}  // namespace dbaugur::models
