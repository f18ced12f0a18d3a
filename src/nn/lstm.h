// LSTM layer with backpropagation through time.
//
// The paper's WFGAN generator/discriminator and the LSTM baseline all use a
// single LSTM layer producing per-step hidden states (fed to a temporal
// attention layer or a dense head).

#pragma once

#include <vector>

#include "common/rng.h"
#include "nn/layer.h"
#include "nn/matrix.h"

namespace dbaugur::nn {

/// Single-layer LSTM. Sequences are time-major: xs[t] is a [batch, input]
/// matrix; ForwardSequence returns hs[t] = [batch, hidden].
///
/// Gate layout in the fused weight matrices is [i | f | g | o] where i/f/o are
/// sigmoid gates and g is the tanh candidate.
///
/// The fused element-wise gate math routes through the runtime-dispatched
/// kernels in nn/lstm_kernels.h (see there for the per-tier determinism
/// contract); the matmuls route through nn/gemm.h as before.
class LSTM {
 public:
  LSTM(size_t input_size, size_t hidden_size, Rng* rng);

  /// Runs the full sequence from zero initial state, caching activations for
  /// BackwardSequence. The returned vector is a layer-owned workspace valid
  /// until the next ForwardSequence call; steady-state calls with the same
  /// shapes do not touch the heap.
  const std::vector<Matrix>& ForwardSequence(const std::vector<Matrix>& xs);

  /// grad_hs[t] = dLoss/dh_t (zero matrices allowed). Accumulates parameter
  /// gradients and returns dLoss/dx_t for each step (layer-owned workspace,
  /// valid until the next BackwardSequence call).
  const std::vector<Matrix>& BackwardSequence(
      const std::vector<Matrix>& grad_hs);

  std::vector<Param> Params();
  void ZeroGrad();

  size_t input_size() const { return input_; }
  size_t hidden_size() const { return hidden_; }

 private:
  // h_prev/c_prev are not stored per step: backward reads hs_[t-1] /
  // cache_[t-1].c (zeros_ at t == 0) instead of keeping copies.
  struct StepCache {
    Matrix x;           // input copy (callers may mutate theirs)
    Matrix i, f, g, o;  // gate activations, each [batch, hidden]
    Matrix c, tanh_c;
  };

  size_t input_;
  size_t hidden_;
  Matrix wx_;  // [input, 4*hidden]
  Matrix wh_;  // [hidden, 4*hidden]
  Matrix b_;   // [1, 4*hidden]
  Matrix dwx_, dwh_, db_;
  std::vector<StepCache> cache_;  // persistent; first steps_ entries valid
  size_t steps_ = 0;              // steps of the cached forward pass

  // Persistent workspaces (capacity survives across calls).
  std::vector<Matrix> hs_;   // per-step hidden states returned by forward
  std::vector<Matrix> dxs_;  // per-step input grads returned by backward
  Matrix zeros_;             // [batch, hidden] zero initial h/c
  Matrix z_;                 // fused gate pre-activation [batch, 4*hidden]
  Matrix dh_, dz_, dh_next_, dc_next_, dc_prev_;
};

}  // namespace dbaugur::nn
