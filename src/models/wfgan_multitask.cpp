#include "models/wfgan_multitask.h"

#include <algorithm>

namespace dbaugur::models {

MultiTaskWfgan::MultiTaskWfgan(const ForecasterOptions& opts,
                               const WfganOptions& gan)
    : opts_(opts),
      gan_(gan),
      rng_(opts.seed),
      trunk_(1, gan.hidden, &rng_),
      tasks_{Task(opts, gan, &rng_), Task(opts, gan, &rng_)},
      g_adam_(opts.learning_rate) {}

Status MultiTaskWfgan::Fit(const std::vector<double>& query_series,
                           const std::vector<double>& resource_series) {
  const std::vector<double>* series[2] = {&query_series, &resource_series};
  for (size_t ti = 0; ti < 2; ++ti) {
    auto ds = BuildScaledDataset(*series[ti], opts_);
    if (!ds.ok()) return ds.status();
    tasks_[ti].scaler = ds->scaler;
    tasks_[ti].samples = std::move(ds->samples);
  }
  for (size_t e = 0; e < opts_.epochs; ++e) {
    DBAUGUR_RETURN_IF_ERROR(TrainEpoch());
  }
  fitted_ = true;
  return Status::OK();
}

Status MultiTaskWfgan::TrainEpoch() {
  // Combined generator parameter set: shared trunk + both task heads.
  std::vector<nn::Param> gparams = trunk_.Params();
  for (Task& t : tasks_) AppendParams(&gparams, t.net.GeneratorParams());

  std::array<std::vector<size_t>, 2> orders = {
      rng_.Permutation(tasks_[0].samples.size()),
      rng_.Permutation(tasks_[1].samples.size())};
  const size_t batch = opts_.batch_size;
  size_t batches =
      std::min(orders[0].size(), orders[1].size()) / std::max<size_t>(1, batch);
  if (batches == 0) return Status::InvalidArgument("MTL: not enough samples");

  WfganEpochStats stats;  // accumulated by the task passes; not reported
  for (size_t bidx = 0; bidx < batches; ++bidx) {
    for (size_t ti = 0; ti < 2; ++ti) {
      BatchWindowsInto(tasks_[ti].samples, orders[ti], bidx * batch, batch,
                       &xb_);
      BatchTargetsInto(tasks_[ti].samples, orders[ti], bidx * batch, batch,
                       &ys_[ti]);
      ToTimeMajorInto(xb_, &xs_[ti]);
    }
    if (gan_.adversarial) {
      for (size_t ti = 0; ti < 2; ++ti) {
        tasks_[ti].net.DiscriminatorSteps(trunk_, xs_[ti], ys_[ti], &stats);
      }
    }
    for (size_t s = 0; s < gan_.g_steps; ++s) {
      ZeroGrads(gparams);
      for (size_t ti = 0; ti < 2; ++ti) {
        tasks_[ti].net.GeneratorGradient(trunk_, xs_[ti], ys_[ti], &stats);
      }
      nn::ClipGradNorm(gparams, opts_.grad_clip);
      g_adam_.Step(gparams);
    }
  }
  return Status::OK();
}

StatusOr<double> MultiTaskWfgan::Predict(
    WorkloadTask task, const std::vector<double>& window) const {
  if (!fitted_) return Status::FailedPrecondition("MTL-WFGAN: Fit not called");
  if (window.size() != opts_.window) {
    return Status::InvalidArgument("MTL-WFGAN: window size mismatch");
  }
  Task& t = tasks_[static_cast<size_t>(task)];
  std::vector<nn::Matrix> xs(window.size(), nn::Matrix(1, 1));
  for (size_t i = 0; i < window.size(); ++i) {
    xs[i](0, 0) = t.scaler.Transform(window[i]);
  }
  return t.scaler.Inverse(t.net.GeneratorForward(trunk_, xs)(0, 0));
}

std::vector<nn::Param> MultiTaskWfgan::Params() const {
  std::vector<nn::Param> params = trunk_.Params();
  for (Task& t : tasks_) AppendParams(&params, t.net.Params());
  return params;
}

}  // namespace dbaugur::models
