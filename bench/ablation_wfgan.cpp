// WFGAN ablation (supports the §V design choices): temporal attention
// on/off, adversarial training on/off, saturating (paper Eq. 5) vs
// non-saturating generator loss, and single-task vs multi-task training on
// correlated query + resource traces. Exits 1 if any MSE it prints is not
// finite (a diverged or broken training path).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/table_printer.h"
#include "models/wfgan.h"
#include "models/wfgan_multitask.h"

using namespace dbaugur;
using namespace dbaugur::bench;

namespace {

// Every MSE the tables print, so main can fail on a non-finite one.
std::vector<double> printed_mses;

std::string Mse(double mse, int digits) {
  printed_mses.push_back(mse);
  return TablePrinter::Fmt(mse, digits);
}

double ScoreVariant(const Dataset& ds, const models::ForecasterOptions& opts,
                    const models::WfganOptions& gopts) {
  models::WfganForecaster model(opts, gopts);
  CheckOk(model.Fit(ds.train()), "fit");
  auto eval = models::EvaluateForecaster(model, ds.values, ds.train_size,
                                         opts.window, opts.horizon);
  CheckOk(eval.status(), "eval");
  return *ts::MSE(eval->predicted, eval->actual);
}

}  // namespace

int main() {
  Dataset ali = MakeAlibabaDataset();
  models::ForecasterOptions opts = BenchOptions(/*horizon=*/6, /*epochs=*/12);

  std::printf("=== WFGAN ablation on AliCluster (horizon 6 steps) ===\n");
  TablePrinter table({"variant", "test MSE"});
  {
    models::WfganOptions g;  // full model
    table.AddRow({"full WFGAN", Mse(ScoreVariant(ali, opts, g), 6)});
  }
  {
    models::WfganOptions g;
    g.use_attention = false;
    table.AddRow({"- temporal attention (Eq. 2-3)",
                  Mse(ScoreVariant(ali, opts, g), 6)});
  }
  {
    models::WfganOptions g;
    g.adversarial = false;
    table.AddRow({"- adversarial training (supervised only)",
                  Mse(ScoreVariant(ali, opts, g), 6)});
  }
  {
    models::WfganOptions g;
    g.saturating_g_loss = true;
    table.AddRow({"saturating G loss (paper Eq. 5)",
                  Mse(ScoreVariant(ali, opts, g), 6)});
  }
  {
    models::WfganOptions g;  // pure min-max game, no supervised term
    g.supervised_weight = 0.0;
    g.adversarial_weight = 1.0;
    table.AddRow({"pure adversarial (no supervised term)",
                  Mse(ScoreVariant(ali, opts, g), 6)});
  }
  table.Print();
  std::printf(
      "(the supervised MSE term dominates WFGAN's objective on this trace;\n"
      "the adversarial term nudges the final decimals, and removing the\n"
      "supervised term entirely shows why pure adversarial training of a\n"
      "point forecaster is impractical)\n");

  // --- Multi-task learning: joint query+resource training (paper §V-A).
  std::printf("\n=== Multi-task learning ablation ===\n");
  Dataset bus = MakeBusTrackerDataset(7);
  // A resource trace correlated with the query trace (CPU tracks load).
  Rng rng(77);
  std::vector<double> resource(bus.values.size());
  double peak = *std::max_element(bus.values.begin(), bus.values.end());
  for (size_t i = 0; i < resource.size(); ++i) {
    resource[i] = 0.2 + 0.6 * bus.values[i] / peak + rng.Gaussian(0.0, 0.02);
  }
  Dataset res{"cpu", resource, bus.train_size};

  models::ForecasterOptions mopts = BenchOptions(1, /*epochs=*/12);
  // Single-task WFGANs.
  double single_q = ScoreVariant(bus, mopts, models::WfganOptions{});
  double single_r = ScoreVariant(res, mopts, models::WfganOptions{});
  // Multi-task WFGAN sharing the generator trunk.
  models::MultiTaskWfgan mtl(mopts, models::WfganOptions{});
  CheckOk(mtl.Fit(bus.train(), res.train()), "mtl fit");
  auto eval_task = [&](models::WorkloadTask task, const Dataset& ds) {
    std::vector<double> pred, actual;
    for (size_t t = ds.train_size; t < ds.values.size(); ++t) {
      if (t < mopts.window + mopts.horizon - 1) continue;
      size_t end = t - mopts.horizon;
      std::vector<double> window(
          ds.values.begin() + static_cast<ptrdiff_t>(end + 1 - mopts.window),
          ds.values.begin() + static_cast<ptrdiff_t>(end + 1));
      auto p = mtl.Predict(task, window);
      if (!p.ok()) continue;
      pred.push_back(*p);
      actual.push_back(ds.values[t]);
    }
    return *ts::MSE(pred, actual);
  };
  double mtl_q = eval_task(models::WorkloadTask::kQuery, bus);
  double mtl_r = eval_task(models::WorkloadTask::kResource, res);

  TablePrinter mt({"training", "query MSE", "resource MSE"});
  mt.AddRow({"single-task WFGAN x2", Mse(single_q, 2),
             Mse(single_r, 5)});
  mt.AddRow({"multi-task WFGAN (shared trunk)", Mse(mtl_q, 2),
             Mse(mtl_r, 5)});
  mt.Print();
  std::printf(
      "\nExpected: attention and adversarial terms each help on the bursty\n"
      "trace; the saturating Eq. 5 loss is no better than non-saturating;\n"
      "multi-task training is competitive with (or better than) two\n"
      "independently trained models while sharing trunk parameters.\n");
  for (double mse : printed_mses) {
    if (!std::isfinite(mse)) {
      std::fprintf(stderr, "ablation_wfgan: non-finite MSE %g\n", mse);
      return 1;
    }
  }
  return 0;
}
