// Golden pins for the neural forecasters: small fixed-seed fits whose
// forecasts (as hex floats) and SaveState CRCs are recorded constants, so a
// refactor of the training code that moves a single bit of a forecast or of
// the checkpoint format fails here. The constants were recorded before the
// models were moved onto the shared NeuralForecaster base and WFGAN task
// network; a deliberate numerical change must re-record them and say why.
//
// The fits run on the scalar kernel tier: the vector tiers differ from it by
// FMA contraction (nn/gemm.h), so only the scalar tier gives the same bits
// on every host. Vector tiers are pinned to scalar by simd_gemm_test.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/binio.h"
#include "common/rng.h"
#include "common/simd.h"
#include "models/lstm_forecaster.h"
#include "models/mlp.h"
#include "models/tcn.h"
#include "models/wfgan.h"
#include "models/wfgan_multitask.h"

namespace dbaugur::models {
namespace {

std::vector<double> Series(size_t n, double period, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = 10.0 + 5.0 * std::sin(2.0 * M_PI * static_cast<double>(i) / period) +
           rng.Gaussian(0.0, 0.1);
  }
  return v;
}

ForecasterOptions GoldenOpts() {
  ForecasterOptions o;
  o.window = 8;
  o.horizon = 2;
  o.epochs = 3;
  o.batch_size = 16;
  o.seed = 11;
  // A 100-point series gives 91 windows: five batches of 16 and a trailing
  // partial batch of 11.
  return o;
}

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string HexCrc(const std::vector<uint8_t>& blob) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", Crc32(blob.data(), blob.size()));
  return buf;
}

struct Golden {
  std::string first, last, state_crc;
};

// Fits `model` on the series and returns the forecasts for its first and last
// window plus the CRC of its saved state.
Golden Pin(Forecaster& model, const std::vector<double>& series,
           size_t window) {
  EXPECT_TRUE(model.Fit(series).ok());
  std::vector<double> first(series.begin(),
                            series.begin() + static_cast<ptrdiff_t>(window));
  std::vector<double> last(series.end() - static_cast<ptrdiff_t>(window),
                           series.end());
  auto a = model.Predict(first);
  auto b = model.Predict(last);
  auto state = model.SaveState();
  EXPECT_TRUE(a.ok() && b.ok() && state.ok());
  if (!a.ok() || !b.ok() || !state.ok()) return {};
  return {Hex(*a), Hex(*b), HexCrc(*state)};
}

void ExpectGolden(const Golden& got, const Golden& want) {
  EXPECT_EQ(got.first, want.first);
  EXPECT_EQ(got.last, want.last);
  EXPECT_EQ(got.state_crc, want.state_crc);
}

class ModelsGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(simd::ForceTier(simd::Tier::kScalar)); }
  void TearDown() override { simd::ResetForcedTier(); }
};

Golden PinWfgan(const WfganOptions& gan) {
  ForecasterOptions opts = GoldenOpts();
  WfganForecaster model(opts, gan);
  return Pin(model, Series(100, 24.0, 5), opts.window);
}

TEST_F(ModelsGoldenTest, Mlp) {
  ForecasterOptions opts = GoldenOpts();
  MlpForecaster model(opts);
  ExpectGolden(Pin(model, Series(100, 24.0, 1), opts.window),
               {"0x1.b556d3b4564d4p+2", "0x1.61fc96cbbba6p+2", "4905dd83"});
}

TEST_F(ModelsGoldenTest, Lstm) {
  ForecasterOptions opts = GoldenOpts();
  LstmForecaster model(opts);
  ExpectGolden(Pin(model, Series(100, 24.0, 2), opts.window),
               {"0x1.30f3c9886f40fp+3", "0x1.0715ad3f6412dp+3", "32cd4092"});
}

TEST_F(ModelsGoldenTest, Tcn) {
  ForecasterOptions opts = GoldenOpts();
  TcnForecaster model(opts);
  ExpectGolden(Pin(model, Series(100, 24.0, 3), opts.window),
               {"0x1.9dcfd24bbf708p+3", "0x1.9e98698ee9614p+3", "be55104b"});
}

TEST_F(ModelsGoldenTest, WfganDefault) {
  ExpectGolden(PinWfgan(WfganOptions{}),
               {"0x1.1575fa6670423p+3", "0x1.c86129518ea54p+2", "62332bc2"});
}

TEST_F(ModelsGoldenTest, WfganNoAttention) {
  WfganOptions gan;
  gan.use_attention = false;
  ExpectGolden(PinWfgan(gan),
               {"0x1.5cec00e761ap+3", "0x1.1c574c3401fc2p+3", "7d1413db"});
}

TEST_F(ModelsGoldenTest, WfganNonAdversarial) {
  WfganOptions gan;
  gan.adversarial = false;
  ExpectGolden(PinWfgan(gan),
               {"0x1.1576caac7eaa4p+3", "0x1.c862304102a38p+2", "7d374170"});
}

TEST_F(ModelsGoldenTest, WfganSaturating) {
  WfganOptions gan;
  gan.saturating_g_loss = true;
  ExpectGolden(PinWfgan(gan),
               {"0x1.15760cbfeca99p+3", "0x1.c8613f4ba3f12p+2", "9c398ef0"});
}

TEST_F(ModelsGoldenTest, WfganTwoDiscriminatorAndGeneratorSteps) {
  WfganOptions gan;
  gan.d_steps = 2;
  gan.g_steps = 2;
  ExpectGolden(PinWfgan(gan),
               {"0x1.589e765203442p+3", "0x1.13c72b2f75eap+3", "ed2060b9"});
}

TEST_F(ModelsGoldenTest, MultiTaskWfganBothTasks) {
  ForecasterOptions opts = GoldenOpts();
  std::vector<double> query = Series(100, 24.0, 6);
  std::vector<double> resource(query.size());
  for (size_t i = 0; i < query.size(); ++i) {
    resource[i] = 0.3 + 0.04 * query[i];
  }
  MultiTaskWfgan model(opts, WfganOptions{});
  ASSERT_TRUE(model.Fit(query, resource).ok());
  std::vector<double> qw(query.end() - 8, query.end());
  std::vector<double> rw(resource.end() - 8, resource.end());
  auto q = model.Predict(WorkloadTask::kQuery, qw);
  auto r = model.Predict(WorkloadTask::kResource, rw);
  auto state = model.SaveState();
  ASSERT_TRUE(q.ok() && r.ok() && state.ok());
  ExpectGolden({Hex(*q), Hex(*r), HexCrc(*state)},
               {"0x1.97cc6f491a584p+2", "0x1.1dccd2b1097dp-1", "4b7a9bda"});
}

}  // namespace
}  // namespace dbaugur::models
