// GEMM kernel and training-hot-path benchmark with machine-readable output.
//
// Two families of cases:
//   1. Microkernels: each fused GEMM variant vs the pre-PR naive kernel
//      (nn::ref) including the fresh-allocation-per-call behavior of the old
//      Matrix wrappers, at the shapes the WFGAN/LSTM/MLP hot paths hit.
//   2. wfgan_lstm_epoch: one WFGAN-shaped training epoch worth of LSTM
//      forward+backward passes. The legacy side is a faithful replica of the
//      pre-PR LSTM (per-step allocations, unfused gate loops, naive kernels);
//      the fused side runs the current nn::LSTM workspaces.
//
// Output is a single JSON object (stdout, or --out FILE). `--smoke` shrinks
// rep counts so CI can run it in seconds.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "nn/gemm.h"
#include "nn/lstm.h"
#include "nn/matrix.h"

namespace dbaugur::bench {
namespace {

using nn::Matrix;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Matrix RandomMatrix(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = rng->Uniform(-1.0, 1.0);
  }
  return m;
}

// --- Legacy Matrix-op replicas: fresh allocation per call + naive kernel,
// exactly what the pre-PR Matrix::MatMul family did.

Matrix LegacyMatMul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols(), 0.0);
  nn::ref::MatMul(a.rows(), a.cols(), b.cols(), a.data(), b.data(), c.data());
  return c;
}

Matrix LegacyTransposeMatMul(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols(), 0.0);
  nn::ref::TransposeMatMul(a.rows(), a.cols(), b.cols(), a.data(), b.data(),
                           c.data());
  return c;
}

Matrix LegacyMatMulTranspose(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows(), 0.0);
  nn::ref::MatMulTranspose(a.rows(), a.cols(), b.rows(), a.data(), b.data(),
                           c.data());
  return c;
}

// --- Microkernel cases.

struct KernelCase {
  const char* name;  // which hot-path GEMM this shape comes from
  const char* op;    // nn | tn | nt
  size_t m, k, n;
};

// Shapes taken from the WFGAN (batch 32, input 1, hidden 30 -> 4H=120,
// attn 16), the MLP (30->32->16), and one large square that crosses the
// parallel-dispatch threshold.
const KernelCase kKernelCases[] = {
    {"lstm_z_recurrent", "nn", 32, 30, 120},
    {"lstm_z_input", "nn", 32, 1, 120},
    {"lstm_dwh", "tn", 32, 30, 120},
    {"lstm_dh_next", "nt", 32, 120, 30},
    {"attention_u", "nn", 32, 30, 16},
    {"mlp_l1", "nn", 32, 30, 32},
    {"large_square", "nn", 256, 256, 256},
};

struct CaseResult {
  std::string name;
  size_t m = 0, k = 0, n = 0;
  int reps = 0;
  double naive_ns = 0.0;
  double fused_ns = 0.0;
  double speedup = 0.0;
};

// Picks a rep count so each timed side runs ~`budget_s`.
int RepsForFlops(double flops, bool smoke) {
  double budget_s = smoke ? 0.02 : 0.4;
  double est_s = flops / 1e9;  // ~1 GFLOP/s floor for the naive kernel
  int reps = static_cast<int>(budget_s / (est_s > 1e-9 ? est_s : 1e-9));
  if (reps < 3) reps = 3;
  if (reps > 200000) reps = 200000;
  return reps;
}

CaseResult RunKernelCase(const KernelCase& kc, bool smoke, Rng* rng) {
  CaseResult r;
  r.name = kc.name;
  r.m = kc.m;
  r.k = kc.k;
  r.n = kc.n;
  r.reps = RepsForFlops(2.0 * static_cast<double>(kc.m) *
                            static_cast<double>(kc.k) *
                            static_cast<double>(kc.n),
                        smoke);

  const bool tn = std::strcmp(kc.op, "tn") == 0;
  const bool nt = std::strcmp(kc.op, "nt") == 0;
  // a is always (m x k). b depends on the op: nn multiplies a*b with b
  // (k x n); tn computes a^T*b with b (m x n); nt computes a*b^T with b
  // (n x k).
  Matrix a = RandomMatrix(kc.m, kc.k, rng);
  Matrix b = RandomMatrix(tn ? kc.m : (nt ? kc.n : kc.k),
                          tn ? kc.n : (nt ? kc.k : kc.n), rng);

  double sink = 0.0;  // defeats dead-code elimination

  double t0 = NowSeconds();
  for (int i = 0; i < r.reps; ++i) {
    Matrix c = tn   ? LegacyTransposeMatMul(a, b)
               : nt ? LegacyMatMulTranspose(a, b)
                    : LegacyMatMul(a, b);
    sink += c.data()[0];
  }
  double t1 = NowSeconds();

  Matrix c;  // persistent workspace, like the layer code
  for (int warm = 0; warm < 2; ++warm) {
    if (tn) {
      c.TransposeMatMulInto(a, b);
    } else if (nt) {
      c.MatMulTransposeInto(a, b);
    } else {
      c.MatMulInto(a, b);
    }
  }
  double t2 = NowSeconds();
  for (int i = 0; i < r.reps; ++i) {
    if (tn) {
      c.TransposeMatMulInto(a, b);
    } else if (nt) {
      c.MatMulTransposeInto(a, b);
    } else {
      c.MatMulInto(a, b);
    }
    sink += c.data()[0];
  }
  double t3 = NowSeconds();

  if (sink == 12345.6789) std::fprintf(stderr, "~");
  r.naive_ns = (t1 - t0) * 1e9 / r.reps;
  r.fused_ns = (t3 - t2) * 1e9 / r.reps;
  r.speedup = r.fused_ns > 0.0 ? r.naive_ns / r.fused_ns : 0.0;
  return r;
}

// --- Legacy LSTM replica (verbatim structure of the pre-PR nn::LSTM:
// std::vector caches rebuilt per pass, six unfused gate loops, operator()
// indexing, naive kernels, fresh result matrices everywhere).

struct LegacyLstm {
  size_t input, hidden;
  Matrix wx, wh, b, dwx, dwh, db;

  struct StepCache {
    Matrix x, h_prev, c_prev, i, f, g, o, c, tanh_c;
  };
  std::vector<StepCache> cache;

  LegacyLstm(size_t in, size_t hid, Rng* rng)
      : input(in),
        hidden(hid),
        wx(RandomMatrix(in, 4 * hid, rng)),
        wh(RandomMatrix(hid, 4 * hid, rng)),
        b(RandomMatrix(1, 4 * hid, rng)),
        dwx(in, 4 * hid),
        dwh(hid, 4 * hid),
        db(1, 4 * hid) {}

  std::vector<Matrix> ForwardSequence(const std::vector<Matrix>& xs) {
    cache.clear();
    cache.reserve(xs.size());
    std::vector<Matrix> hs;
    hs.reserve(xs.size());
    size_t batch = xs[0].rows();
    Matrix h(batch, hidden), c(batch, hidden);
    for (const Matrix& x : xs) {
      StepCache sc;
      sc.x = x;
      sc.h_prev = h;
      sc.c_prev = c;
      Matrix z = LegacyMatMul(x, wx);
      z.Add(LegacyMatMul(h, wh));
      z.AddRowVector(b);
      sc.i = Matrix(batch, hidden);
      sc.f = Matrix(batch, hidden);
      sc.g = Matrix(batch, hidden);
      sc.o = Matrix(batch, hidden);
      for (size_t r = 0; r < batch; ++r) {
        const double* zr = z.row(r);
        for (size_t j = 0; j < hidden; ++j) {
          sc.i(r, j) = Sigmoid(zr[j]);
          sc.f(r, j) = Sigmoid(zr[hidden + j]);
          sc.g(r, j) = std::tanh(zr[2 * hidden + j]);
          sc.o(r, j) = Sigmoid(zr[3 * hidden + j]);
        }
      }
      sc.c = Matrix(batch, hidden);
      sc.tanh_c = Matrix(batch, hidden);
      Matrix h_new(batch, hidden);
      for (size_t r = 0; r < batch; ++r) {
        for (size_t j = 0; j < hidden; ++j) {
          sc.c(r, j) = sc.f(r, j) * c(r, j) + sc.i(r, j) * sc.g(r, j);
          sc.tanh_c(r, j) = std::tanh(sc.c(r, j));
          h_new(r, j) = sc.o(r, j) * sc.tanh_c(r, j);
        }
      }
      c = sc.c;
      h = h_new;
      hs.push_back(h);
      cache.push_back(std::move(sc));
    }
    return hs;
  }

  std::vector<Matrix> BackwardSequence(const std::vector<Matrix>& grad_hs) {
    size_t steps = cache.size();
    std::vector<Matrix> dxs(steps);
    size_t batch = cache[0].x.rows();
    Matrix dh_next(batch, hidden);
    Matrix dc_next(batch, hidden);
    for (size_t t = steps; t-- > 0;) {
      const StepCache& sc = cache[t];
      Matrix dh = grad_hs[t];
      dh.Add(dh_next);
      Matrix do_gate(batch, hidden), dc(batch, hidden);
      for (size_t r = 0; r < batch; ++r) {
        for (size_t j = 0; j < hidden; ++j) {
          double tc = sc.tanh_c(r, j);
          do_gate(r, j) = dh(r, j) * tc;
          dc(r, j) = dh(r, j) * sc.o(r, j) * (1.0 - tc * tc) + dc_next(r, j);
        }
      }
      Matrix di(batch, hidden), df(batch, hidden), dg(batch, hidden);
      Matrix dc_prev(batch, hidden);
      for (size_t r = 0; r < batch; ++r) {
        for (size_t j = 0; j < hidden; ++j) {
          di(r, j) = dc(r, j) * sc.g(r, j);
          df(r, j) = dc(r, j) * sc.c_prev(r, j);
          dg(r, j) = dc(r, j) * sc.i(r, j);
          dc_prev(r, j) = dc(r, j) * sc.f(r, j);
        }
      }
      Matrix dz(batch, 4 * hidden);
      for (size_t r = 0; r < batch; ++r) {
        for (size_t j = 0; j < hidden; ++j) {
          double iv = sc.i(r, j), fv = sc.f(r, j), gv = sc.g(r, j),
                 ov = sc.o(r, j);
          dz(r, j) = di(r, j) * iv * (1.0 - iv);
          dz(r, hidden + j) = df(r, j) * fv * (1.0 - fv);
          dz(r, 2 * hidden + j) = dg(r, j) * (1.0 - gv * gv);
          dz(r, 3 * hidden + j) = do_gate(r, j) * ov * (1.0 - ov);
        }
      }
      dwx.Add(LegacyTransposeMatMul(sc.x, dz));
      dwh.Add(LegacyTransposeMatMul(sc.h_prev, dz));
      db.Add(dz.ColSum());
      dxs[t] = LegacyMatMulTranspose(dz, wx);
      dh_next = LegacyMatMulTranspose(dz, wh);
      dc_next = dc_prev;
    }
    return dxs;
  }
};

struct EpochResult {
  int reps = 0;
  int batches = 0;
  int seq_passes = 0;
  size_t batch = 0, steps = 0, hidden = 0;
  double naive_ms = 0.0;
  double fused_ms = 0.0;
  double speedup = 0.0;
};

// One WFGAN training batch runs the generator trunk fwd+bwd once and the
// discriminator trunk fwd+bwd three times (two D-step passes, one G-step
// pass); both trunks are the same LSTM shape, so a batch is 4 sequence
// passes through an LSTM(1, hidden).
EpochResult RunWfganEpochCase(bool smoke, Rng* rng) {
  EpochResult r;
  r.batch = 32;
  r.steps = 30;  // paper window
  r.hidden = 30;
  r.seq_passes = 4;
  r.batches = smoke ? 2 : 16;  // full: ~500 samples / batch 32
  r.reps = smoke ? 1 : 3;

  std::vector<Matrix> xs, grads;
  for (size_t t = 0; t < r.steps; ++t) {
    xs.push_back(RandomMatrix(r.batch, 1, rng));
    grads.push_back(RandomMatrix(r.batch, r.hidden, rng));
  }

  double sink = 0.0;
  LegacyLstm legacy(1, r.hidden, rng);
  // Warm one pass so both sides start with faulted-in pages.
  sink += legacy.ForwardSequence(xs)[0].data()[0];
  double t0 = NowSeconds();
  for (int rep = 0; rep < r.reps; ++rep) {
    for (int bi = 0; bi < r.batches; ++bi) {
      for (int p = 0; p < r.seq_passes; ++p) {
        auto hs = legacy.ForwardSequence(xs);
        auto dxs = legacy.BackwardSequence(grads);
        sink += hs.back().data()[0] + dxs[0].data()[0];
      }
    }
  }
  double t1 = NowSeconds();

  nn::LSTM fused(1, r.hidden, rng);
  fused.ForwardSequence(xs);
  fused.BackwardSequence(grads);
  double t2 = NowSeconds();
  for (int rep = 0; rep < r.reps; ++rep) {
    for (int bi = 0; bi < r.batches; ++bi) {
      for (int p = 0; p < r.seq_passes; ++p) {
        const std::vector<Matrix>& hs = fused.ForwardSequence(xs);
        const std::vector<Matrix>& dxs = fused.BackwardSequence(grads);
        sink += hs.back().data()[0] + dxs[0].data()[0];
      }
    }
  }
  double t3 = NowSeconds();

  if (sink == 12345.6789) std::fprintf(stderr, "~");
  r.naive_ms = (t1 - t0) * 1e3 / r.reps;
  r.fused_ms = (t3 - t2) * 1e3 / r.reps;
  r.speedup = r.fused_ms > 0.0 ? r.naive_ms / r.fused_ms : 0.0;
  return r;
}

void WriteJson(std::FILE* out, bool smoke,
               const std::vector<CaseResult>& cases, const EpochResult& ep) {
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"benchmark\": \"nn_kernels\",\n");
  std::fprintf(out, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(out, "  \"threads\": 1,\n");
  WriteSimdProvenance(out);
  std::fprintf(out, "  \"kernels\": [\n");
  for (size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"m\": %zu, \"k\": %zu, \"n\": %zu, "
                 "\"reps\": %d, \"naive_ns\": %.1f, \"fused_ns\": %.1f, "
                 "\"speedup\": %.3f}%s\n",
                 c.name.c_str(), c.m, c.k, c.n, c.reps, c.naive_ns, c.fused_ns,
                 c.speedup, i + 1 < cases.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"wfgan_lstm_epoch\": {\"batch\": %zu, \"steps\": %zu, "
               "\"hidden\": %zu, \"batches\": %d, \"seq_passes\": %d, "
               "\"reps\": %d, \"naive_ms\": %.2f, \"fused_ms\": %.2f, "
               "\"speedup\": %.3f}\n",
               ep.batch, ep.steps, ep.hidden, ep.batches, ep.seq_passes,
               ep.reps, ep.naive_ms, ep.fused_ms, ep.speedup);
  std::fprintf(out, "}\n");
}

int Main(int argc, char** argv) {
  bool smoke = false;
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: nn_kernels [--smoke] [--out FILE]\n");
      return 2;
    }
  }

  Rng rng(20230817);
  std::vector<CaseResult> cases;
  for (const KernelCase& kc : kKernelCases) {
    cases.push_back(RunKernelCase(kc, smoke, &rng));
    std::fprintf(stderr, "%-18s naive %10.0f ns  fused %10.0f ns  %5.2fx\n",
                 cases.back().name.c_str(), cases.back().naive_ns,
                 cases.back().fused_ns, cases.back().speedup);
  }
  EpochResult ep = RunWfganEpochCase(smoke, &rng);
  std::fprintf(stderr, "wfgan_lstm_epoch   naive %10.2f ms  fused %10.2f ms  %5.2fx\n",
               ep.naive_ms, ep.fused_ms, ep.speedup);

  std::FILE* out = stdout;
  if (out_path != nullptr) {
    out = std::fopen(out_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", out_path);
      return 1;
    }
  }
  WriteJson(out, smoke, cases, ep);
  if (out != stdout) std::fclose(out);
  return 0;
}

}  // namespace
}  // namespace dbaugur::bench

int main(int argc, char** argv) { return dbaugur::bench::Main(argc, argv); }
