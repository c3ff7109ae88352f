#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "nn/mlp.hpp"
#include "nn/vecmath.hpp"
#include "util/rng.hpp"

namespace dosc::nn {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, util::Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.normal(0.0, 1.0);
  return m;
}

TEST(Mlp, ShapesAndConstruction) {
  Mlp net({4, 8, 3}, Activation::kTanh, Activation::kLinear, 1);
  EXPECT_EQ(net.input_size(), 4u);
  EXPECT_EQ(net.output_size(), 3u);
  EXPECT_EQ(net.layers().size(), 2u);
  EXPECT_EQ(net.num_parameters(), 4u * 8 + 8 + 8 * 3 + 3);
  EXPECT_THROW(Mlp({4}, Activation::kTanh, Activation::kLinear, 1), std::invalid_argument);
}

TEST(Mlp, ForwardMatchesPredict) {
  util::Rng rng(3);
  Mlp net({5, 7, 2}, Activation::kTanh, Activation::kLinear, 7);
  const Matrix x = random_matrix(4, 5, rng);
  const Matrix a = net.forward(x);
  const Matrix b = net.predict(x);
  ASSERT_EQ(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a.data()[i], b.data()[i]);
}

TEST(Mlp, PredictRowMatchesPredict) {
  util::Rng rng(4);
  Mlp net({6, 9, 4}, Activation::kTanh, Activation::kLinear, 11);
  const Matrix x = random_matrix(3, 6, rng);
  const Matrix full = net.predict(x);
  Mlp::Scratch scratch;
  std::vector<double> out;
  for (std::size_t r = 0; r < 3; ++r) {
    net.predict_row(x.row(r), out, scratch);
    ASSERT_EQ(out.size(), 4u);
    for (std::size_t j = 0; j < 4; ++j) EXPECT_NEAR(out[j], full(r, j), 1e-12);
  }
  EXPECT_THROW(net.predict_row(std::vector<double>(5), out, scratch), std::invalid_argument);
}

TEST(Mlp, PredictBatchBitIdenticalToPredictAndPredictRow) {
  // predict_batch runs one row on the GEMV kernels and a block on one GEMM
  // per layer; every row must equal predict() and predict_row() exactly
  // whichever kernel served it. The batched rollout's and the serving
  // daemon's decision equivalence rests on exact equality here, not
  // approximate. Inputs: a small tanh net, and the paper's 2x256 tanh
  // actor (Sec. V-A2) at Abilene's obs 16 / 4 actions and at degree 7's
  // obs 32 / 8 actions; 3-9 rows cover every edge-tile height of the GEMM.
  const std::vector<std::size_t> specs[] = {{6, 9, 5, 4}, {16, 256, 256, 4}, {32, 256, 256, 8}};
  util::Rng rng(5);
  for (const std::vector<std::size_t>& sizes : specs) {
    const Mlp net(sizes, Activation::kTanh, Activation::kLinear, 13);
    const std::size_t in = net.input_size();
    const std::size_t out_dim = net.output_size();
    for (const std::size_t batch : {1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 64}) {
      const std::string label =
          "in " + std::to_string(in) + " batch " + std::to_string(batch);
      const Matrix x = random_matrix(batch, in, rng);
      const Matrix full = net.predict(x);

      Mlp::Scratch scratch;
      std::vector<double> out;
      const std::size_t gemv_rows = net.predict_batch(x.data(), batch, out, scratch);
      EXPECT_EQ(gemv_rows, batch == 1 ? 1u : 0u) << label;
      ASSERT_EQ(out.size(), batch * out_dim) << label;
      for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i], full.data()[i]) << label << " element " << i;
      }

      Mlp::Scratch row_scratch;
      std::vector<double> row_out;
      for (std::size_t r = 0; r < batch; ++r) {
        net.predict_row(x.row(r), row_out, row_scratch);
        for (std::size_t j = 0; j < out_dim; ++j) {
          EXPECT_EQ(row_out[j], out[r * out_dim + j]) << label << " row " << r;
        }
      }
    }
  }
}

TEST(Mlp, PredictBatchReusesScratchWithoutCrosstalk) {
  // One scratch serves both kernels: a wide GEMM block, a narrower one and
  // a single GEMV row in turn, each equal to predict().
  util::Rng rng(6);
  Mlp net({4, 8, 3}, Activation::kTanh, Activation::kLinear, 2);
  Mlp::Scratch scratch;
  std::vector<double> out;
  for (const std::size_t batch : {32, 3, 1}) {
    const Matrix x = random_matrix(batch, 4, rng);
    net.predict_batch(x.data(), batch, out, scratch);
    const Matrix expect = net.predict(x);
    ASSERT_EQ(out.size(), batch * 3u);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], expect.data()[i]) << "batch " << batch;
    }
  }
}

class MlpGradientCheck : public ::testing::TestWithParam<Activation> {};

TEST_P(MlpGradientCheck, NumericalGradientsMatchBackprop) {
  // Central-difference check of d(loss)/d(theta) where loss = sum(out * g)
  // for a fixed random g, so d(loss)/d(out) = g.
  util::Rng rng(5);
  Mlp net({3, 6, 5, 2}, GetParam(), Activation::kLinear, 17);
  const Matrix x = random_matrix(4, 3, rng);
  const Matrix g = random_matrix(4, 2, rng);

  net.zero_grad();
  net.forward(x);
  net.backward(g);

  std::vector<double> params = net.get_parameters();
  // Collect analytic grads in flat order (weights then bias per layer).
  std::vector<double> analytic;
  for (const DenseLayer& layer : net.layers()) {
    analytic.insert(analytic.end(), layer.grad_weights.data(),
                    layer.grad_weights.data() + layer.grad_weights.size());
    analytic.insert(analytic.end(), layer.grad_bias.data(),
                    layer.grad_bias.data() + layer.grad_bias.size());
  }
  ASSERT_EQ(analytic.size(), params.size());

  const double eps = 1e-6;
  util::Rng pick(6);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t i = static_cast<std::size_t>(
        pick.uniform_int(0, static_cast<std::int64_t>(params.size()) - 1));
    std::vector<double> plus = params;
    std::vector<double> minus = params;
    plus[i] += eps;
    minus[i] -= eps;
    net.set_parameters(plus);
    const Matrix out_plus = net.predict(x);
    net.set_parameters(minus);
    const Matrix out_minus = net.predict(x);
    double loss_plus = 0.0;
    double loss_minus = 0.0;
    for (std::size_t k = 0; k < out_plus.size(); ++k) {
      loss_plus += out_plus.data()[k] * g.data()[k];
      loss_minus += out_minus.data()[k] * g.data()[k];
    }
    const double numeric = (loss_plus - loss_minus) / (2.0 * eps);
    EXPECT_NEAR(numeric, analytic[i], 1e-4 * std::max(1.0, std::abs(analytic[i])))
        << "parameter " << i;
  }
  net.set_parameters(params);
}

INSTANTIATE_TEST_SUITE_P(Activations, MlpGradientCheck,
                         ::testing::Values(Activation::kTanh, Activation::kLinear),
                         [](const auto& info) {
                           return info.param == Activation::kTanh ? "tanh" : "linear";
                         });

TEST(Mlp, BackwardWithoutForwardThrows) {
  Mlp net({2, 3, 1}, Activation::kTanh, Activation::kLinear, 1);
  EXPECT_THROW(net.backward(Matrix(1, 1)), std::logic_error);
}

TEST(Mlp, GradAccumulatesAcrossBackward) {
  util::Rng rng(8);
  Mlp net({2, 3, 1}, Activation::kTanh, Activation::kLinear, 2);
  const Matrix x = random_matrix(2, 2, rng);
  const Matrix g = random_matrix(2, 1, rng);
  net.zero_grad();
  net.forward(x);
  net.backward(g);
  const double norm_once = net.grad_norm();
  net.forward(x);
  net.backward(g);
  EXPECT_NEAR(net.grad_norm(), 2.0 * norm_once, 1e-9);
  net.zero_grad();
  EXPECT_DOUBLE_EQ(net.grad_norm(), 0.0);
}

TEST(Mlp, ClipGradNorm) {
  util::Rng rng(9);
  Mlp net({2, 4, 2}, Activation::kTanh, Activation::kLinear, 3);
  net.zero_grad();
  net.forward(random_matrix(8, 2, rng));
  net.backward(random_matrix(8, 2, rng));
  net.clip_grad_norm(0.1);
  EXPECT_LE(net.grad_norm(), 0.1 + 1e-9);
  // Clipping below the current norm is a no-op.
  const double before = net.grad_norm();
  net.clip_grad_norm(10.0);
  EXPECT_DOUBLE_EQ(net.grad_norm(), before);
}

TEST(Mlp, ParameterRoundTrip) {
  Mlp a({3, 5, 2}, Activation::kTanh, Activation::kLinear, 21);
  Mlp b({3, 5, 2}, Activation::kTanh, Activation::kLinear, 99);
  b.set_parameters(a.get_parameters());
  util::Rng rng(10);
  const Matrix x = random_matrix(2, 3, rng);
  const Matrix ya = a.predict(x);
  const Matrix yb = b.predict(x);
  for (std::size_t i = 0; i < ya.size(); ++i) EXPECT_DOUBLE_EQ(ya.data()[i], yb.data()[i]);
  EXPECT_THROW(b.set_parameters(std::vector<double>(3)), std::invalid_argument);
}

TEST(Mlp, DeterministicInitialisationPerSeed) {
  Mlp a({3, 4, 2}, Activation::kTanh, Activation::kLinear, 5);
  Mlp b({3, 4, 2}, Activation::kTanh, Activation::kLinear, 5);
  const auto pa = a.get_parameters();
  const auto pb = b.get_parameters();
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_DOUBLE_EQ(pa[i], pb[i]);
}

TEST(Mlp, ForwardBackwardBitIdenticalToReferenceKernels) {
  // The workspace-reusing forward/backward must reproduce the seed's
  // algorithm exactly: recompute both passes here with the naive *_reference
  // GEMM kernels (bit-identical to the tiled ones by the determinism
  // contract) and the same activation/bias loops, and require equality down
  // to the last bit.
  util::Rng rng(31);
  Mlp net({6, 16, 9, 3}, Activation::kTanh, Activation::kLinear, 77);
  const Matrix x = random_matrix(11, 6, rng);
  const Matrix g = random_matrix(11, 3, rng);
  net.zero_grad();
  const Matrix& out = net.forward(x);
  const Matrix& grad_in = net.backward(g);

  auto identical = [](const Matrix& a, const Matrix& b) {
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };

  // Forward, layer by layer.
  std::vector<Matrix> inputs;
  std::vector<Matrix> outputs;
  Matrix h = x;
  for (const DenseLayer& layer : net.layers()) {
    inputs.push_back(h);
    Matrix z = matmul_reference(h, layer.weights);
    add_row_vector(z, layer.bias);
    if (layer.activation == Activation::kTanh) {
      // The project tanh kernel, not std::tanh: forward() dispatches through
      // nn::vecmath and the reference must apply the identical function.
      nn::vecmath::tanh_inplace(z.data(), z.size());
    }
    outputs.push_back(z);
    h = z;
  }
  EXPECT_TRUE(identical(out, outputs.back()));

  // Backward, layer by layer.
  Matrix grad = g;
  for (std::size_t li = net.layers().size(); li-- > 0;) {
    const DenseLayer& layer = net.layers()[li];
    if (layer.activation == Activation::kTanh) {
      for (std::size_t i = 0; i < grad.size(); ++i) {
        const double y = outputs[li].data()[i];
        grad.data()[i] *= (1.0 - y * y);
      }
    }
    EXPECT_TRUE(identical(layer.grad_weights, matmul_tn_reference(inputs[li], grad)))
        << "grad_weights layer " << li;
    EXPECT_TRUE(identical(layer.grad_bias, column_sums(grad))) << "grad_bias layer " << li;
    if (li > 0) grad = matmul_nt_reference(grad, layer.weights);
  }
  // backward() returns the FIRST layer's pre-activation gradient, i.e. the
  // loop state after applying layer 0's activation derivative.
  EXPECT_TRUE(identical(grad_in, grad));
}

TEST(Mlp, ConcurrentPredictCallersAgreeWithSerial) {
  // predict() and predict_row() are const and documented thread-safe:
  // concurrent callers of one network (the serving workers, evaluate_policy's
  // episode workers) must all produce the serial results bit for bit.
  util::Rng rng(32);
  Mlp net({8, 32, 32, 4}, Activation::kTanh, Activation::kLinear, 55);
  const Matrix x = random_matrix(40, 8, rng);
  const Matrix serial = net.predict(x);

  constexpr int kCallers = 4;
  std::vector<int> ok(kCallers, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kCallers; ++t) {
    threads.emplace_back([&, t] {
      Mlp::Scratch scratch;
      std::vector<double> row_out;
      bool good = true;
      for (int iter = 0; iter < 25 && good; ++iter) {
        const Matrix y = net.predict(x);
        good = y.rows() == serial.rows() && y.cols() == serial.cols() &&
               std::memcmp(y.data(), serial.data(), y.size() * sizeof(double)) == 0;
        net.predict_row(x.row(static_cast<std::size_t>(iter) % x.rows()), row_out, scratch);
        for (std::size_t j = 0; j < row_out.size() && good; ++j) {
          good = std::abs(row_out[j] -
                          serial(static_cast<std::size_t>(iter) % x.rows(), j)) < 1e-12;
        }
      }
      ok[t] = good ? 1 : 0;
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kCallers; ++t) EXPECT_EQ(ok[t], 1) << "caller " << t;
}

TEST(Mlp, TanhOutputsBounded) {
  util::Rng rng(11);
  Mlp net({4, 8, 8}, Activation::kTanh, Activation::kTanh, 13);
  const Matrix y = net.predict(random_matrix(16, 4, rng));
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_GE(y.data()[i], -1.0);
    EXPECT_LE(y.data()[i], 1.0);
  }
}

}  // namespace
}  // namespace dosc::nn
