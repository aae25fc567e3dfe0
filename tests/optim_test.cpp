// Optimizer and LR-schedule tests.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "nn/linear.hpp"
#include "optim/lr_schedule.hpp"
#include "optim/optimizer.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

namespace dstee {
namespace {

nn::Parameter make_param(std::initializer_list<float> values,
                         bool sparsifiable = true) {
  nn::Parameter p("p", tensor::Shape({values.size()}), sparsifiable);
  std::size_t i = 0;
  for (const float v : values) p.value[i++] = v;
  return p;
}

TEST(Sgd, PlainStepIsGradientDescent) {
  nn::Parameter p = make_param({1.0f, 2.0f});
  p.grad()[0] = 0.5f;
  p.grad()[1] = -1.0f;
  optim::Sgd::Config cfg;
  cfg.lr = 0.1;
  cfg.momentum = 0.0;
  optim::Sgd opt({&p}, cfg);
  opt.step();
  EXPECT_NEAR(p.value[0], 1.0f - 0.1f * 0.5f, 1e-6);
  EXPECT_NEAR(p.value[1], 2.0f + 0.1f * 1.0f, 1e-6);
}

TEST(Sgd, MomentumAccumulates) {
  nn::Parameter p = make_param({0.0f});
  optim::Sgd::Config cfg;
  cfg.lr = 1.0;
  cfg.momentum = 0.5;
  optim::Sgd opt({&p}, cfg);
  p.grad()[0] = 1.0f;
  opt.step();  // v=1, w=-1
  EXPECT_NEAR(p.value[0], -1.0f, 1e-6);
  p.grad()[0] = 1.0f;
  opt.step();  // v=1.5, w=-2.5
  EXPECT_NEAR(p.value[0], -2.5f, 1e-6);
}

TEST(Sgd, NesterovLookahead) {
  nn::Parameter p = make_param({0.0f});
  optim::Sgd::Config cfg;
  cfg.lr = 1.0;
  cfg.momentum = 0.5;
  cfg.nesterov = true;
  optim::Sgd opt({&p}, cfg);
  p.grad()[0] = 1.0f;
  opt.step();  // v=1; update = g + mu*v = 1.5
  EXPECT_NEAR(p.value[0], -1.5f, 1e-6);
}

TEST(Sgd, WeightDecayAppliesToSparsifiableOnly) {
  nn::Parameter w = make_param({1.0f}, /*sparsifiable=*/true);
  nn::Parameter b = make_param({1.0f}, /*sparsifiable=*/false);
  optim::Sgd::Config cfg;
  cfg.lr = 0.1;
  cfg.momentum = 0.0;
  cfg.weight_decay = 1.0;
  optim::Sgd opt({&w, &b}, cfg);
  opt.step();  // grads are zero → only decay acts
  EXPECT_NEAR(w.value[0], 1.0f - 0.1f, 1e-6);
  EXPECT_NEAR(b.value[0], 1.0f, 1e-6);
}

TEST(Sgd, ResetStateClearsMomentumEntry) {
  nn::Parameter p = make_param({0.0f, 0.0f});
  optim::Sgd::Config cfg;
  cfg.lr = 1.0;
  cfg.momentum = 0.9;
  optim::Sgd opt({&p}, cfg);
  p.grad()[0] = 1.0f;
  p.grad()[1] = 1.0f;
  opt.step();
  opt.reset_state_at(0, 0);  // kill momentum on element 0
  p.grad()[0] = 0.0f;
  p.grad()[1] = 0.0f;
  const float before0 = p.value[0], before1 = p.value[1];
  opt.step();  // element 1 still coasts on momentum, element 0 does not
  EXPECT_EQ(p.value[0], before0);
  EXPECT_LT(p.value[1], before1);
}

TEST(Sgd, LearningRateSetter) {
  nn::Parameter p = make_param({0.0f});
  optim::Sgd::Config cfg;
  cfg.lr = 0.1;
  optim::Sgd opt({&p}, cfg);
  opt.set_learning_rate(0.01);
  EXPECT_DOUBLE_EQ(opt.learning_rate(), 0.01);
}

TEST(Sgd, ConvergesOnQuadratic) {
  // minimize (w - 3)^2 — gradient 2(w-3)
  nn::Parameter p = make_param({0.0f});
  optim::Sgd::Config cfg;
  cfg.lr = 0.1;
  cfg.momentum = 0.9;
  optim::Sgd opt({&p}, cfg);
  for (int i = 0; i < 200; ++i) {
    p.grad()[0] = 2.0f * (p.value[0] - 3.0f);
    opt.step();
  }
  EXPECT_NEAR(p.value[0], 3.0f, 1e-2);
}

TEST(Adam, ConvergesOnQuadratic) {
  nn::Parameter p = make_param({0.0f});
  optim::Adam::Config cfg;
  cfg.lr = 0.1;
  optim::Adam opt({&p}, cfg);
  for (int i = 0; i < 300; ++i) {
    p.grad()[0] = 2.0f * (p.value[0] + 5.0f);
    opt.step();
  }
  EXPECT_NEAR(p.value[0], -5.0f, 5e-2);
}

TEST(Adam, FirstStepIsLrSized) {
  nn::Parameter p = make_param({0.0f});
  optim::Adam::Config cfg;
  cfg.lr = 0.01;
  optim::Adam opt({&p}, cfg);
  p.grad()[0] = 123.0f;  // Adam normalizes magnitude away on step 1
  opt.step();
  EXPECT_NEAR(p.value[0], -0.01f, 1e-4);
}

TEST(Adam, ResetStateClearsMoments) {
  nn::Parameter p = make_param({0.0f});
  optim::Adam::Config cfg;
  optim::Adam opt({&p}, cfg);
  p.grad()[0] = 1.0f;
  opt.step();
  opt.reset_state_at(0, 0);
  p.grad()[0] = 0.0f;
  const float before = p.value[0];
  opt.step();
  EXPECT_EQ(p.value[0], before);
}

TEST(Optimizer, RejectsEmptyOrNullParams) {
  optim::Sgd::Config cfg;
  EXPECT_THROW(optim::Sgd({}, cfg), util::CheckError);
  EXPECT_THROW(optim::Sgd({nullptr}, cfg), util::CheckError);
}

TEST(LrSchedule, ConstantIsConstant) {
  optim::ConstantLr s(0.1);
  EXPECT_DOUBLE_EQ(s.lr_at(0), 0.1);
  EXPECT_DOUBLE_EQ(s.lr_at(99999), 0.1);
  EXPECT_THROW(optim::ConstantLr(0.0), util::CheckError);
}

TEST(LrSchedule, StepDecays) {
  optim::StepLr s(1.0, 10, 0.5);
  EXPECT_DOUBLE_EQ(s.lr_at(0), 1.0);
  EXPECT_DOUBLE_EQ(s.lr_at(9), 1.0);
  EXPECT_DOUBLE_EQ(s.lr_at(10), 0.5);
  EXPECT_DOUBLE_EQ(s.lr_at(25), 0.25);
}

TEST(LrSchedule, CosineEndpoints) {
  optim::CosineAnnealingLr s(0.1, 100);
  EXPECT_NEAR(s.lr_at(0), 0.1, 1e-12);
  EXPECT_NEAR(s.lr_at(50), 0.05, 1e-9);
  EXPECT_NEAR(s.lr_at(100), 0.0, 1e-12);
  EXPECT_NEAR(s.lr_at(500), 0.0, 1e-12);  // clamps past the horizon
}

TEST(LrSchedule, CosineWithFloor) {
  optim::CosineAnnealingLr s(0.1, 100, 0.01);
  EXPECT_NEAR(s.lr_at(100), 0.01, 1e-12);
  EXPECT_GT(s.lr_at(50), 0.01);
}

TEST(LrSchedule, CosineIsMonotoneNonincreasing) {
  optim::CosineAnnealingLr s(0.1, 1000);
  double prev = s.lr_at(0);
  for (std::size_t t = 1; t <= 1000; t += 50) {
    const double cur = s.lr_at(t);
    EXPECT_LE(cur, prev + 1e-12);
    prev = cur;
  }
}

TEST(LrSchedule, WarmupRampsThenDelegates) {
  auto inner = std::make_unique<optim::ConstantLr>(0.1);
  optim::WarmupLr s(std::move(inner), 10);
  EXPECT_NEAR(s.lr_at(0), 0.01, 1e-9);
  EXPECT_NEAR(s.lr_at(4), 0.05, 1e-9);
  EXPECT_NEAR(s.lr_at(10), 0.1, 1e-9);
  EXPECT_NEAR(s.lr_at(1000), 0.1, 1e-9);
}

TEST(LrSchedule, InvalidConfigsThrow) {
  EXPECT_THROW(optim::CosineAnnealingLr(0.1, 0), util::CheckError);
  EXPECT_THROW(optim::CosineAnnealingLr(0.1, 10, 0.2), util::CheckError);
  EXPECT_THROW(optim::StepLr(1.0, 0, 0.5), util::CheckError);
  EXPECT_THROW(optim::WarmupLr(nullptr, 5), util::CheckError);
}

}  // namespace
}  // namespace dstee
