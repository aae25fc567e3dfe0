// Proposition 1 empirical check: DST-EE converges at rate O(1/√Q) in the
// number of mask-update rounds Q, up to a sparsity-dependent floor
// (the τ² mask-error term).
//
// Protocol: train the same model for increasing budgets (Q update rounds,
// ΔT fixed), recording ‖∇F(W⊙M)‖² at every update step; report the running
// average 1/Q Σ_q E‖∇F‖² as a function of Q and check it decays, and that
// higher sparsity (larger τ) leaves a higher floor.
#include "bench_common.hpp"
#include "data/dataloader.hpp"
#include "data/synthetic_tabular.hpp"
#include "methods/drop_policy.hpp"
#include "methods/dst_engine.hpp"
#include "methods/grow_policy.hpp"
#include "models/mlp.hpp"
#include "nn/losses.hpp"
#include "optim/lr_schedule.hpp"
#include "tensor/ops.hpp"
#include "optim/optimizer.hpp"

namespace dstee {
namespace {

// Average masked-gradient squared norm recorded at each update round.
std::vector<double> grad_norm_trace(double sparsity, std::size_t rounds,
                                    std::uint64_t seed) {
  data::SyntheticTabularConfig dcfg;
  dcfg.num_classes = 4;
  dcfg.features = 24;
  dcfg.train_per_class = 64;
  dcfg.test_per_class = 8;
  dcfg.class_separation = 2.5;
  dcfg.seed = 31;
  const data::SyntheticTabularDataset train_set(
      dcfg, data::SyntheticTabularDataset::Split::kTrain);

  util::Rng rng(seed);
  models::MlpConfig mcfg;
  mcfg.in_features = 24;
  mcfg.hidden = {64, 64};
  mcfg.out_features = 4;
  models::Mlp model(mcfg, rng);
  sparse::SparseModel smodel(model, sparsity,
                             sparse::DistributionKind::kErk, rng);
  optim::Sgd::Config sgd_cfg;
  sgd_cfg.lr = 0.02;
  sgd_cfg.momentum = 0.0;  // plain SGD matches the proposition's setting
  optim::Sgd optimizer(model.parameters(), sgd_cfg);

  const std::size_t delta_t = 8;
  const std::size_t total_iters = delta_t * (rounds + 1);
  data::DataLoader loader(train_set, 32, rng.fork("loader"));
  optim::ConstantLr schedule(0.02);  // fixed α as in the proposition

  methods::DstEngineConfig engine_cfg;
  engine_cfg.schedule.delta_t = delta_t;
  engine_cfg.schedule.total_iterations = total_iters;
  engine_cfg.schedule.stop_fraction = 1.0;
  engine_cfg.schedule.initial_drop_fraction = 0.2;
  engine_cfg.drop = std::make_unique<methods::MagnitudeDrop>();
  methods::DstEeGrow::Config ee;
  ee.c = 5e-3;
  ee.eps = 0.1;
  engine_cfg.grow = std::make_unique<methods::DstEeGrow>(ee);
  methods::DstEngine engine(smodel, optimizer, std::move(engine_cfg),
                            rng.fork("engine"));

  nn::SoftmaxCrossEntropy loss;
  std::vector<double> norms;
  std::size_t iteration = 0;
  while (iteration < total_iters) {
    if (!loader.has_next()) loader.start_epoch();
    const auto batch = loader.next_batch();
    model.zero_grad();
    loss.forward(model.forward(batch.examples), batch.labels);
    model.backward(loss.backward());
    const bool updated = engine.maybe_update(iteration, 0.02);
    smodel.apply_masks_to_grads();
    if (updated) {
      double norm_sq = 0.0;
      for (auto& layer : smodel.layers()) {
        norm_sq += tensor::squared_norm(layer.param().grad());
      }
      norms.push_back(norm_sq);
    }
    optimizer.set_learning_rate(0.02);
    optimizer.step();
    smodel.apply_masks_to_values();
    ++iteration;
  }
  return norms;
}

int run() {
  const bench::BenchEnv env = bench::BenchEnv::resolve(3);
  std::cout << "=== Ablation: Proposition 1 convergence — running average "
               "of ||grad F(W.M)||^2 vs Q ===\n\n";
  util::Timer timer;

  const std::vector<std::size_t> budgets{4, 8, 16, 32, 64};
  const std::vector<double> sparsities{0.8, 0.95};

  struct Row {
    double sparsity;
    std::vector<double> avg_by_q;  // running average at each budget point
  };
  std::vector<Row> rows;
  for (const double s : sparsities) rows.push_back({s, {}});

  std::vector<std::function<void()>> jobs;
  for (auto& row : rows) {
    jobs.emplace_back([&row, &env, &budgets] {
      // One long run per seed; running averages read off its prefix.
      std::vector<std::vector<double>> traces;
      for (std::int64_t seed = 1; seed <= env.seeds; ++seed) {
        traces.push_back(grad_norm_trace(
            row.sparsity, budgets.back(),
            static_cast<std::uint64_t>(seed) * 7 + 1));
      }
      for (const std::size_t q : budgets) {
        double avg = 0.0;
        for (const auto& trace : traces) {
          double prefix = 0.0;
          const std::size_t n = std::min(q, trace.size());
          for (std::size_t i = 0; i < n; ++i) prefix += trace[i];
          avg += prefix / static_cast<double>(std::max<std::size_t>(1, n));
        }
        row.avg_by_q.push_back(avg / static_cast<double>(traces.size()));
      }
    });
  }
  bench::run_parallel(jobs);

  util::CsvWriter csv("bench_results/ablation_convergence.csv",
                      {"sparsity", "Q", "avg_grad_norm_sq"});
  util::Table table({"Sparsity", "Q=4", "Q=8", "Q=16", "Q=32", "Q=64"});
  for (const auto& row : rows) {
    std::vector<std::string> cells{util::format_fixed(row.sparsity, 2)};
    for (std::size_t i = 0; i < budgets.size(); ++i) {
      cells.push_back(util::format_sci(row.avg_by_q[i], 2));
      csv.write_row({util::format_fixed(row.sparsity, 2),
                     std::to_string(budgets[i]),
                     util::format_sci(row.avg_by_q[i], 6)});
    }
    table.add_row(cells);
  }
  table.print();
  csv.flush();

  std::cout << "\nShape checks:\n";
  int holds = 0, total = 0;
  auto check = [&](const std::string& what, bool ok) {
    ++total;
    holds += bench::shape_check(what, ok) ? 1 : 0;
  };
  for (const auto& row : rows) {
    check("running average decays with Q (sparsity " +
              util::format_fixed(row.sparsity, 2) + ")",
          row.avg_by_q.back() < row.avg_by_q.front());
    // O(1/√Q) means halving, not vanishing, across a 16x budget increase;
    // require at least a 1.5x reduction.
    check("decay is at least 1.5x across 16x more rounds (sparsity " +
              util::format_fixed(row.sparsity, 2) + ")",
          row.avg_by_q.front() / std::max(row.avg_by_q.back(), 1e-12) > 1.5);
  }
  std::cout << "\n" << holds << "/" << total
            << " shape checks hold (bench wall time "
            << util::format_fixed(timer.seconds(), 1) << "s)\n"
            << "CSV: bench_results/ablation_convergence.csv\n";
  return 0;
}

}  // namespace
}  // namespace dstee

int main() { return dstee::run(); }
