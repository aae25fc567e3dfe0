// Tests of the benchmark's own arithmetic: percentiles with their sample
// counts, best-half sub-window selection, self time, nesting, seeded
// schedules, failure accounting, and the continuity of the DST-EE delta
// chain the serving workloads swap in.
//
//   cmake --build .bench_build --target perfbench_test
//   ctest --test-dir .bench_build --output-on-failure
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <string>

#include "harness.hpp"
#include "models/mlp.hpp"
#include "serve/delta.hpp"
#include "serve/registry.hpp"
#include "sparse/sparse_model.hpp"
#include "train/checkpoint.hpp"
#include "util/check.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void expect(bool cond, const std::string& what) {
  if (!cond) {
    ++failures;
    std::cout << "FAIL: " << what << "\n";
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

using namespace perfbench;

void test_percentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  expect(near(percentile(v, 0.5), 50.5), "median of 1..100 is 50.5");
  expect(near(percentile(v, 0.99), 99.01), "p99 of 1..100 interpolates");
  expect(near(percentile(v, 0.0), 1.0) && near(percentile(v, 1.0), 100.0),
         "p0/p100 are the extremes");
  const Summary s = summarize(v);
  expect(s.n == 100 && s.beyond_p99 == 1 && near(s.max, 100.0),
         "summary counts the sample and the one value beyond p99");
  expect(summarize({}).n == 0 && percentile({}, 0.5) == 0.0,
         "an empty sample summarizes to zeros");
  std::vector<double> big(2000);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<double>(i);
  expect(summarize(big).beyond_p99 == 20,
         "2000 samples leave 20 beyond p99 (the guide's ten-sample rule)");
}

void test_least() {
  const std::vector<bool> q = least({0.5, 0.1, 0.3, 0.1, 0.9}, 2);
  expect(q == std::vector<bool>({false, true, false, true, false}),
         "the two lowest-cost sub-windows are kept, ties to the earlier");
  expect(least({0.2, 0.2, 0.2}, 2) == std::vector<bool>({true, true, false}),
         "equal cost keeps the earliest");
  expect(least({-610.0, -420.0, -590.0}, 2) ==
             std::vector<bool>({true, false, true}),
         "negated rates keep the fastest sub-windows");
  expect(least({0.1}, 5) == std::vector<bool>({true}),
         "keeping more than exist keeps all");
}

void test_self_time_and_nesting() {
  // parent [0,100]; children [10,30] and [20,50] overlap, [90,120] is
  // clipped to the parent: covered = [10,50] + [90,100] = 50.
  std::vector<Span> spans = {
      {1, 0, "parent", 0, 100, 0, 0},
      {2, 1, "a", 10, 30, 0, 0},
      {3, 1, "b", 20, 50, 0, 0},
      {4, 1, "c", 90, 120, 0, 0},
      {5, 2, "grandchild", 12, 20, 0, 0},
  };
  const std::vector<std::int64_t> self = self_times(spans);
  expect(self[0] == 50, "parent self time = duration - union of children");
  expect(self[1] == 12, "child self time excludes its own child");
  expect(self[2] == 30 && self[3] == 30, "leaf self time is its duration");

  expect(!check_nesting(spans).empty(),
         "a child poking out of its parent is a violation");
  spans[3].end_ns = 100;
  spans[2].end_ns = 30;
  expect(check_nesting(spans).empty(), "well-nested spans pass");
  // Siblings that partially overlap on one lane break the lane's nesting.
  spans[2].start_ns = 25;
  spans[2].end_ns = 40;
  expect(!check_nesting(spans).empty(), "partial overlap on a lane fails");
  // Tiled children leave zero self time.
  const std::vector<Span> tiled = {{1, 0, "step", 0, 30, 0, 0},
                                   {2, 1, "x", 0, 10, 0, 0},
                                   {3, 1, "y", 10, 30, 0, 0}};
  expect(self_times(tiled)[0] == 0 && check_nesting(tiled).empty(),
         "children sharing stamps tile their parent exactly");
}

void test_schedule() {
  const auto a = poisson_schedule(11, 4000.0, 10.0, 4, 32);
  const auto b = poisson_schedule(11, 4000.0, 10.0, 4, 32);
  const auto c = poisson_schedule(12, 4000.0, 10.0, 4, 32);
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].due_ns == b[i].due_ns && a[i].model == b[i].model &&
           a[i].payload == b[i].payload;
  }
  expect(same, "the same seed reproduces the schedule exactly");
  expect(c.size() != a.size() || c[0].due_ns != a[0].due_ns,
         "another seed gives another schedule");
  expect(a.size() > 39000 && a.size() < 41000,
         "4000/s for 10 s is about 40000 arrivals");
  bool ordered = true;
  std::vector<std::size_t> per_model(4, 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ordered = ordered && a[i].due_ns < 10'000'000'000LL && a[i].payload < 32 &&
              (i == 0 || a[i].due_ns >= a[i - 1].due_ns);
    ++per_model[a[i].model];
  }
  expect(ordered, "arrivals are ordered, in range, inside the window");
  for (std::size_t n : per_model) {
    expect(n > 9000 && n < 11000, "models are drawn uniformly");
  }
}

void test_tally() {
  Tally t;
  t.add(Outcome::kOk, 1.0, 1000.0);
  t.add(Outcome::kOk, 2.0, 1000.0);
  t.add(Outcome::kShed, 0.0, 1000.0);
  t.add(Outcome::kError, 0.0, 1000.0);
  t.add(Outcome::kMismatch, 3.0, 1000.0);
  expect(t.attempted == 5 && t.failed() == 3 && t.shed == 1 &&
             t.errors == 1 && t.mismatches == 1,
         "every attempt is counted once; shed, error and mismatch fail");
  expect(t.latencies_ms.size() == 5, "failures stay in the latency sample");
  expect(near(percentile(t.latencies_ms, 0.5), 1000.0),
         "with 3 of 5 failed the median is over the limit");
  Tally u;
  u.add(Outcome::kOk, 4.0, 1000.0);
  t.merge(u);
  expect(t.attempted == 6 && t.failed() == 3 && t.latencies_ms.size() == 6,
         "merging adds counts and samples");
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void test_delta_chain() {
  RunOptions o;
  o.workload = "mlp_fleet_swap";
  o.seed = 7;
  o.seconds = 1.6;  // 8 swaps over 4 models: a chain of 2 deltas each
  o.out_dir = "perfbench_test_out/a";
  std::filesystem::create_directories(o.out_dir);
  prepare_serving(o);
  RunOptions again = o;
  again.out_dir = "perfbench_test_out/b";
  std::filesystem::create_directories(again.out_dir);
  prepare_serving(again);
  expect(slurp(delta_path(o, 1, 2)) == slurp(delta_path(again, 1, 2)) &&
             slurp(ckpt_path(o, 3)) == slurp(ckpt_path(again, 3)),
         "prepared inputs are a pure function of the seed");

  // Serve model 0 from its checkpoint and walk its chain: delta k's base
  // is the served state after k-1 swaps, its result the state after k.
  const auto fresh = [&] {
    dstee::util::Rng rng(1);
    dstee::models::MlpConfig cfg;
    cfg.in_features = 256;
    cfg.hidden = {512, 512};
    cfg.out_features = 10;
    auto module = std::make_unique<dstee::models::Mlp>(cfg, rng);
    auto state = std::make_unique<dstee::sparse::SparseModel>(
        *module, 0.9, dstee::sparse::DistributionKind::kErk, rng);
    dstee::train::load_checkpoint(ckpt_path(o, 0), *module, state.get());
    module->set_training(false);
    auto registry = std::make_unique<dstee::serve::ModelRegistry>();
    registry->add_model("m", std::move(module), std::move(state));
    return registry;
  };
  auto registry = fresh();
  for (std::size_t k = 1; k <= 2; ++k) {
    const auto delta = dstee::serve::load_delta(delta_path(o, 0, k));
    expect(registry->state_hash("m") == delta.base_hash,
           "delta " + std::to_string(k) + " starts where the chain stands");
    registry->apply_delta("m", delta);
    expect(registry->state_hash("m") == delta.result_hash,
           "delta " + std::to_string(k) + " ends at its result hash");
  }
  registry->shutdown();

  // Skipping a link is refused and changes nothing.
  auto skipped = fresh();
  const std::uint64_t before = skipped->state_hash("m");
  bool threw = false;
  try {
    skipped->apply_delta("m", dstee::serve::load_delta(delta_path(o, 0, 2)));
  } catch (const dstee::util::CheckError&) {
    threw = true;
  }
  expect(threw && skipped->state_hash("m") == before,
         "a delta off the chain fails and leaves the model unchanged");
  skipped->shutdown();
  std::filesystem::remove_all("perfbench_test_out");
}

}  // namespace

int main() {
  test_percentiles();
  test_least();
  test_self_time_and_nesting();
  test_schedule();
  test_tally();
  test_delta_chain();
  if (failures == 0) std::cout << "perfbench_test: all checks passed\n";
  return failures == 0 ? 0 : 1;
}
