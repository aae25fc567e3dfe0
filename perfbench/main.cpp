// perfbench: the repository benchmark's measuring binary. run.py builds
// it and calls it once per run:
//
//   perfbench --phase prepare --workload W --seed N --seconds S --out DIR
//   perfbench --phase measure --workload W --seed N --seconds S
//             --trace 0|1 --out DIR
//
// `measure` prints a human-readable report, then the result line (one
// JSON object) last. With --trace 1 it also writes DIR/program_trace.json
// (the library's own obs::trace() spans) and DIR/harness_trace.json (the
// benchmark's spans around public calls, on the same time base), which
// run.py merges and validates. Exit status 1 on any correctness failure.
#include <fstream>
#include <iostream>
#include <map>

#include "harness.hpp"
#include "obs/trace.hpp"
#include "util/args.hpp"
#include "util/check.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Result;

// Kept in the order BENCHMARK.json lists them. A traced run reports every
// per-layer metric; a layer the workload never calls reads 0.
const char* const kEndToEnd[] = {"setup_s", "throughput_rps",
                                 "latency_p50_ms", "swap_p50_ms",
                                 "peak_rss_mb"};

const std::pair<const char*, const char*> kPerLayer[] = {
    {"registry.try_submit_p50_us", "us"},
    {"server.batch_mean", "count"},
    {"server.queue_wait_p50_ms", "ms"},
    {"server.queue_wait_p99_ms", "ms"},
    {"server.batch_p50_ms", "ms"},
    {"server.queue_peak", "count"},
    {"server.shed", "count"},
    {"delta.load_ms", "ms"},
    {"delta.apply_ms", "ms"},
    {"delta.patch_ms", "ms"},
    {"delta.bind_ms", "ms"},
    {"delta.replica_ms", "ms"},
    {"delta.patched_share", "ratio"},
    {"loadgen.late_p99_ms", "ms"},
    {"loadgen.late_max_ms", "ms"},
    {"executor.forward_b1_ms", "ms"},
    {"executor.conv_ms", "ms"},
    {"executor.add_ms", "ms"},
    {"executor.pool_ms", "ms"},
    {"executor.other_ms", "ms"},
    {"executor.conv_share", "ratio"},
    {"tensor.im2col_ms", "ms"},
    {"tensor.im2col_gbps", "GB/s"},
    {"kernels.spmm_cols_ms", "ms"},
    {"kernels.epilogue_ms", "ms"},
    {"kernels.spconv_gflops", "GFLOP/s"},
    {"kernels.spconv_weight_gbps", "GB/s"},
    {"data.synth_ms", "ms"},
    {"data.next_batch_ms", "ms"},
    {"nn.forward_ms", "ms"},
    {"nn.loss_ms", "ms"},
    {"nn.backward_ms", "ms"},
    {"methods.dst_round_ms", "ms"},
    {"methods.rounds", "count"},
    {"sparse.mask_grads_ms", "ms"},
    {"sparse.mask_values_ms", "ms"},
    {"sparse.exploration_rate", "ratio"},
    {"optim.step_ms", "ms"},
    {"setup.build_ms", "ms"},
    {"train.checkpoint_load_ms", "ms"},
    {"setup.compile_ms", "ms"},
    {"setup.add_model_ms", "ms"},
    {"setup.first_reply_ms", "ms"},
    {"host.steal_s", "s"},
    {"proc.cpu_s", "s"},
    {"proc.cpu_us_per_op", "us"},
    {"obs.trace_overhead_pct", "%"},
};

/// Puts the workload's metrics in the declared order, filling per-layer
/// metrics of layers the workload does not exercise with 0; an
/// undeclared or missing end-to-end name is a harness bug.
void canonicalize(Result& r, bool trace) {
  std::map<std::string, perfbench::Metric> got;
  for (const perfbench::Metric& m : r.metrics) got[m.name] = m;
  std::vector<perfbench::Metric> out;
  if (trace) {
    for (const auto& [name, unit] : kPerLayer) {
      auto it = got.find(name);
      out.push_back(it != got.end() ? it->second
                                    : perfbench::Metric{name, 0.0, unit});
      got.erase(name);
    }
  } else {
    for (const char* name : kEndToEnd) {
      auto it = got.find(name);
      dstee::util::check(it != got.end(),
                         std::string("perfbench: workload did not report ") +
                             name);
      out.push_back(it->second);
      got.erase(name);
    }
  }
  dstee::util::check(got.empty(), "perfbench: undeclared metric " +
                                      (got.empty() ? "" : got.begin()->first));
  r.metrics = std::move(out);
}

/// Writes the traced run's spans: the library's (obs::trace) as-is, and
/// the harness's rebased to the same origin so run.py can merge them.
/// Returns the harness spans' nesting violation, if any.
std::string write_traces(const std::string& dir,
                         const std::vector<perfbench::Span>& spans) {
  const std::vector<dstee::obs::TraceEvent> events = dstee::obs::trace().drain();
  std::int64_t base = 0;
  for (const auto& ev : events) {
    if (base == 0 || ev.ts_ns < base) base = ev.ts_ns;
  }
  std::ofstream program(dir + "/program_trace.json");
  dstee::obs::trace().write_chrome_trace(program);
  std::ofstream harness(dir + "/harness_trace.json");
  harness << "{\"traceEvents\":[\n"
          << perfbench::chrome_events(spans, base) << "\n]}\n";

  // Self time per span name: where the harness-visible time went.
  const std::vector<std::int64_t> self = perfbench::self_times(spans);
  std::map<std::string, std::pair<double, double>> totals;
  std::map<std::string, std::size_t> counts;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& t = totals[spans[i].name];
    t.first += static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
    t.second += static_cast<double>(self[i]) / 1e6;
    ++counts[spans[i].name];
  }
  std::cout << "  harness spans (name: count, total ms, self ms):\n";
  for (const auto& [name, t] : totals) {
    std::cout << "    " << name << ": " << counts[name] << ", " << t.first
              << ", " << t.second << "\n";
  }
  return perfbench::check_nesting(spans);
}

}  // namespace

int main(int argc, char** argv) {
  dstee::util::ArgParser args("perfbench: repository benchmark runner");
  args.add_flag("phase", "prepare | measure", "measure")
      .add_flag("workload", "mlp_fleet_swap | resnet18_b1", "")
      .add_flag("seed", "input seed", "1")
      .add_flag("seconds", "measured window length", "10")
      .add_flag("trace", "1 = traced run (per-layer metrics)", "0")
      .add_flag("out", "directory for prepared inputs and traces", "");
  try {
    if (!args.parse(argc, argv)) return 0;
    perfbench::RunOptions o;
    o.workload = args.get_string("workload");
    o.seed = static_cast<std::uint64_t>(args.get_int("seed"));
    o.seconds = args.get_double("seconds");
    o.trace = args.get_int("trace") != 0;
    o.out_dir = args.get_string("out");
    dstee::util::check(!o.out_dir.empty(), "perfbench: --out is required");
    dstee::util::check(o.seconds >= 1.0 && o.seconds <= 60.0,
                       "perfbench: --seconds must be in [1, 60]");
    dstee::util::check(perfbench::is_workload(o.workload),
                       "perfbench: unknown workload '" + o.workload + "'");

    if (args.get_string("phase") == "prepare") {
      perfbench::prepare_serving(o);
      return 0;
    }
    perfbench::SpanLog log(3);
    Result r = perfbench::measure_serving(o, log);
    if (o.trace) {
      const std::string nesting = write_traces(o.out_dir, log.all());
      if (!nesting.empty()) {
        std::cout << "  harness span nesting violated: " << nesting << "\n";
        r.correct = false;
      }
    }
    canonicalize(r, o.trace);
    std::cout << r.json() << "\n";
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
