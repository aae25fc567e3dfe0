// The benchmark's own arithmetic and plumbing: sample summaries, harness
// spans with self time, seeded arrival schedules, process/host counters
// and the result line. Everything here is pure or reads /proc; the
// workloads (serving.cpp) drive the library and feed it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// steady_clock nanoseconds (the clock obs:: and the server stamp with).
std::int64_t now_ns();

/// CPU time the calling thread has run, in nanoseconds. Unlike wall time
/// it leaves out the time the thread waited for a CPU — behind other
/// runnable threads or a hypervisor neighbour — so it measures the work a
/// call did rather than the host's load at the moment.
std::int64_t thread_cpu_ns();

/// Busy-waits `seconds` on the calling thread without touching library
/// code: the fixed warm-up before every setup clock starts, so frequency
/// scaling and scheduler wake-up do not land inside set-up time.
void spin(double seconds);

// ---- samples -------------------------------------------------------------

/// Linear interpolation between closest ranks (numpy's default) of an
/// unsorted sample; q in [0, 1]. 0 for an empty sample.
double percentile(std::vector<double> values, double q);

/// A timing as the benchmark reports it: median, p99, max, and how many
/// samples lie strictly beyond p99 (the guide asks for at least ten).
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  std::size_t beyond_p99 = 0;
};
Summary summarize(const std::vector<double>& values);

/// "p50 1.23 p99 4.56 max 7.89 (n=1000, 9 beyond p99)".
std::string describe(const Summary& s, const std::string& unit);

double median(const std::vector<double>& values);

/// Marks the `keep` sub-windows of lowest cost (ties go to the earlier
/// one). End-to-end metrics are taken over the run's best quarter, the
/// sub-windows where the workload ran fastest: neighbours on a shared
/// host slow parts of a run far more than a change to the program would,
/// and a change to the program's own speed shows in every sub-window,
/// the best ones included (the reasoning behind timing the best of
/// several repeats).
std::vector<bool> least(const std::vector<double>& cost, std::size_t keep);

// ---- request accounting ----------------------------------------------------

/// Every operation the load generator attempted ends in exactly one of
/// these. Only kOk counts as a success; the rest are failures, and a
/// failure enters the latency sample as `failed_latency_ms` so it lands
/// beyond every percentile the window can measure.
enum class Outcome { kOk, kShed, kError, kMismatch };

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  std::uint64_t mismatches = 0;
  std::vector<double> latencies_ms;  ///< one per attempt, failures included

  void add(Outcome outcome, double latency_ms, double failed_latency_ms);
  std::uint64_t failed() const { return shed + errors + mismatches; }
  void merge(const Tally& other);
};

// ---- arrival schedules -----------------------------------------------------

/// One open-loop arrival: when it is due (ns after the schedule starts),
/// which model it goes to and which pooled payload it carries.
struct Arrival {
  std::int64_t due_ns = 0;
  std::uint32_t model = 0;
  std::uint32_t payload = 0;
};

/// Poisson arrivals at `rate_per_s` for `duration_s`, each routed to a
/// uniformly random model and payload — a pure function of `seed`.
std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                      double duration_s,
                                      std::uint32_t num_models,
                                      std::uint32_t num_payloads);

// ---- harness spans -------------------------------------------------------

/// One span the benchmark recorded around a public call. `parent` 0 is a
/// root; `key` is the request or step id the span belongs to; `lane` is
/// the recording harness thread.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t key = 0;
  std::uint32_t lane = 0;
};

/// In-memory span store: one vector per harness thread (lane), so
/// recording takes no lock; ids come from a per-lane counter with the
/// lane in the high bits. Written out once, at exit.
class SpanLog {
 public:
  explicit SpanLog(std::size_t lanes);

  /// A fresh id for a span recorded later on `lane` (parents reserve
  /// theirs before their children are recorded).
  std::uint64_t reserve(std::uint32_t lane);

  void add(const Span& span) { lanes_[span.lane].push_back(span); }

  /// Records [start, end) under a fresh id and returns that id.
  std::uint64_t add(std::uint32_t lane, const char* name,
                    std::int64_t start_ns, std::int64_t end_ns,
                    std::uint64_t parent, std::uint64_t key);

  /// All lanes merged, ordered by start time.
  std::vector<Span> all() const;

 private:
  std::vector<std::vector<Span>> lanes_;
  std::vector<std::uint64_t> next_;
};

/// Each span's duration minus the union of its children's intervals
/// (clipped to the span), indexed like `spans`.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Empty when every span lies inside its parent, on its parent's lane,
/// and no two spans of a lane overlap partially; otherwise the first
/// violation.
std::string check_nesting(const std::vector<Span>& spans);

/// Durations in ms of every span called `name`.
std::vector<double> durations_ms(const std::vector<Span>& spans,
                                 const std::string& name);

/// Chrome trace-event JSON array elements (pid 3, tid = lane) for the
/// spans, timestamps rebased to `base_ns`, self time in args.
std::string chrome_events(const std::vector<Span>& spans,
                          std::int64_t base_ns);

// ---- process and host counters ---------------------------------------------

/// Peak resident set of this process so far, MB.
double peak_rss_mb();
/// User + system CPU seconds this process has used so far.
double process_cpu_s();
/// Steal seconds summed over all vCPUs since boot, from /proc/stat.
double host_steal_s();

// ---- results ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// The result line: one JSON object, printed last.
  std::string json() const;
};

}  // namespace perfbench
