#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <sstream>

#include "util/rng.hpp"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000LL + ts.tv_nsec;
}

void spin(double seconds) {
  const std::int64_t until =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  volatile std::uint64_t sink = 0;
  while (now_ns() < until) {
    for (int i = 0; i < 1000; ++i) sink = sink + static_cast<std::uint64_t>(i);
  }
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(const std::vector<double>& values) {
  return percentile(values, 0.5);
}

std::vector<bool> least(const std::vector<double>& cost, std::size_t keep) {
  std::vector<std::size_t> order(cost.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return cost[a] < cost[b]; });
  std::vector<bool> mask(cost.size(), false);
  for (std::size_t i = 0; i < keep && i < order.size(); ++i) mask[order[i]] = true;
  return mask;
}

Summary summarize(const std::vector<double>& values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  s.p50 = percentile(values, 0.5);
  s.p99 = percentile(values, 0.99);
  s.max = *std::max_element(values.begin(), values.end());
  s.beyond_p99 = static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(),
                    [&](double v) { return v > s.p99; }));
  return s;
}

std::string describe(const Summary& s, const std::string& unit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "p50 %.4f %s  p99 %.4f %s  max %.4f %s  (n=%zu, %zu beyond p99)",
                s.p50, unit.c_str(), s.p99, unit.c_str(), s.max, unit.c_str(),
                s.n, s.beyond_p99);
  return buf;
}

void Tally::add(Outcome outcome, double latency_ms, double failed_latency_ms) {
  ++attempted;
  switch (outcome) {
    case Outcome::kOk:
      latencies_ms.push_back(latency_ms);
      return;
    case Outcome::kShed:
      ++shed;
      break;
    case Outcome::kError:
      ++errors;
      break;
    case Outcome::kMismatch:
      ++mismatches;
      break;
  }
  latencies_ms.push_back(failed_latency_ms);
}

void Tally::merge(const Tally& other) {
  attempted += other.attempted;
  shed += other.shed;
  errors += other.errors;
  mismatches += other.mismatches;
  latencies_ms.insert(latencies_ms.end(), other.latencies_ms.begin(),
                      other.latencies_ms.end());
}

std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                      double duration_s,
                                      std::uint32_t num_models,
                                      std::uint32_t num_payloads) {
  dstee::util::Rng gaps(seed);
  dstee::util::Rng route(gaps.fork("route"));
  std::vector<Arrival> out;
  out.reserve(static_cast<std::size_t>(rate_per_s * duration_s * 1.1) + 16);
  const double end_ns = duration_s * 1e9;
  double t = 0.0;
  for (;;) {
    // Inverse-CDF exponential gap; 1 - u is in (0, 1], so log is finite.
    t += -std::log(1.0 - gaps.uniform()) / rate_per_s * 1e9;
    if (t >= end_ns) break;
    Arrival a;
    a.due_ns = static_cast<std::int64_t>(t);
    a.model = static_cast<std::uint32_t>(route.uniform_index(num_models));
    a.payload = static_cast<std::uint32_t>(route.uniform_index(num_payloads));
    out.push_back(a);
  }
  return out;
}

SpanLog::SpanLog(std::size_t lanes) : lanes_(lanes), next_(lanes, 0) {}

std::uint64_t SpanLog::reserve(std::uint32_t lane) {
  return (static_cast<std::uint64_t>(lane + 1) << 40) | ++next_[lane];
}

std::uint64_t SpanLog::add(std::uint32_t lane, const char* name,
                           std::int64_t start_ns, std::int64_t end_ns,
                           std::uint64_t parent, std::uint64_t key) {
  Span s;
  s.id = reserve(lane);
  s.parent = parent;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.key = key;
  s.lane = lane;
  add(s);
  return s.id;
}

std::vector<Span> SpanLog::all() const {
  std::vector<Span> out;
  for (const auto& lane : lanes_) out.insert(out.end(), lane.begin(), lane.end());
  std::stable_sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  return out;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::vector<std::int64_t> out;
  out.reserve(spans.size());
  for (const Span& s : spans) {
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
          continue;
        }
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
      if (open) covered += cur_hi - cur_lo;
    }
    out.push_back((s.end_ns - s.start_ns) - covered);
  }
  return out;
}

std::string check_nesting(const std::vector<Span>& spans) {
  std::map<std::uint64_t, const Span*> by_id;
  for (const Span& s : spans) {
    if (s.end_ns < s.start_ns) return std::string(s.name) + ": negative span";
    by_id[s.id] = &s;
  }
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    auto it = by_id.find(s.parent);
    if (it == by_id.end()) return std::string(s.name) + ": missing parent";
    const Span& p = *it->second;
    if (p.lane != s.lane || s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
      return std::string(s.name) + " pokes out of " + p.name;
    }
  }
  // Per lane, the check_obs rule: sorted by (start, -duration), a span
  // never ends past the innermost span still open around its start.
  std::map<std::uint32_t, std::vector<const Span*>> lanes;
  for (const Span& s : spans) lanes[s.lane].push_back(&s);
  for (auto& [lane, list] : lanes) {
    std::sort(list.begin(), list.end(), [](const Span* a, const Span* b) {
      if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
      return a->end_ns > b->end_ns;
    });
    std::vector<const Span*> stack;
    for (const Span* s : list) {
      while (!stack.empty() && s->start_ns >= stack.back()->end_ns) {
        stack.pop_back();
      }
      if (!stack.empty() && s->end_ns > stack.back()->end_ns) {
        return std::string(s->name) + " partially overlaps " +
               stack.back()->name + " on lane " + std::to_string(lane);
      }
      stack.push_back(s);
    }
  }
  return "";
}

std::vector<double> durations_ms(const std::vector<Span>& spans,
                                 const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

namespace {

// Chrome trace microseconds with the nanoseconds kept as three decimals,
// the format obs::TraceRecorder writes.
std::string us(std::int64_t ns) {
  char buf[64];
  const char* sign = ns < 0 ? "-" : "";
  const std::int64_t a = ns < 0 ? -ns : ns;
  std::snprintf(buf, sizeof(buf), "%s%lld.%03lld", sign,
                static_cast<long long>(a / 1000),
                static_cast<long long>(a % 1000));
  return buf;
}

}  // namespace

std::string chrome_events(const std::vector<Span>& spans,
                          std::int64_t base_ns) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::ostringstream os;
  os << R"({"ph":"M","pid":3,"name":"process_name","args":{"name":"benchmark harness"}})";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << ",\n"
       << R"({"name":")" << s.name << R"(","cat":"harness","ph":"X","pid":3,)"
       << "\"tid\":" << s.lane << ",\"ts\":" << us(s.start_ns - base_ns)
       << ",\"dur\":" << us(s.end_ns - s.start_ns) << ",\"args\":{\"id\":"
       << s.id << ",\"parent\":" << s.parent << ",\"key\":" << s.key
       << ",\"self_us\":" << us(self[i]) << "}}";
  }
  return os.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double host_steal_s() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  // cpu user nice system idle iowait irq softirq steal ...
  unsigned long long v[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return 0.0;
  for (auto& x : v) {
    if (!(in >> x)) return 0.0;
  }
  return static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::string Result::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
       << buf << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
