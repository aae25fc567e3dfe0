#include "obs/metrics.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <map>
#include <sstream>

#include "util/check.hpp"

namespace dstee::obs {

namespace {

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  const auto head_ok = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head_ok(name[0])) return false;
  for (const char c : name) {
    if (!head_ok(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

std::string escape_label_value(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

/// `name{model="label"}` (or bare name when unlabeled).
std::string sample_key(const std::string& name, const std::string& label,
                       const std::string& extra = "") {
  std::string out = name;
  if (!label.empty() || !extra.empty()) {
    out += "{";
    if (!label.empty()) {
      out += "model=\"" + escape_label_value(label) + "\"";
      if (!extra.empty()) out += ",";
    }
    out += extra + "}";
  }
  return out;
}

std::string format_double(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

}  // namespace

double Histogram::bucket_le(std::size_t i) {
  const double step = static_cast<double>(i % kSubBuckets + 1);
  return std::ldexp(1.0 + step / static_cast<double>(kSubBuckets),
                    kMinExp + static_cast<int>(i / kSubBuckets));
}

std::size_t Histogram::bucket_index(double v) {
  if (std::isnan(v)) return kNumBuckets;  // NaN counts only toward +Inf
  if (v <= 0.0) return 0;
  // A positive double's biased exponent and top three mantissa bits,
  // read as one integer, count the eighths of octaves below it; rounding
  // the lower mantissa bits up puts a value on a bound into the bucket
  // whose le it equals. Everything up to bucket 0's bound lands in it.
  constexpr int kLowBits = 52 - std::countr_zero(kSubBuckets);
  constexpr std::uint64_t kLowMask = (std::uint64_t{1} << kLowBits) - 1;
  constexpr std::uint64_t kFirst =
      static_cast<std::uint64_t>(1023 + kMinExp) * kSubBuckets + 1;
  const std::uint64_t eighths =
      (std::bit_cast<std::uint64_t>(v) + kLowMask) >> kLowBits;
  if (eighths <= kFirst) return 0;
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(eighths - kFirst, kNumBuckets));
}

double Histogram::quantile(double q) const {
  util::check(q >= 0.0 && q <= 1.0, "quantile rank must be in [0, 1]");
  std::array<std::uint64_t, kNumBuckets + 1> counts{};
  std::uint64_t total = 0;
  for (std::size_t i = 0; i <= kNumBuckets; ++i) {
    counts[i] = bucket_count(i);
    total += counts[i];
  }
  if (total == 0) return 0.0;
  // Nearest rank: the ceil(q * total)-th smallest sample, at least the
  // first.
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total))));
  std::uint64_t below = 0;
  std::size_t i = 0;
  while (below + counts[i] < rank) below += counts[i++];
  if (i == kNumBuckets) return bucket_le(kNumBuckets - 1);
  const double lo = i == 0 ? 0.0 : bucket_le(i - 1);
  const double hi = bucket_le(i);
  return lo + (hi - lo) * static_cast<double>(rank - below) /
                  static_cast<double>(counts[i]);
}

MetricsRegistry::Entry& MetricsRegistry::get_or_create(
    const std::string& name, const std::string& label,
    const std::string& help, Kind kind) {
  util::check(valid_metric_name(name),
              "invalid metric name '" + name +
                  "' (want [a-zA-Z_:][a-zA-Z0-9_:]*)");
  const auto [family, added] = families_.try_emplace(name);
  if (added) family->second.kind = kind;
  util::check(family->second.kind == kind,
              "metric '" + name + "' already registered with another kind");
  Entry*& slot = family->second.by_label[label];
  if (slot != nullptr) {
    if (slot->help.empty() && !help.empty()) slot->help = help;
    return *slot;
  }
  Entry e;
  e.name = name;
  e.label = label;
  e.help = help;
  e.kind = kind;
  switch (kind) {
    case Kind::kCounter:
      e.counter = std::make_unique<Counter>();
      break;
    case Kind::kGauge:
      e.gauge = std::make_unique<Gauge>();
      break;
    case Kind::kHistogram:
      e.histogram = std::make_unique<Histogram>();
      break;
  }
  entries_.push_back(std::move(e));
  slot = &entries_.back();
  return *slot;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& label,
                                  const std::string& help) {
  util::MutexLock lock(mu_);
  return *get_or_create(name, label, help, Kind::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& label,
                              const std::string& help) {
  util::MutexLock lock(mu_);
  return *get_or_create(name, label, help, Kind::kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::string& label,
                                      const std::string& help) {
  util::MutexLock lock(mu_);
  return *get_or_create(name, label, help, Kind::kHistogram).histogram;
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::snapshot() const {
  util::MutexLock lock(mu_);
  std::vector<Sample> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) {
    switch (e.kind) {
      case Kind::kCounter:
        out.push_back(
            {e.name, e.label, static_cast<double>(e.counter->value())});
        break;
      case Kind::kGauge:
        out.push_back({e.name, e.label, e.gauge->value()});
        break;
      case Kind::kHistogram:
        out.push_back({e.name + "_count", e.label,
                       static_cast<double>(e.histogram->count())});
        out.push_back({e.name + "_sum", e.label, e.histogram->sum()});
        break;
    }
  }
  return out;
}

std::string MetricsRegistry::prometheus_text() const {
  util::MutexLock lock(mu_);
  // Group by family: Prometheus wants one # TYPE line per metric name,
  // followed by every labeled sample of that family.
  std::map<std::string, std::vector<const Entry*>> families;
  std::vector<std::string> order;  // first-registration order
  for (const Entry& e : entries_) {
    if (families.find(e.name) == families.end()) order.push_back(e.name);
    families[e.name].push_back(&e);
  }
  std::ostringstream os;
  for (const std::string& name : order) {
    const std::vector<const Entry*>& fam = families[name];
    for (const Entry* e : fam) {
      if (!e->help.empty()) {
        os << "# HELP " << name << " " << e->help << "\n";
        break;
      }
    }
    const char* type = fam.front()->kind == Kind::kCounter    ? "counter"
                       : fam.front()->kind == Kind::kGauge    ? "gauge"
                                                              : "histogram";
    os << "# TYPE " << name << " " << type << "\n";
    for (const Entry* e : fam) {
      switch (e->kind) {
        case Kind::kCounter:
          os << sample_key(name, e->label) << " " << e->counter->value()
             << "\n";
          break;
        case Kind::kGauge:
          os << sample_key(name, e->label) << " "
             << format_double(e->gauge->value()) << "\n";
          break;
        case Kind::kHistogram: {
          const Histogram& h = *e->histogram;
          // Finite buckets from the first non-empty one to the last: the
          // cumulative series stays monotone and gap-free, and the
          // exposition skips the empty ends of the bucket range.
          std::size_t first = 0, end = Histogram::kNumBuckets;
          while (first < end && h.bucket_count(first) == 0) ++first;
          while (end > first && h.bucket_count(end - 1) == 0) --end;
          std::uint64_t cumulative = 0;
          for (std::size_t i = first; i < end; ++i) {
            cumulative += h.bucket_count(i);
            os << sample_key(name + "_bucket", e->label,
                             "le=\"" + format_double(Histogram::bucket_le(i)) +
                                 "\"")
               << " " << cumulative << "\n";
          }
          os << sample_key(name + "_bucket", e->label, "le=\"+Inf\"") << " "
             << h.count() << "\n";
          os << sample_key(name + "_sum", e->label) << " "
             << format_double(h.sum()) << "\n";
          os << sample_key(name + "_count", e->label) << " " << h.count()
             << "\n";
          break;
        }
      }
    }
  }
  return os.str();
}

std::size_t MetricsRegistry::num_metrics() const {
  util::MutexLock lock(mu_);
  return entries_.size();
}

MetricsRegistry& metrics() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace dstee::obs
