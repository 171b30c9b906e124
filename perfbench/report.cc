#include "report.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cctype>
#include <cmath>
#include <cstdio>

namespace perfbench {

void Report::Add(const std::string& name, double value, const std::string& unit) {
  assert(Find(name) == nullptr);
  metrics_.push_back(Metric{name, value, unit});
}

const Metric* Report::Find(const std::string& name) const {
  for (const auto& m : metrics_) {
    if (m.name == name) {
      return &m;
    }
  }
  return nullptr;
}

std::string Report::Lines(const std::string& prefix) const {
  std::string out;
  char buf[256];
  for (const auto& m : metrics_) {
    std::snprintf(buf, sizeof(buf), "%s%-40s %.6g %s\n", prefix.c_str(), m.name.c_str(), m.value,
                  m.unit.c_str());
    out += buf;
  }
  return out;
}

std::string Report::Json(bool correct, uint64_t attempted, uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[128];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    // JSON has no NaN/Inf; a non-finite value is reported as 0 (and the
    // checks that guard every end-to-end metric fail the run first).
    const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += (i == 0 ? "\"" : ", \"") + metrics_[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

double Median(std::vector<double> v) {
  assert(!v.empty());
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

namespace {

// Bucket geometry of xenic::Histogram (64 linear sub-buckets per octave):
// the [lo, lo + width) range of the bucket a value falls in.
void BucketRange(uint64_t value, double* lo, double* width) {
  constexpr int kSubBucketBits = 6;
  if (value < (1u << kSubBucketBits)) {
    *lo = static_cast<double>(value);
    *width = 1;
    return;
  }
  const int msb = 63 - std::countl_zero(value);
  const int octave = msb - kSubBucketBits + 1;
  *lo = static_cast<double>((value >> octave) << octave);
  *width = static_cast<double>(1ull << octave);
}

}  // namespace

double InterpolatedQuantileUs(const xenic::Histogram& h, double q) {
  if (h.count() == 0) {
    return 0;
  }
  // Same target rank as Histogram::ValueAtQuantile.
  const auto target = static_cast<uint64_t>(q * static_cast<double>(h.count() - 1)) + 1;
  uint64_t seen = 0;
  double result = static_cast<double>(h.max());
  bool found = false;
  h.VisitBuckets([&](uint64_t midpoint, uint64_t count) {
    if (found) {
      return;
    }
    if (seen + count >= target) {
      double lo = 0;
      double width = 0;
      BucketRange(midpoint, &lo, &width);
      const double frac = (static_cast<double>(target - seen) - 0.5) / static_cast<double>(count);
      result = std::clamp(lo + frac * width, static_cast<double>(h.min()),
                          static_cast<double>(h.max()));
      found = true;
    }
    seen += count;
  });
  return result / 1e3;
}

std::map<std::string, ResourceStat> MergeResources(
    const std::vector<xenic::obs::ResourceSnapshot>& snapshots) {
  struct Acc {
    double util_sum = 0;
    double wait_sum = 0;
    uint64_t completed = 0;
    int parts = 0;
    bool is_link = false;
  };
  std::map<std::string, Acc> acc;
  for (const auto& s : snapshots) {
    std::string name = s.name;
    while (!name.empty() && std::isdigit(static_cast<unsigned char>(name.back())) != 0) {
      name.pop_back();
    }
    Acc& a = acc[name];
    a.util_sum += s.utilization;
    a.wait_sum += s.mean_wait_ns * static_cast<double>(s.completed);
    a.completed += s.completed;
    a.parts++;
    a.is_link = s.is_link;
  }
  std::map<std::string, ResourceStat> out;
  for (const auto& [name, a] : acc) {
    ResourceStat r;
    r.util = a.util_sum / a.parts;
    r.wait_ns = a.completed == 0 ? 0.0 : a.wait_sum / static_cast<double>(a.completed);
    r.completed = a.completed;
    r.is_link = a.is_link;
    out[name] = r;
  }
  return out;
}

Decomposition Decompose(double host_ns_per_txn, std::vector<HostTerm> terms) {
  Decomposition d;
  d.residue_ns = host_ns_per_txn;
  for (const auto& t : terms) {
    d.residue_ns -= t.ns_per_txn;
  }
  d.terms = std::move(terms);
  return d;
}

}  // namespace perfbench
