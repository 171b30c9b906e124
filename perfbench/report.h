// Metric collection and output for the benchmark, plus the pure helpers
// its derived metrics are computed with (kept here so perfbench_test can
// check them without running a cluster).

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/obs/resource_stats.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Metrics in the order they were added; names are unique.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& metrics() const { return metrics_; }
  const Metric* Find(const std::string& name) const;

  // One "name = value unit" line per metric, prefixed.
  std::string Lines(const std::string& prefix) const;
  // {"correct":..,"attempted":..,"failed":..,"metrics":{"name":{"value":..,"unit":".."},..}}
  // with every value printed to full double precision.
  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

// Median of a non-empty sample (mean of the middle two for even sizes).
double Median(std::vector<double> v);

// Quantile q of a latency histogram in microseconds, interpolated linearly
// by rank inside the bucket that holds it. Histogram::ValueAtQuantile
// returns that bucket's midpoint, which quantizes to the 1/64-octave bucket
// width; the interpolated value resolves changes smaller than a bucket.
double InterpolatedQuantileUs(const xenic::Histogram& h, double q);

// Per-resource utilization and mean queueing delay, with numbered ports of
// one kind (wire_tx0, wire_tx1, ...) merged into one entry (wire_tx):
// utilization averaged, wait weighted by completed jobs.
struct ResourceStat {
  double util = 0;
  double wait_ns = 0;
  uint64_t completed = 0;
  bool is_link = false;
};
std::map<std::string, ResourceStat> MergeResources(
    const std::vector<xenic::obs::ResourceSnapshot>& snapshots);

// Host-time decomposition: each term is a layer's estimated ns per
// committed transaction; the residue is what the terms leave of the
// measured host time (negative if they over-count).
struct HostTerm {
  std::string layer;
  double ns_per_txn = 0;
};
struct Decomposition {
  std::vector<HostTerm> terms;
  double residue_ns = 0;
};
Decomposition Decompose(double host_ns_per_txn, std::vector<HostTerm> terms);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
