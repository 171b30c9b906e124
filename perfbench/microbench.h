// google-benchmark loops over each layer's public operations, run
// in-process after the traced pass. Each loop's inputs are drawn from the
// run's seed.

#ifndef PERFBENCH_MICROBENCH_H_
#define PERFBENCH_MICROBENCH_H_

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

struct MicroResult {
  double ns = 0;  // wall ns per operation
  // Engine events, resource grants and channel sends one operation causes
  // (for loops whose operation schedules simulator work; 0 otherwise).
  double events_per_op = 0;
  double grants_per_op = 0;
  double sends_per_op = 0;
};

// Keyed by metric name: sim.ns_per_event, sim.callback_inline_ns,
// sim.callback_spilled_ns, sim.resource_grant_ns, sim.channel_send_ns,
// net.transport_send_ns, store.robinhood_insert_ns, store.robinhood_lookup_ns,
// store.nic_index_lookup_cached_ns, store.nic_index_lookup_uncached_ns,
// btree.put_ns, btree.get_ns, common.histogram_record_ns.
// Each loop runs for at least `min_time_s` seconds. Call once per process.
std::map<std::string, MicroResult> RunMicrobenches(uint64_t seed, double min_time_s);

}  // namespace perfbench

#endif  // PERFBENCH_MICROBENCH_H_
