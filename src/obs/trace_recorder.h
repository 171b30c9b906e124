// TraceRecorder: collects simulator spans/instants and exports them as
// Chrome trace-event JSON (loadable in about:tracing and Perfetto).
//
// The recorder is the standard sim::TraceSink implementation: attach it to
// an Engine with set_trace() before a run, detach (set_trace(nullptr))
// after, then WriteJson(). Tracks registered under the same process name
// share a pid; each track becomes a tid within it, with process_name /
// thread_name metadata so the viewer labels lanes by resource.
//
// Recording is append-only bookkeeping -- no engine interaction -- so a
// traced run's simulation results are byte-identical to an untraced run
// (tools/check_determinism.sh enforces this end-to-end).

#ifndef SRC_OBS_TRACE_RECORDER_H_
#define SRC_OBS_TRACE_RECORDER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sim/trace.h"

namespace xenic::obs {

// Minimal JSON string escape for the documents src/obs writes: the names
// are identifiers, but a workload or resource name with a quote or
// backslash must not corrupt the document.
std::string JsonEscape(const std::string& s);

class TraceRecorder : public sim::TraceSink {
 public:
  uint32_t RegisterTrack(const std::string& process, const std::string& track) override;
  void Span(uint32_t track, const char* name, sim::Tick start, sim::Tick end,
            uint64_t id) override;
  void Instant(uint32_t track, const char* name, sim::Tick at, uint64_t id) override;

  size_t num_events() const { return events_.size(); }
  size_t num_tracks() const { return tracks_.size(); }

  // Serialize as a Chrome trace-event JSON object. `ToJson` is the
  // in-memory variant used by tests; `WriteJson` returns false on I/O
  // failure.
  std::string ToJson() const;
  bool WriteJson(const std::string& path) const;

 private:
  struct Track {
    uint32_t pid;
    uint32_t tid;
    std::string process;
    std::string name;
  };
  struct Event {
    uint32_t track;
    uint32_t name_id;
    sim::Tick start;
    sim::Tick dur;  // 0 with instant = true
    uint64_t id;
    bool instant;
  };

  uint32_t InternName(const char* name);

  std::vector<Track> tracks_;
  std::unordered_map<std::string, uint32_t> pid_by_process_;
  std::unordered_map<std::string, uint32_t> name_ids_;
  std::vector<std::string> names_;
  std::vector<Event> events_;
};

}  // namespace xenic::obs

#endif  // SRC_OBS_TRACE_RECORDER_H_
