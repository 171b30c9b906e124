#include "src/obs/trace_recorder.h"

#include <cstdio>

namespace xenic::obs {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

namespace {

// Ticks are integer ns; Chrome trace ts/dur are microseconds. Emit with ns
// precision (3 decimals) to keep the trace exact.
void AppendUs(std::string* out, sim::Tick ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu", static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  *out += buf;
}

}  // namespace

uint32_t TraceRecorder::RegisterTrack(const std::string& process, const std::string& track) {
  auto [it, inserted] =
      pid_by_process_.try_emplace(process, static_cast<uint32_t>(pid_by_process_.size()) + 1);
  uint32_t tid = 1;
  for (const Track& t : tracks_) {
    if (t.pid == it->second) {
      tid++;
    }
  }
  tracks_.push_back(Track{it->second, tid, process, track});
  return static_cast<uint32_t>(tracks_.size() - 1);
}

uint32_t TraceRecorder::InternName(const char* name) {
  auto [it, inserted] = name_ids_.try_emplace(name, static_cast<uint32_t>(names_.size()));
  if (inserted) {
    names_.emplace_back(name);
  }
  return it->second;
}

void TraceRecorder::Span(uint32_t track, const char* name, sim::Tick start, sim::Tick end,
                         uint64_t id) {
  // Ambient infrastructure work renders like un-correlated work: no id arg.
  if (id == sim::kAmbientTraceCtx) {
    id = 0;
  }
  events_.push_back(
      Event{track, InternName(name), start, end >= start ? end - start : 0, id, false});
}

void TraceRecorder::Instant(uint32_t track, const char* name, sim::Tick at, uint64_t id) {
  if (id == sim::kAmbientTraceCtx) {
    id = 0;
  }
  events_.push_back(Event{track, InternName(name), at, 0, id, true});
}

std::string TraceRecorder::ToJson() const {
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) {
      out += ',';
    }
    first = false;
  };
  // Metadata: label processes and threads.
  std::unordered_map<uint32_t, bool> pid_named;
  for (const Track& t : tracks_) {
    if (!pid_named[t.pid]) {
      pid_named[t.pid] = true;
      sep();
      out += "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" + std::to_string(t.pid) +
             ",\"tid\":0,\"args\":{\"name\":\"" + JsonEscape(t.process) + "\"}}";
    }
    sep();
    out += "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" + std::to_string(t.pid) +
           ",\"tid\":" + std::to_string(t.tid) + ",\"args\":{\"name\":\"" + JsonEscape(t.name) +
           "\"}}";
  }
  for (const Event& e : events_) {
    const Track& t = tracks_[e.track];
    sep();
    out += "{\"name\":\"" + JsonEscape(names_[e.name_id]) + "\",\"cat\":\"sim\",\"ph\":\"";
    out += e.instant ? 'i' : 'X';
    out += "\",\"ts\":";
    AppendUs(&out, e.start);
    if (e.instant) {
      out += ",\"s\":\"t\"";
    } else {
      out += ",\"dur\":";
      AppendUs(&out, e.dur);
    }
    out += ",\"pid\":" + std::to_string(t.pid) + ",\"tid\":" + std::to_string(t.tid);
    if (e.id != 0) {
      out += ",\"args\":{\"id\":" + std::to_string(e.id) + "}";
    }
    out += "}";
  }
  out += "]}";
  return out;
}

bool TraceRecorder::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::string json = ToJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = written == json.size() && std::fclose(f) == 0;
  if (!ok && written != json.size()) {
    std::fclose(f);
  }
  return ok;
}

}  // namespace xenic::obs
