#include "src/obs/attribution.h"

#include <algorithm>
#include <cstdio>

#include "src/common/table_printer.h"
#include "src/obs/trace_recorder.h"

namespace xenic::obs {

namespace {

std::string FmtDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace

BottleneckReport Attribute(std::vector<ResourceSnapshot> rows) {
  BottleneckReport report;
  report.ranked = std::move(rows);
  std::stable_sort(report.ranked.begin(), report.ranked.end(),
                   [](const ResourceSnapshot& a, const ResourceSnapshot& b) {
                     if (a.utilization != b.utilization) {
                       return a.utilization > b.utilization;
                     }
                     if (a.mean_wait_ns != b.mean_wait_ns) {
                       return a.mean_wait_ns > b.mean_wait_ns;
                     }
                     return a.name < b.name;
                   });
  if (!report.ranked.empty()) {
    report.binding = 0;
    report.saturated = report.ranked[0].utilization >= kSaturationFloor;
  }
  return report;
}

std::string RenderAttribution(const BottleneckReport& report, const std::string& title) {
  TablePrinter table({"resource", "kind", "inst", "srv", "util%", "wire%", "wait_us", "p99_wait_us",
                      "peak_q", "done"});
  for (const ResourceSnapshot& r : report.ranked) {
    table.AddRow({
        r.name,
        r.is_link ? "link" : "pool",
        TablePrinter::Fmt(static_cast<uint64_t>(r.instances)),
        r.is_link ? "-" : TablePrinter::Fmt(static_cast<uint64_t>(r.servers)),
        FmtDouble(100.0 * r.utilization, 1),
        r.is_link ? FmtDouble(100.0 * r.wire_utilization, 1) : "-",
        FmtDouble(r.mean_wait_ns / 1000.0, 2),
        FmtDouble(static_cast<double>(r.p99_wait_ns) / 1000.0, 2),
        TablePrinter::Fmt(r.peak_queue),
        TablePrinter::Fmt(r.completed),
    });
  }
  std::string out = table.Render(title);
  if (report.binding < 0) {
    out += "binding: (no resources tracked)\n";
  } else {
    const ResourceSnapshot& top = report.ranked[report.binding];
    if (report.saturated) {
      out += "binding: " + top.name + " (" + FmtDouble(100.0 * top.utilization, 1) +
             "% utilized, mean wait " + FmtDouble(top.mean_wait_ns / 1000.0, 2) + "us)\n";
    } else {
      out += "binding: none saturated (top: " + top.name + " at " +
             FmtDouble(100.0 * top.utilization, 1) +
             "%); throughput is protocol-bound (aborts/locking), not resource-bound\n";
    }
  }
  return out;
}

std::string AttributionJson(const BottleneckReport& report) {
  std::string out = "{\"binding\":";
  if (report.binding < 0) {
    out += "null";
  } else {
    out += "\"" + JsonEscape(report.ranked[report.binding].name) + "\"";
  }
  out += ",\"saturated\":";
  out += report.saturated ? "true" : "false";
  out += ",\"resources\":[";
  bool first = true;
  for (const ResourceSnapshot& r : report.ranked) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "{\"name\":\"" + JsonEscape(r.name) + "\"";
    out += ",\"kind\":\"";
    out += r.is_link ? "link" : "pool";
    out += "\",\"instances\":" + std::to_string(r.instances);
    out += ",\"servers\":" + std::to_string(r.servers);
    out += ",\"utilization\":" + FmtDouble(r.utilization, 6);
    out += ",\"wire_utilization\":" + FmtDouble(r.wire_utilization, 6);
    out += ",\"busy_ns\":" + std::to_string(r.busy_ns);
    out += ",\"completed\":" + std::to_string(r.completed);
    out += ",\"mean_wait_ns\":" + FmtDouble(r.mean_wait_ns, 2);
    out += ",\"p99_wait_ns\":" + std::to_string(r.p99_wait_ns);
    out += ",\"max_wait_ns\":" + std::to_string(r.max_wait_ns);
    out += ",\"peak_queue\":" + std::to_string(r.peak_queue);
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace xenic::obs
