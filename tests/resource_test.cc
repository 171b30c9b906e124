#include "src/sim/resource.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

namespace xenic::sim {
namespace {

TEST(ResourceTest, SingleServerSerializes) {
  Engine e;
  Resource r(&e, "core", 1);
  std::vector<Tick> done;
  for (int i = 0; i < 3; ++i) {
    r.Submit(10, [&] { done.push_back(e.now()); });
  }
  e.Run();
  EXPECT_EQ(done, (std::vector<Tick>{10, 20, 30}));
  EXPECT_EQ(r.completed(), 3u);
}

TEST(ResourceTest, MultipleServersRunConcurrently) {
  Engine e;
  Resource r(&e, "cores", 4);
  std::vector<Tick> done;
  for (int i = 0; i < 4; ++i) {
    r.Submit(10, [&] { done.push_back(e.now()); });
  }
  e.Run();
  EXPECT_EQ(done, (std::vector<Tick>{10, 10, 10, 10}));
}

TEST(ResourceTest, QueueDrainsFifo) {
  Engine e;
  Resource r(&e, "core", 1);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    r.Submit(5, [&order, i] { order.push_back(i); });
  }
  e.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ResourceTest, UtilizationLaw) {
  // 1 server, jobs arriving faster than service: utilization ~ 1.
  Engine e;
  Resource r(&e, "core", 1);
  for (int i = 0; i < 100; ++i) {
    r.Submit(10, [] {});
  }
  e.Run();
  EXPECT_EQ(e.now(), 1000u);
  EXPECT_DOUBLE_EQ(r.Utilization(1000), 1.0);
}

TEST(ResourceTest, PartialUtilization) {
  Engine e;
  Resource r(&e, "cores", 2);
  r.Submit(100, [] {});
  e.RunUntil(1000);
  // 100 ns busy on one of two servers over a 1000 ns window.
  EXPECT_DOUBLE_EQ(r.Utilization(1000), 0.05);
}

TEST(ResourceTest, LateSubmissionStartsImmediately) {
  Engine e;
  Resource r(&e, "core", 1);
  Tick done_at = 0;
  e.ScheduleAt(500, [&] { r.Submit(10, [&] { done_at = e.now(); }); });
  e.Run();
  EXPECT_EQ(done_at, 510u);
}

TEST(ResourceTest, QueueDepthVisible) {
  Engine e;
  Resource r(&e, "core", 1);
  for (int i = 0; i < 5; ++i) {
    r.Submit(10, [] {});
  }
  EXPECT_EQ(r.queue_depth(), 4u);
  EXPECT_EQ(r.busy(), 1u);
  e.Run();
  EXPECT_EQ(r.queue_depth(), 0u);
  EXPECT_EQ(r.busy(), 0u);
}

TEST(ResourceTest, ResetStatsClearsCounters) {
  Engine e;
  Resource r(&e, "core", 1);
  r.Submit(10, [] {});
  e.Run();
  r.ResetStats();
  EXPECT_EQ(r.completed(), 0u);
  EXPECT_EQ(r.busy_time(), 0u);
}

TEST(ResourceTest, ZeroServiceTimeCompletes) {
  Engine e;
  Resource r(&e, "core", 1);
  bool done = false;
  r.Submit(0, [&] { done = true; });
  e.Run();
  EXPECT_TRUE(done);
}

TEST(ResourceTest, UtilizationGuardsEmptyWindow) {
  Engine e;
  Resource r(&e, "core", 1);
  r.Submit(10, [] {});
  e.Run();
  // window == 0 means "nothing elapsed": report 0, never divide by zero.
  EXPECT_DOUBLE_EQ(r.Utilization(0), 0.0);
}

TEST(ResourceTest, UtilizationGuardsZeroServers) {
  Engine e;
  Resource r(&e, "core", 1);
  r.Submit(10, [] {});
  e.Run();
  // Table 3 sweeps lower server counts between runs; 0 must not divide.
  r.set_servers(0);
  EXPECT_DOUBLE_EQ(r.Utilization(1000), 0.0);
}

TEST(ResourceTest, QueueWaitAccounting) {
  // 1 server, 3 jobs of 10 ns submitted together: waits are 0, 10, 20.
  Engine e;
  Resource r(&e, "core", 1);
  for (int i = 0; i < 3; ++i) {
    r.Submit(10, [] {});
  }
  e.Run();
  EXPECT_EQ(r.jobs_started(), 3u);
  EXPECT_EQ(r.wait_time_total(), 30u);
  EXPECT_DOUBLE_EQ(r.MeanWaitNs(), 10.0);
  EXPECT_EQ(r.peak_queue_depth(), 2u);
}

TEST(ResourceTest, UtilizationLawWithWaitAccounting) {
  // Utilization law: busy_time == completed * service; the queue-wait
  // accounting must agree (total wait = 10 * (0 + 1 + ... + 99)).
  Engine e;
  Resource r(&e, "core", 1);
  for (int i = 0; i < 100; ++i) {
    r.Submit(10, [] {});
  }
  e.Run();
  EXPECT_EQ(r.busy_time(), r.completed() * 10);
  EXPECT_DOUBLE_EQ(r.Utilization(1000), 1.0);
  EXPECT_EQ(r.wait_time_total(), 10u * (99u * 100u / 2u));
  EXPECT_EQ(r.peak_queue_depth(), 99u);
}

TEST(ResourceTest, WaitHistogramRecordsEveryGrant) {
  Engine e;
  Resource r(&e, "core", 1);
  Histogram waits;
  r.set_wait_histogram(&waits);
  for (int i = 0; i < 3; ++i) {
    r.Submit(10, [] {});
  }
  e.Run();
  EXPECT_EQ(waits.count(), 3u);
  EXPECT_EQ(waits.min(), 0u);
  EXPECT_EQ(waits.max(), 20u);
  r.set_wait_histogram(nullptr);  // detach: further jobs must not record
  r.Submit(10, [] {});
  e.Run();
  EXPECT_EQ(waits.count(), 3u);
}

TEST(ResourceTest, ResetStatsClearsWaitAccounting) {
  Engine e;
  Resource r(&e, "core", 1);
  for (int i = 0; i < 3; ++i) {
    r.Submit(10, [] {});
  }
  e.Run();
  r.ResetStats();
  EXPECT_EQ(r.wait_time_total(), 0u);
  EXPECT_EQ(r.jobs_started(), 0u);
  EXPECT_EQ(r.peak_queue_depth(), 0u);
}


// --- Slot lifetime and ordering --------------------------------------------
//
// Queued and in-service jobs share one slot table; these pin the documented
// grant/completion order and per-job context while slots are freed and
// reused under jobs that are still in service.

struct SpanRec {
  std::string track;
  Tick start;
  Tick end;
  uint64_t id;
  bool operator==(const SpanRec&) const = default;
};

class RecordingSink : public TraceSink {
 public:
  uint32_t RegisterTrack(const std::string&, const std::string& track) override {
    tracks_.push_back(track);
    return static_cast<uint32_t>(tracks_.size() - 1);
  }
  void Span(uint32_t track, const char*, Tick start, Tick end, uint64_t id) override {
    spans.push_back(SpanRec{tracks_[track], start, end, id});
  }
  void Instant(uint32_t, const char*, Tick, uint64_t) override {}

  std::vector<SpanRec> spans;

 private:
  std::vector<std::string> tracks_;
};

TEST(ResourceTest, KServerSlotReuseKeepsOrderAccountingAndContexts) {
  Engine e;
  RecordingSink sink;
  e.set_trace(&sink);
  Resource r(&e, "cores", 3);
  struct Done {
    char job;
    Tick at;
    uint64_t ctx;
    bool operator==(const Done&) const = default;
  };
  std::vector<Done> done;
  auto submit = [&](char job, Tick service) {
    e.set_trace_ctx(static_cast<uint64_t>(job));
    r.Submit(service, [&done, &e, job] { done.push_back(Done{job, e.now(), e.trace_ctx()}); });
  };
  // A, B, C take the three servers; D and E queue.
  e.ScheduleAt(0, [&] {
    submit('A', 30);
    submit('B', 10);
    submit('C', 20);
    submit('D', 5);
    submit('E', 15);
  });
  // F arrives after B has freed its slot, while A, C and D are in service.
  e.ScheduleAt(12, [&] { submit('F', 3); });
  e.Run();

  // B@10 grants D; D@15 grants E; C@20 grants F; A and E both end at 30 and
  // complete in grant order. Every done runs in its own job's context.
  EXPECT_EQ(done, (std::vector<Done>{{'B', 10, 'B'},
                                     {'D', 15, 'D'},
                                     {'C', 20, 'C'},
                                     {'F', 23, 'F'},
                                     {'A', 30, 'A'},
                                     {'E', 30, 'E'}}));
  EXPECT_EQ(r.busy_time(), 30u + 10 + 20 + 5 + 15 + 3);
  EXPECT_EQ(r.completed(), 6u);
  EXPECT_EQ(r.jobs_started(), 6u);
  EXPECT_EQ(r.wait_time_total(), 10u + 15 + 8);  // D, E, F
  EXPECT_EQ(r.peak_queue_depth(), 2u);
  EXPECT_EQ(r.queue_depth(), 0u);
  EXPECT_EQ(r.busy(), 0u);
  // Wait spans at grant time, service spans at completion, each carrying
  // its own job's context rather than the granting event's.
  EXPECT_EQ(sink.spans, (std::vector<SpanRec>{{"service", 0, 10, 'B'},
                                              {"wait", 0, 10, 'D'},
                                              {"service", 10, 15, 'D'},
                                              {"wait", 0, 15, 'E'},
                                              {"service", 0, 20, 'C'},
                                              {"wait", 12, 20, 'F'},
                                              {"service", 20, 23, 'F'},
                                              {"service", 0, 30, 'A'},
                                              {"service", 15, 30, 'E'}}));
}

TEST(ResourceTest, DoneThatResubmitsJoinsTheBackOfTheQueue) {
  Engine e;
  Resource r(&e, "core", 1);
  std::vector<int> order;
  // Job `id` finishing re-submits two children, 10 * id + 1 and + 2, for
  // three generations, so the table grows while a finished job's `done` is
  // running. The done captures 24 bytes, so it lives inline in its slot,
  // and it reads its captures again after each re-submission.
  std::function<void(int, int)> job = [&](int id, int gen) {
    r.Submit(10, [&job, &order, id, gen] {
      order.push_back(id);
      if (gen < 3) {
        job(10 * id + 1, gen + 1);
        job(10 * id + 2, gen + 1);
      }
    });
  };
  job(1, 1);
  r.Submit(10, [&] { order.push_back(2); });
  e.Run();
  // Job 2 was queued before job 1 finished, so it is granted before job
  // 1's children.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 11, 12, 111, 112, 121, 122}));
  EXPECT_EQ(e.now(), 80u);
  EXPECT_EQ(r.completed(), 8u);
  EXPECT_EQ(r.busy_time(), 80u);
  // Children wait from their parent's completion: 2 waits 10, 11 10,
  // 12 20, 111 10, 112 20, 121 20, 122 30.
  EXPECT_EQ(r.wait_time_total(), 10u + 10 + 20 + 10 + 20 + 20 + 30);
}

}  // namespace
}  // namespace xenic::sim
