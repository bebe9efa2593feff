// Google-benchmark micro-benchmarks of the data path: event queue, ranked
// queue, broker fan-out, the proxy's NOTIFICATION/READ handlers, and a full
// one-virtual-year paired experiment.
//
// Unlike the figure benches, this binary has a custom main: after the
// google-benchmark suite it runs three fixed headline measurements and emits
// BENCH_micro_core.json (see bench_report.h) — the number the CI perf gate
// compares against the committed baseline:
//   - engine_events_per_sec: simulator timer churn end to end;
//   - ranked_queue_ops_per_sec: steady-state insert/erase/pop churn;
//   - wal_group_commit_speedup: batched framing + group fsync vs the
//     sync-every-record WAL.
#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/channel.h"
#include "core/proxy.h"
#include "core/ranked_queue.h"
#include "device/device.h"
#include "experiments/runner.h"
#include "net/link.h"
#include "pubsub/broker.h"
#include "pubsub/publisher.h"
#include "sim/simulator.h"
#include "storage/backend.h"
#include "storage/wal.h"

namespace {

using namespace waif;

pubsub::NotificationPtr make_notification(std::uint64_t id, double rank) {
  auto n = std::make_shared<pubsub::Notification>();
  n->id = NotificationId{id};
  n->topic = "bench";
  n->rank = rank;
  return n;
}

// The two event-queue shapes:
//   - bulk: build the whole population, then drain it;
//   - steady churn: hold a fixed population and pop-one/schedule-one, the
//     simulator's actual hot-path pattern.
void BM_EventQueueBulkScheduleAndPop(benchmark::State& state) {
  const auto count = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue queue;
    for (std::uint64_t i = 0; i < count; ++i) {
      queue.schedule(static_cast<SimTime>((i * 2654435761u) % 1000000), [] {});
    }
    while (!queue.empty()) benchmark::DoNotOptimize(queue.pop().time);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_EventQueueBulkScheduleAndPop)->Arg(1024)->Arg(16384);

void BM_EventQueueSteadyChurn(benchmark::State& state) {
  const auto count = static_cast<std::uint64_t>(state.range(0));
  Rng rng(7);
  sim::EventQueue queue;
  for (std::uint64_t i = 0; i < count; ++i) {
    queue.schedule(static_cast<SimTime>(rng.next_below(1'000'000)), [] {});
  }
  for (auto _ : state) {
    const SimTime now = queue.pop().time;
    queue.schedule(now + 1 + static_cast<SimTime>(rng.next_below(2'000'000)),
                   [] {});
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueSteadyChurn)->Arg(1024)->Arg(16384);

void BM_RankedQueueInsertPop(benchmark::State& state) {
  const auto count = static_cast<std::uint64_t>(state.range(0));
  Rng rng(1);
  std::vector<pubsub::NotificationPtr> notifications;
  notifications.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    notifications.push_back(make_notification(i + 1, rng.next_double() * 5.0));
  }
  for (auto _ : state) {
    core::RankedQueue queue;
    for (const auto& n : notifications) queue.insert(n);
    while (!queue.empty()) benchmark::DoNotOptimize(queue.pop_top());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_RankedQueueInsertPop)->Arg(1024)->Arg(16384);

void BM_BrokerFanOut(benchmark::State& state) {
  const auto subscribers = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim;
  pubsub::Broker broker(sim);
  class Sink : public pubsub::Subscriber {
   public:
    void on_notification(const pubsub::NotificationPtr& n) override {
      benchmark::DoNotOptimize(n->rank);
    }
  };
  std::vector<std::unique_ptr<Sink>> sinks;
  for (std::size_t i = 0; i < subscribers; ++i) {
    sinks.push_back(std::make_unique<Sink>());
    broker.subscribe("bench", *sinks.back());
  }
  pubsub::Publisher publisher(broker, "p");
  publisher.advertise("bench");
  for (auto _ : state) {
    benchmark::DoNotOptimize(publisher.publish("bench", 3.0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(subscribers));
}
BENCHMARK(BM_BrokerFanOut)->Arg(1)->Arg(16)->Arg(256);

void BM_ProxyNotification(benchmark::State& state) {
  sim::Simulator sim;
  net::Link link(sim);
  device::Device device(sim, DeviceId{1});
  core::SimDeviceChannel channel(link, device);
  core::Proxy proxy(sim, channel);
  core::TopicConfig config;
  config.options.max = 8;
  config.policy = core::PolicyConfig::buffer(16);
  proxy.add_topic("bench", config);
  Rng rng(2);
  std::uint64_t id = 0;
  for (auto _ : state) {
    proxy.on_notification(make_notification(++id, rng.next_double() * 5.0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ProxyNotification);

void BM_ProxyRead(benchmark::State& state) {
  sim::Simulator sim;
  net::Link link(sim);
  device::Device device(sim, DeviceId{1});
  core::SimDeviceChannel channel(link, device);
  core::Proxy proxy(sim, channel);
  core::TopicConfig config;
  config.options.max = 8;
  config.policy = core::PolicyConfig::on_demand();
  proxy.add_topic("bench", config);
  core::LastHopSession session(proxy, channel);
  Rng rng(3);
  std::uint64_t id = 0;
  for (auto _ : state) {
    // Keep the prefetch queue populated so reads always have work to do.
    for (int i = 0; i < 8; ++i) {
      proxy.on_notification(make_notification(++id, rng.next_double() * 5.0));
    }
    benchmark::DoNotOptimize(session.user_read("bench"));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ProxyRead);

void BM_FullYearPairedExperiment(benchmark::State& state) {
  workload::ScenarioConfig config;
  config.event_frequency = 32.0;
  config.user_frequency = 2.0;
  config.max = 8;
  config.outage_fraction = 0.5;
  config.horizon = kYear;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(experiments::compare_policies(
        config, core::PolicyConfig::buffer(16), ++seed));
  }
}
BENCHMARK(BM_FullYearPairedExperiment)->Unit(benchmark::kMillisecond);

// --- headline measurements for BENCH_micro_core.json ------------------------

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Steady-state RankedQueue churn over a recycled working set (the proxy's
/// per-topic pattern: bounded queue, high turnover).
double measure_ranked_queue_ops_per_sec() {
  constexpr std::size_t kWorkingSet = 64;
  constexpr std::uint64_t kRounds = 60000;
  std::vector<pubsub::NotificationPtr> notifications;
  Rng rng(9);
  for (std::size_t i = 0; i < kWorkingSet; ++i) {
    notifications.push_back(make_notification(i + 1, rng.next_double() * 5.0));
  }
  core::RankedQueue queue;
  std::uint64_t ops = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    for (const auto& n : notifications) queue.insert(n);
    queue.erase(notifications[round % kWorkingSet]->id);
    while (!queue.empty()) benchmark::DoNotOptimize(queue.pop_bottom());
    ops += kWorkingSet + 1;
  }
  return static_cast<double>(ops) / seconds_since(start);
}

storage::WalRecord wal_sample(std::uint64_t i) {
  storage::WalRecord record;
  record.type = storage::WalRecordType::kEnqueue;
  record.stage = core::JournalStage::kOutgoing;
  record.topic = "bench";
  record.at = static_cast<SimTime>(i);
  record.event.id = NotificationId{i + 1};
  record.event.topic = record.topic;
  record.event.rank = 3.0;
  record.event.payload = std::string(24, 'x');
  return record;
}

/// Records/sec through the WAL writer onto a real filesystem (FileBackend:
/// every sync is an actual fsync); group commit stages 64-record batches
/// into one append + one fsync, so it pays one extra in-memory copy per
/// record to elide ~63/64 of the fsyncs. An untimed warm-up pass runs
/// first, so neither mode pays the cold-cache cost of being measured first.
/// Byte-equality of the two modes' logs and the fsync-count reduction are
/// asserted in tests/storage/group_commit_test.cpp.
double measure_wal_records_per_sec(bool group_commit) {
  constexpr std::uint64_t kWarmRecords = 500;
  constexpr std::uint64_t kRecords = 4000;
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "waif_micro_core_wal";
  const storage::WalRecord record = wal_sample(1);
  const auto run = [&record, &dir, group_commit](std::uint64_t count) {
    std::filesystem::remove_all(dir);
    storage::FileBackend backend(dir.string());
    storage::WalWriter writer(backend, storage::kWalBlobName);
    writer.set_group_commit(group_commit);
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < count; ++i) {
      writer.append(record);
      if (!group_commit || (i + 1) % 64 == 0) writer.sync();
    }
    writer.sync();
    return static_cast<double>(count) / seconds_since(start);
  };
  run(kWarmRecords);
  const double rate = run(kRecords);
  std::filesystem::remove_all(dir);
  return rate;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // The report window starts here, after the google-benchmark suite, so
  // events_per_sec and the alloc block describe the fixed headline runs.
  waif::bench::BenchReport report("micro_core");
  const double engine = waif::bench::measure_engine_events_per_sec();
  const double ranked = measure_ranked_queue_ops_per_sec();
  const double wal_grouped = measure_wal_records_per_sec(true);
  const double wal_per_record = measure_wal_records_per_sec(false);

  report.metric("engine_events_per_sec", engine);
  report.metric("ranked_queue_ops_per_sec", ranked);
  report.metric("wal_group_commit_records_per_sec", wal_grouped);
  report.metric("wal_per_record_records_per_sec", wal_per_record);
  report.metric("wal_group_commit_speedup",
                wal_per_record > 0.0 ? wal_grouped / wal_per_record : 0.0);
  report.write();

  std::printf("sweep: engine %.3g events/s, ranked queue %.3g ops/s, "
              "wal group-commit %.2fx\n",
              engine, ranked,
              wal_per_record > 0.0 ? wal_grouped / wal_per_record : 0.0);
  return 0;
}
