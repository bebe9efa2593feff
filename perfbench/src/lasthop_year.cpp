// Workload `lasthop_year`: the paper's own evaluation loop.
//
// Each run draws kTraces virtual years from the seed and replays every one
// twice, under the on-line baseline and under PolicyConfig::adaptive(). The
// world is wired here from the library's public parts (the wiring of
// experiments::run_trace) plus a ProxyPersistence journal on a MemBackend.
// In the traced pass, decorators defined below sit at each layer boundary and
// record spans:
//
//   sim.run              Simulator::run_until
//   pubsub.publish       Publisher::publish        (trace arrival events)
//   pubsub.update_rank   Publisher::update_rank    (rank-change events)
//   core.notify          Proxy::on_notification, via a Subscriber decorator
//   core.read            LastHopSession::user_read (read events)
//   core.network         Proxy::handle_network, via a Link listener
//   core.sync            LastHopSession's deferred READ replay at reconnection
//   device.deliver       SimDeviceChannel::deliver, via a DeviceChannel decorator
//   storage.journal      every ProxyJournal hook of ProxyPersistence
//   storage.checkpoint   ProxyPersistence::snapshot_now at the end of the year
//
// Whatever runs inside sim.run but outside those spans is the engine and the
// TopicState timers: that is sim.self_ns_per_event.
//
// The journal appends and syncs every record (the default policy) but takes
// its one checkpoint at year end instead of every 256 records: a checkpoint
// copies per-topic sets that grow all year, so the default cadence makes a
// journaled year ~28x slower and would hide every other layer.
// storage.checkpoint times that year-end image instead.
#include <algorithm>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench.h"
#include "common/alloc_stats.h"
#include "common/rng.h"
#include "core/channel.h"
#include "core/forwarding_policy.h"
#include "core/journal.h"
#include "core/proxy.h"
#include "device/device.h"
#include "experiments/runner.h"
#include "net/link.h"
#include "pubsub/broker.h"
#include "pubsub/publisher.h"
#include "sim/simulator.h"
#include "spans.h"
#include "storage/backend.h"
#include "storage/persistence.h"
#include "workload/trace.h"

namespace perfbench {
namespace {

using namespace waif;

/// Device-years per run. Waste, loss and latency are pooled over all of
/// them, which is what keeps those figures steady from seed to seed.
constexpr std::size_t kTraces = 16;
/// Device-years the traced pass replays.
constexpr std::size_t kTracedTraces = 2;
/// The device holds at most this many unread messages (Section 2.3); the
/// fleets' per-device queue cap has the same value, so a device-queue
/// overflow is what drop_share counts on every workload.
constexpr std::size_t kDeviceStorage = 64;
/// Draws per set-up median (one draw of 16 device-years takes ~30 ms).
constexpr int kSetupRepeats = 9;
constexpr int kTracedRepeats = 3;

workload::ScenarioConfig year_config() {
  workload::ScenarioConfig config;
  config.event_frequency = 96.0;
  config.rank_lo = pubsub::kMinRank;
  config.rank_hi = pubsub::kMaxRank;
  config.threshold = 1.0;
  config.expiring_fraction = 1.0;
  config.mean_expiration = kDay;
  config.expiration_shape = DurationShape::kExponential;
  config.rank_drop_fraction = 0.1;
  config.user_frequency = 4.0;
  config.max = 8;
  config.outage_fraction = 0.25;
  config.horizon = kYear;
  return config;
}

std::vector<workload::Trace> draw_traces(std::uint64_t seed) {
  std::vector<workload::Trace> traces;
  traces.reserve(kTraces);
  std::uint64_t state = seed;
  for (std::size_t i = 0; i < kTraces; ++i) {
    traces.push_back(workload::generate_trace(year_config(), splitmix64(state)));
  }
  return traces;
}

struct Tracer {
  SpanRecorder recorder;
  std::uint32_t run = recorder.intern("sim.run");
  std::uint32_t publish = recorder.intern("pubsub.publish");
  std::uint32_t update_rank = recorder.intern("pubsub.update_rank");
  std::uint32_t notify = recorder.intern("core.notify");
  std::uint32_t read = recorder.intern("core.read");
  std::uint32_t network = recorder.intern("core.network");
  std::uint32_t sync = recorder.intern("core.sync");
  std::uint32_t deliver = recorder.intern("device.deliver");
  std::uint32_t journal = recorder.intern("storage.journal");
  std::uint32_t checkpoint = recorder.intern("storage.checkpoint");
};

class TracedSubscriber final : public pubsub::Subscriber {
 public:
  TracedSubscriber(pubsub::Subscriber& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  void on_notification(const pubsub::NotificationPtr& notification) override {
    ScopedSpan span(&tracer_.recorder, tracer_.notify, notification->id.value);
    inner_.on_notification(notification);
  }
  void on_topic_withdrawn(const std::string& topic) override {
    inner_.on_topic_withdrawn(topic);
  }

 private:
  pubsub::Subscriber& inner_;
  Tracer& tracer_;
};

class TracedChannel final : public core::DeviceChannel {
 public:
  TracedChannel(core::DeviceChannel& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  bool link_up() const override { return inner_.link_up(); }
  bool accepting() const override { return inner_.accepting(); }
  bool deliver(const pubsub::NotificationPtr& notification) override {
    ScopedSpan span(&tracer_.recorder, tracer_.deliver, notification->id.value);
    return inner_.deliver(notification);
  }

 private:
  core::DeviceChannel& inner_;
  Tracer& tracer_;
};

class TracedJournal final : public core::ProxyJournal {
 public:
  TracedJournal(core::ProxyJournal& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  void on_enqueue(const std::string& topic,
                  const core::EnqueueRecord& record) override {
    ScopedSpan span(&tracer_.recorder, tracer_.journal, record.event.id.value);
    inner_.on_enqueue(topic, record);
  }
  bool on_forward(const std::string& topic, const pubsub::NotificationPtr& event,
                  SimTime at, double rate_credit, bool replicated) override {
    ScopedSpan span(&tracer_.recorder, tracer_.journal, event->id.value);
    return inner_.on_forward(topic, event, at, rate_credit, replicated);
  }
  void on_read(const std::string& topic, std::uint64_t request_id, int n,
               std::size_t queue_size, SimTime at) override {
    ScopedSpan span(&tracer_.recorder, tracer_.journal);
    inner_.on_read(topic, request_id, n, queue_size, at);
  }
  void on_sync(const std::string& topic, std::size_t queue_size,
               std::uint64_t sync_id,
               const std::vector<core::ReadRecord>& offline_reads,
               SimTime at) override {
    ScopedSpan span(&tracer_.recorder, tracer_.journal);
    inner_.on_sync(topic, queue_size, sync_id, offline_reads, at);
  }
  void on_expire(const std::string& topic, NotificationId id, bool timer_fired,
                 SimTime at) override {
    ScopedSpan span(&tracer_.recorder, tracer_.journal, id.value);
    inner_.on_expire(topic, id, timer_fired, at);
  }
  void on_requeue(const std::string& topic, const pubsub::NotificationPtr& event,
                  SimTime at) override {
    ScopedSpan span(&tracer_.recorder, tracer_.journal, event->id.value);
    inner_.on_requeue(topic, event, at);
  }
  void on_shed(const std::string& topic, const pubsub::NotificationPtr& event,
               SimTime at) override {
    ScopedSpan span(&tracer_.recorder, tracer_.journal, event->id.value);
    inner_.on_shed(topic, event, at);
  }

 private:
  core::ProxyJournal& inner_;
  Tracer& tracer_;
};

/// What one replay of one trace under one policy produced.
struct Replay {
  /// Ids the user read, in read order.
  std::vector<std::uint64_t> read_ids;
  /// Publish -> user read, per message read.
  std::vector<SimDuration> read_latency;
  /// NotificationId of each trace arrival (index-aligned).
  std::vector<NotificationId> published;
  std::uint64_t publishes = 0;
  std::uint64_t forwarded_unique = 0;
  std::uint64_t downlink = 0;
  std::uint64_t evicted = 0;
  std::uint64_t events = 0;
  /// Publishes the broker refused plus forwards the journal refused.
  std::uint64_t failed = 0;
  storage::PersistenceStats persistence;
};

Replay replay(const workload::Trace& trace,
              const workload::ScenarioConfig& config,
              const core::PolicyConfig& policy, Tracer* tracer) {
  SpanRecorder* recorder = tracer != nullptr ? &tracer->recorder : nullptr;
  const auto name = [tracer](std::uint32_t Tracer::*field) {
    return tracer != nullptr ? tracer->*field : 0u;
  };
  const std::string topic = experiments::kTopic;

  sim::Simulator sim;
  pubsub::Broker broker(sim, std::max<std::size_t>(trace.arrivals.size(), 1));
  net::Link link(sim);
  device::DeviceConfig device_config;
  device_config.storage_limit = kDeviceStorage;
  device::Device device(sim, DeviceId{1}, device_config);
  core::SimDeviceChannel channel(link, device);
  std::optional<TracedChannel> traced_channel;
  if (tracer != nullptr) traced_channel.emplace(channel, *tracer);
  core::Proxy proxy(sim, traced_channel
                             ? static_cast<core::DeviceChannel&>(*traced_channel)
                             : channel);

  // The proxy's NETWORK handler, registered in place of attach_to_link so
  // the call can be timed. The session registers its listener after this
  // one, so its deferred READ replay runs between the two core.sync marks.
  std::optional<SpanRecorder::Handle> sync_span;
  link.on_state_change([&](net::LinkState state) {
    {
      ScopedSpan span(recorder, name(&Tracer::network));
      proxy.handle_network(state);
    }
    if (recorder != nullptr) sync_span = recorder->begin(tracer->sync);
  });

  core::TopicConfig topic_config;
  topic_config.mode = core::DeliveryMode::kOnDemand;
  topic_config.options.max = config.max;
  topic_config.options.threshold = config.threshold;
  topic_config.policy = policy;
  core::TopicState& state = proxy.add_topic(topic, topic_config);
  device.set_topic_threshold(topic, config.threshold);

  storage::MemBackend backend;
  storage::PersistenceConfig persistence_config;
  persistence_config.snapshot_interval = 0;  // one checkpoint, at year end
  storage::ProxyPersistence persistence(sim, backend, persistence_config);
  persistence.attach(proxy);
  std::optional<TracedJournal> traced_journal;
  if (tracer != nullptr) {
    traced_journal.emplace(persistence, *tracer);
    proxy.set_journal(&*traced_journal);
  }

  pubsub::Publisher publisher(broker, "workload");
  publisher.advertise(topic);
  std::optional<TracedSubscriber> traced_subscriber;
  if (tracer != nullptr) traced_subscriber.emplace(proxy, *tracer);
  broker.subscribe(topic,
                   traced_subscriber
                       ? static_cast<pubsub::Subscriber&>(*traced_subscriber)
                       : proxy,
                   topic_config.options);

  core::LastHopSession session(proxy, link, device);
  if (recorder != nullptr) {
    link.on_state_change([&](net::LinkState) {
      if (sync_span) recorder->end(*sync_span);
      sync_span.reset();
    });
  }
  link.apply_schedule(trace.outages);

  Replay out;
  out.published.resize(trace.arrivals.size());
  for (std::size_t i = 0; i < trace.arrivals.size(); ++i) {
    const workload::Arrival arrival = trace.arrivals[i];
    sim.schedule_at(arrival.time, [&, arrival, i] {
      ScopedSpan span(recorder, name(&Tracer::publish));
      const pubsub::NotificationPtr notification =
          publisher.publish(topic, arrival.rank, arrival.lifetime);
      ++out.publishes;
      if (notification == nullptr) {
        ++out.failed;
        return;
      }
      span.set_id(notification->id.value);
      out.published[i] = notification->id;
    });
  }
  for (const workload::RankChange& change : trace.rank_changes) {
    sim.schedule_at(change.time, [&, change] {
      const NotificationId id = out.published[change.arrival_index];
      ScopedSpan span(recorder, name(&Tracer::update_rank), id.value);
      publisher.update_rank(id, change.new_rank);
    });
  }
  for (const SimTime read_at : trace.reads) {
    sim.schedule_at(read_at, [&] {
      std::vector<pubsub::NotificationPtr> read;
      {
        ScopedSpan span(recorder, name(&Tracer::read));
        read = session.user_read(topic);
      }
      for (const pubsub::NotificationPtr& notification : read) {
        out.read_ids.push_back(notification->id.value);
        out.read_latency.push_back(sim.now() - notification->published_at);
      }
    });
  }

  {
    ScopedSpan span(recorder, name(&Tracer::run));
    sim.run_until(trace.horizon);
  }
  {
    ScopedSpan span(recorder, name(&Tracer::checkpoint));
    persistence.snapshot_now();
  }

  out.forwarded_unique = state.forwarded_unique();
  out.downlink = link.stats().downlink_messages;
  out.evicted = device.stats().evicted;
  out.events = sim.fired_events();
  out.persistence = persistence.stats();
  out.failed += out.persistence.forward_refusals;
  return out;
}

struct Pair {
  Replay baseline;
  Replay adaptive;
};

Pair replay_pair(const workload::Trace& trace, Tracer* tracer) {
  const workload::ScenarioConfig config = year_config();
  Pair pair;
  pair.baseline = replay(trace, config, core::PolicyConfig::online(), tracer);
  pair.adaptive = replay(trace, config, core::PolicyConfig::adaptive(), tracer);
  return pair;
}

std::unordered_set<std::uint64_t> as_set(const std::vector<std::uint64_t>& ids) {
  return {ids.begin(), ids.end()};
}

/// The sim-time quality of one pass over every trace, pooled over all
/// device-years.
struct Quality {
  double waste_pct = 0.0;
  double loss_pct = 0.0;
  double drop_share = 0.0;
  double useful_forward_ratio = 0.0;
  std::vector<double> read_latency_s;  // adaptive run
  std::uint64_t publishes = 0;
  std::uint64_t wal_records = 0;
  std::uint64_t wal_syncs = 0;
  std::uint64_t wal_failed_syncs = 0;
  std::uint64_t snapshots = 0;
};

Quality quality(const std::vector<workload::Trace>& traces,
                const std::vector<Pair>& pairs) {
  const double threshold = year_config().threshold;
  Quality q;
  std::uint64_t forwarded = 0, unread = 0, read = 0;
  std::uint64_t wanted = 0, lost = 0;
  std::uint64_t downlink = 0, evicted = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const Replay& base = pairs[i].baseline;
    const Replay& adaptive = pairs[i].adaptive;
    const auto adaptive_reads = as_set(adaptive.read_ids);
    // Waste exactly as RunOutcome::waste_percent, pooled.
    const std::uint64_t reads =
        std::min<std::uint64_t>(adaptive.forwarded_unique, adaptive_reads.size());
    forwarded += adaptive.forwarded_unique;
    unread += adaptive.forwarded_unique - reads;
    read += adaptive_reads.size();
    // Loss exactly as compare_policies: retracted content is not a loss.
    auto want = as_set(base.read_ids);
    for (const workload::RankChange& change : traces[i].rank_changes) {
      if (change.new_rank < threshold) {
        want.erase(base.published[change.arrival_index].value);
      }
    }
    wanted += want.size();
    for (const std::uint64_t id : want) lost += adaptive_reads.count(id) == 0;
    for (const Replay* r : {&base, &adaptive}) {
      downlink += r->downlink;
      evicted += r->evicted;
      q.publishes += r->publishes;
      q.wal_records += r->persistence.records;
      q.wal_syncs += r->persistence.syncs;
      q.wal_failed_syncs += r->persistence.failed_syncs;
      q.snapshots += r->persistence.snapshots;
    }
    for (const SimDuration latency : adaptive.read_latency) {
      q.read_latency_s.push_back(to_seconds(latency));
    }
  }
  const auto share = [](std::uint64_t part, std::uint64_t whole) {
    return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                     : 0.0;
  };
  q.waste_pct = 100.0 * share(unread, forwarded);
  q.loss_pct = 100.0 * share(lost, wanted);
  q.drop_share = share(evicted, downlink);
  q.useful_forward_ratio = share(read, forwarded);
  return q;
}

/// Replays every trace once, untraced; returns the pairs.
std::vector<Pair> full_pass(const std::vector<workload::Trace>& traces) {
  std::vector<Pair> pairs;
  pairs.reserve(traces.size());
  for (const workload::Trace& trace : traces) {
    pairs.push_back(replay_pair(trace, nullptr));
  }
  return pairs;
}

/// The run's output checks: the benchmark's own wiring (journal included)
/// must read exactly what experiments::run_trace reads on the same trace
/// and policy.
void check_against_run_trace(const std::vector<workload::Trace>& traces,
                             const std::vector<Pair>& pairs, Result& result) {
  const workload::ScenarioConfig config = year_config();
  experiments::DeviceOverrides overrides;
  overrides.storage_limit = kDeviceStorage;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const Replay* replays[] = {&pairs[i].baseline, &pairs[i].adaptive};
    const core::PolicyConfig policies[] = {core::PolicyConfig::online(),
                                           core::PolicyConfig::adaptive()};
    for (int p = 0; p < 2; ++p) {
      const experiments::RunOutcome reference =
          experiments::run_trace(traces[i], config, policies[p], overrides);
      const auto ours = as_set(replays[p]->read_ids);
      const std::string what = "trace " + std::to_string(i) +
                               (p == 0 ? " baseline" : " adaptive");
      result.check(ours.size() == replays[p]->read_ids.size(),
                   what + ": no message is read twice");
      result.check(ours == metrics::ReadSet(reference.read_ids.begin(),
                                            reference.read_ids.end()),
                   what + ": read ids equal experiments::run_trace");
      result.check(replays[p]->forwarded_unique == reference.forwarded_unique,
                   what + ": forwarded count equals experiments::run_trace");
      result.check(replays[p]->failed == 0, what + ": no publish or forward failed");
    }
  }
}

}  // namespace

Result run_lasthop_year(const Options& options) {
  Result result;

  // --- set-up: draw the device-years -----------------------------------------
  std::vector<double> setup;
  std::vector<workload::Trace> traces;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::int64_t start = now_ns();
    traces = draw_traces(options.seed);
    setup.push_back(seconds_between(start, now_ns()));
  }
  const double setup_s = median(setup);

  if (!options.trace) {
    // --- timed window: round-robin over the traces, one pair at a time -----
    std::vector<Pair> first_pass;
    std::vector<double> publish_rate, delivery_rate;
    // Allocations over the first pass only, so the figure repeats exactly.
    std::uint64_t first_pass_allocs = 0;
    const std::int64_t window_start = now_ns();
    for (std::size_t n = 0;; ++n) {
      const workload::Trace& trace = traces[n % traces.size()];
      const alloc_stats::AllocProbe allocs;
      const std::int64_t start = now_ns();
      Pair pair = replay_pair(trace, nullptr);
      const double seconds = seconds_between(start, now_ns());
      const std::uint64_t pair_allocs = allocs.allocations();
      const auto publishes =
          static_cast<double>(pair.baseline.publishes + pair.adaptive.publishes);
      publish_rate.push_back(publishes / seconds);
      delivery_rate.push_back(
          static_cast<double>(pair.baseline.downlink + pair.adaptive.downlink) /
          seconds);
      result.attempted += pair.baseline.publishes + pair.adaptive.publishes;
      result.failed += pair.baseline.failed + pair.adaptive.failed;
      if (first_pass.size() < traces.size()) {
        first_pass_allocs += pair_allocs;
        first_pass.push_back(std::move(pair));
      }
      if (first_pass.size() == traces.size() &&
          seconds_between(window_start, now_ns()) >= options.seconds) {
        break;
      }
    }
    const double rss = peak_rss_mib();
    const Quality q = quality(traces, first_pass);

    result.metric("setup_s", setup_s, "s");
    result.metric("publishes_per_s", median(publish_rate), "1/s");
    result.metric("deliveries_per_s", median(delivery_rate), "1/s");
    result.metric("peak_rss_mb", rss, "MiB");
    result.metric("allocs_per_publish",
                  static_cast<double>(first_pass_allocs) /
                      static_cast<double>(q.publishes),
                  "count");
    result.metric("drop_share", q.drop_share, "fraction");
    result.metric("waste_pct", q.waste_pct, "%");
    result.metric("loss_pct", q.loss_pct, "%");

    check_against_run_trace(traces, first_pass, result);
    result.check(q.drop_share > 0.0 && q.waste_pct > 0.0 && q.loss_pct > 0.0,
                 "drop share, waste and loss are all measured (non-zero)");
    return result;
  }

  // --- traced run ------------------------------------------------------------
  // One untraced pass over every trace gives the pooled sim-time figures.
  const std::vector<Pair> pairs = full_pass(traces);
  const Quality q = quality(traces, pairs);
  for (const Pair& pair : pairs) {
    result.attempted += pair.baseline.publishes + pair.adaptive.publishes;
    result.failed += pair.baseline.failed + pair.adaptive.failed;
  }
  std::vector<double> latency = q.read_latency_s;
  result.metric("core.read_latency_p50_s", percentile(latency, 0.5), "s");
  result.metric("core.read_latency_p999_s", percentile(latency, 0.999), "s");
  result.metric("core.read_latency.samples", static_cast<double>(latency.size()),
                "count");
  result.metric("core.useful_forward_ratio", q.useful_forward_ratio, "ratio");
  const auto per_publish = [&q](std::uint64_t n) {
    return static_cast<double>(n) / static_cast<double>(q.publishes);
  };
  result.metric("storage.wal.records_per_publish", per_publish(q.wal_records),
                "count");
  result.metric("storage.wal.syncs_per_publish", per_publish(q.wal_syncs),
                "count");
  result.metric("storage.snapshots", static_cast<double>(q.snapshots), "count");
  result.metric("storage.wal.failed_syncs",
                static_cast<double>(q.wal_failed_syncs), "count");
  result.metric("workload.trace_s", setup_s / static_cast<double>(kTraces), "s");

  // The same device-years untraced and traced, alternately, so the overhead
  // compares like with like.
  const std::vector<workload::Trace> subset(traces.begin(),
                                            traces.begin() + kTracedTraces);
  std::vector<double> untraced_s, traced_s;
  struct Sample {
    std::string name;
    std::string unit;
    std::vector<double> values;
  };
  std::vector<Sample> samples;
  const auto sample = [&samples](const std::string& name,
                                 const std::string& unit, double value) {
    for (Sample& s : samples) {
      if (s.name == name) {
        s.values.push_back(value);
        return;
      }
    }
    samples.push_back({name, unit, {value}});
  };
  Tracer tracer;
  for (int r = 0; r < kTracedRepeats; ++r) {
    std::int64_t start = now_ns();
    for (const workload::Trace& trace : subset) replay_pair(trace, nullptr);
    untraced_s.push_back(seconds_between(start, now_ns()));

    tracer.recorder.clear();
    std::vector<Pair> traced;
    start = now_ns();
    for (const workload::Trace& trace : subset) {
      traced.push_back(replay_pair(trace, &tracer));
    }
    traced_s.push_back(seconds_between(start, now_ns()));
    result.check(tracer.recorder.idle(), "every traced span was closed");

    std::uint64_t publishes = 0, events = 0;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      for (const Replay* rp : {&traced[i].baseline, &traced[i].adaptive}) {
        publishes += rp->publishes;
        events += rp->events;
      }
      result.check(traced[i].baseline.read_ids == pairs[i].baseline.read_ids &&
                       traced[i].adaptive.read_ids == pairs[i].adaptive.read_ids,
                   "tracing does not change what the user reads");
    }
    const std::vector<LayerTotals> totals = tracer.recorder.totals();
    const auto layer = [&](std::uint32_t id) -> const LayerTotals& {
      return totals[id];
    };
    sample("sim.events_per_publish", "count",
           static_cast<double>(events) / static_cast<double>(publishes));
    sample("sim.self_ns_per_event", "ns",
           static_cast<double>(layer(tracer.run).self_ns) /
               static_cast<double>(events));
    sample("pubsub.publish.self_ns", "ns", layer(tracer.publish).self_ns_per_call());
    sample("pubsub.publish.allocs", "count",
           layer(tracer.publish).allocs_per_call());
    sample("pubsub.update_rank.self_ns", "ns",
           layer(tracer.update_rank).self_ns_per_call());
    const std::pair<const char*, std::uint32_t> timed[] = {
        {"core.notify", tracer.notify},   {"core.read", tracer.read},
        {"core.network", tracer.network}, {"core.sync", tracer.sync},
        {"device.deliver", tracer.deliver}, {"storage.journal", tracer.journal},
        {"storage.checkpoint", tracer.checkpoint}};
    for (const auto& [prefix, id] : timed) {
      const std::string base(prefix);
      sample(base + ".calls", "count", static_cast<double>(layer(id).calls));
      sample(base + ".self_ns", "ns", layer(id).self_ns_per_call());
      sample(base + ".allocs", "count", layer(id).allocs_per_call());
    }
  }
  for (const Sample& s : samples) result.metric(s.name, median(s.values), s.unit);
  result.metric("trace_overhead_pct",
                100.0 * (median(traced_s) / median(untraced_s) - 1.0), "%");
  write_spans(options, tracer.recorder);
  return result;
}

}  // namespace perfbench
