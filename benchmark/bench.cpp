#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <utility>

#include "events/density_profile.hpp"
#include "events/event_synth.hpp"
#include "obs/trace_io.hpp"

namespace evbench {

namespace {

// Durations are sized so one invocation at kDefaultSeconds serves about
// 20 s on a 4-core host (see README.md for the measured ranges).
constexpr Workload kWorkloads[] = {
    {"dotie-4cam", enn::NetworkId::kDotie, 256, 352, 4, false, 0.625, 1, 16,
     6.0, 1.0},
    {"spikenet-4cam", enn::NetworkId::kAdaptiveSpikeNet, 256, 352, 4, false,
     0.8, 1, 0, 16.0, 0.4},
    {"flownet-2cam", enn::NetworkId::kSpikeFlowNet, 96, 128, 2, false, 0.6, 1,
     0, 15.0, 0.3},
    {"spikenet-2cam-bursty", enn::NetworkId::kAdaptiveSpikeNet, 128, 176, 2,
     true, 6.3, 3, 9, 3.0, 1.5},
};

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

enn::NetworkSpec network_spec(const Workload& w) {
  // Zoo base 16 with doubled LIF thresholds keeps activation densities
  // in the paper's 0.5-5% band.
  return enn::build_network(w.network,
                            enn::ZooConfig{w.height, w.width, 16, 5, 2.0f});
}

std::vector<ev::EventStream> synthesize(const Workload& w, double duration_s,
                                        std::uint64_t seed) {
  const ev::DensityProfile profile =
      w.bursty ? ev::DensityProfile::indoor_flying1()
               : ev::DensityProfile("serve-band", 3.2, {}, 1.2, 0.5);
  std::vector<ev::EventStream> streams;
  for (int k = 0; k < w.cameras; ++k) {
    ev::SynthConfig cfg;
    cfg.geometry = ev::SensorGeometry{w.width, w.height};
    cfg.seed = seed + static_cast<std::uint64_t>(k);
    cfg.blob_count = 4;
    cfg.background_weight = 0.3;
    streams.push_back(ev::PoissonEventSynthesizer(profile, cfg).generate(
        0, static_cast<ev::TimeUs>(std::llround(duration_s * 1e6))));
  }
  return streams;
}

std::vector<ev::EventStream> slices(std::span<const ev::EventStream> streams,
                                    double from_s, double to_s) {
  const auto us = [](double s) {
    return static_cast<ev::TimeUs>(std::llround(s * 1e6));
  };
  std::vector<ev::EventStream> out;
  for (const ev::EventStream& s : streams) {
    const ev::TimeUs t0 = s.t_begin();
    const auto window = s.slice(t0 + us(from_s), t0 + us(to_s));
    out.emplace_back(s.geometry(),
                     std::vector<ev::Event>(window.begin(), window.end()));
  }
  return out;
}

esv::ServeConfig serve_config(double pace) {
  esv::ServeConfig c;
  c.n_workers = 2;
  c.kernel_threads = 1;
  c.queue_capacity = kQueueCapacity;
  c.overflow = esv::OverflowPolicy::kBlock;
  c.worker.collator.max_batch = 8;
  c.worker.collator.max_wait_us = 3000;
  c.ingress.pace_speedup = pace;
  return c;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
  return values[std::min(rank, values.size()) - 1];
}

std::int64_t SpanLog::open(std::string name, std::int64_t parent,
                           std::int64_t stream, std::int64_t seq) {
  BenchSpan s;
  s.id = static_cast<std::int64_t>(spans_.size()) + 1;
  s.parent = parent;
  s.name = std::move(name);
  s.stream = stream;
  s.seq = seq;
  s.t0_ns = evedge::obs::now_ns();
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::uint64_t SpanLog::close(std::int64_t id, std::string attrs) {
  BenchSpan& s = spans_.at(static_cast<std::size_t>(id - 1));
  s.t1_ns = evedge::obs::now_ns();
  s.attrs = std::move(attrs);
  return s.t1_ns - s.t0_ns;
}

std::int64_t SpanLog::add(std::string name, std::int64_t parent,
                          std::uint64_t t0_ns, std::uint64_t t1_ns,
                          std::string attrs) {
  const std::int64_t id = open(std::move(name), parent);
  BenchSpan& s = spans_.back();
  s.t0_ns = t0_ns;
  s.t1_ns = t1_ns;
  s.attrs = std::move(attrs);
  return id;
}

bool write_trace(const std::string& path,
                 std::span<const evedge::obs::TraceEvent> runtime_events,
                 const SpanLog& log) {
  namespace obs = evedge::obs;
  std::vector<obs::ParsedEvent> events;
  events.reserve(runtime_events.size() + log.spans().size());
  for (const obs::TraceEvent& e : runtime_events) {
    obs::ParsedEvent p;
    p.ph = e.phase == obs::Phase::kSpan      ? 'X'
           : e.phase == obs::Phase::kInstant ? 'i'
                                             : 'C';
    p.ts_us = static_cast<double>(e.t_ns) / 1e3;
    p.dur_us = static_cast<double>(e.dur_ns) / 1e3;
    p.tid = static_cast<int>(e.tid);
    p.cat = e.cat;
    p.name = e.name;
    if (e.phase == obs::Phase::kCounter) {
      p.args_json = "{\"value\":" + std::to_string(e.arg0) + "}";
    } else if (e.arg0_key != nullptr) {
      p.args_json = "{\"" + std::string(e.arg0_key) +
                    "\":" + std::to_string(e.arg0);
      if (e.arg1_key != nullptr) {
        p.args_json += ",\"" + std::string(e.arg1_key) +
                       "\":" + std::to_string(e.arg1);
      }
      p.args_json += "}";
    }
    events.push_back(std::move(p));
  }
  // The benchmark's spans go on their own track (tid 1000), with the
  // span id and parent as args; (stream, seq) when the call had one.
  for (const BenchSpan& s : log.spans()) {
    obs::ParsedEvent p;
    p.ph = 'X';
    p.ts_us = static_cast<double>(s.t0_ns) / 1e3;
    p.dur_us = static_cast<double>(s.t1_ns - s.t0_ns) / 1e3;
    p.tid = 1000;
    p.cat = "bench";
    p.name = s.name;
    p.args_json = "{\"id\":" + std::to_string(s.id) +
                  ",\"parent\":" + std::to_string(s.parent);
    if (s.stream >= 0) {
      p.args_json += ",\"stream\":" + std::to_string(s.stream) +
                     ",\"seq\":" + std::to_string(s.seq);
    }
    if (!s.attrs.empty()) p.args_json += "," + s.attrs;
    p.args_json += "}";
    events.push_back(std::move(p));
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const obs::ParsedEvent& a, const obs::ParsedEvent& b) {
                     return a.ts_us < b.ts_us;
                   });
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  obs::write_parsed_trace(out, events);
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace evbench
