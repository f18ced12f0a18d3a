// The benchmark program: replays one seeded workload through the public API of
// serve::ShardedForecastService and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as the last line of stdout.
//
//   perfbench --workload diverse-waveforms --seed 1 --seconds 10 --trace 0
//
// Load model: closed loop from one process. A pass builds a fresh service,
// offers the set-up waves and runs the cold cycle (set-up), then for each
// measured wave offers it and runs one synchronous RetrainCycle, scoring the
// published forecasts against the next wave, which the benchmark generated
// itself. One reader thread issues back-to-back forecast reads through the
// whole measured phase. A pass ends with a checkpoint and a restore. Passes
// repeat until --seconds have elapsed (at least two), and every timing is
// reported as a median over them. README.md documents every metric.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "cluster/descender.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "models/factory.h"
#include "serve/sharded_service.h"
#include "sql/templater.h"
#include "stats.h"
#include "trace/extractor.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace serve = dbaugur::serve;
using Clock = std::chrono::steady_clock;

double Now() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// Operations sent / succeeded / failed in one phase of the run.
struct PhaseCount {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
};

/// Everything a run accumulates across its passes.
struct RunState {
  std::map<std::string, PhaseCount> phases;
  uint64_t reads_raced = 0;  ///< Reads discarded because a publish raced.
  std::vector<std::string> errors;
  void Fail(const std::string& what) {
    if (errors.size() < 20) errors.push_back(what);
  }
};

// ---------------------------------------------------------------------------
// Spans (traced passes only).

class SpanLog {
 public:
  explicit SpanLog(double origin) : origin_(origin) {}

  int64_t Open(const std::string& name, int64_t parent, uint64_t cycle) {
    spans_.push_back({name, Now() - origin_, 0.0, parent, cycle, false});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void Close(int64_t id) { spans_[static_cast<size_t>(id)].end = Now() - origin_; }
  /// A span for a call made outside `parent` on the parent's inputs.
  int64_t Attributed(const std::string& name, int64_t parent, uint64_t cycle,
                     double start, double end) {
    spans_.push_back({name, start - origin_, end - origin_, parent, cycle, true});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  const std::vector<Span>& spans() const { return spans_; }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                   "\"end\": %.9f, \"parent\": %lld, \"cycle\": %llu, "
                   "\"attributed\": %s}\n",
                   i, s.name.c_str(), s.start, s.end,
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.cycle),
                   s.attributed ? "true" : "false");
    }
    return std::fclose(f) == 0;
  }

 private:
  double origin_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Reader thread: back-to-back SnapshotForTemplate(id)->ForecastTrace(i).

class Reader {
 public:
  Reader(const serve::ShardedForecastService* svc, bool split_timing)
      : svc_(svc), split_(split_timing), cache_(svc->shard_count()) {}
  ~Reader() { Stop(); }
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  void Start() { thread_ = std::thread([this] { Loop(); }); }
  void Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  LatencyHistogram total;     ///< Copy + forecast, per read.
  LatencyHistogram copy;      ///< Snapshot pointer copy (split timing only).
  LatencyHistogram forecast;  ///< ForecastTrace on a held pointer (split only).
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t raced_publish = 0;  ///< Reads discarded because a publish raced.

 private:
  struct ShardCache {
    uint64_t generation = ~uint64_t{0};
    std::vector<std::pair<uint32_t, size_t>> readable;  ///< (template, trace)
    size_t next = 0;
  };

  /// Lists the traces of `snap` whose cluster is forecast (top-K).
  static void Refresh(const serve::ServiceSnapshot& snap, ShardCache* c) {
    c->generation = snap.generation;
    c->readable.clear();
    for (size_t i = 0; i < snap.trace_count(); ++i) {
      if (!snap.ForecastTrace(i).ok()) continue;
      uint32_t id = static_cast<uint32_t>(
          std::strtoul(snap.trace_names[i].c_str() + std::strlen("template"),
                       nullptr, 10));
      c->readable.emplace_back(id, i);
    }
    c->next = 0;
  }

  void Loop() {
    const size_t shards = cache_.size();
    for (size_t s = 0; s < shards; ++s) Refresh(*svc_->snapshot(s), &cache_[s]);
    size_t s = 0;
    while (!stop_.load(std::memory_order_acquire)) {
      s = (s + 1) % shards;
      ShardCache& c = cache_[s];
      if (c.readable.empty()) {
        Refresh(*svc_->snapshot(s), &c);
        continue;
      }
      const auto [id, index] = c.readable[c.next];
      c.next = (c.next + 1) % c.readable.size();
      Clock::time_point t0 = Clock::now();
      std::shared_ptr<const serve::ServiceSnapshot> snap =
          svc_->SnapshotForTemplate(id);
      Clock::time_point t1 = split_ ? Clock::now() : t0;
      dbaugur::StatusOr<double> f = snap->ForecastTrace(index);
      Clock::time_point t2 = Clock::now();
      if (snap->generation != c.generation) {
        // A publish landed since the cache was built: `index` may name a
        // different trace now, so the read is not scored.
        ++raced_publish;
        Refresh(*snap, &c);
        continue;
      }
      ++attempted;
      if (!f.ok() || !std::isfinite(*f)) {
        ++failed;
        continue;
      }
      total.Record(static_cast<uint64_t>((t2 - t0).count()));
      if (split_) {
        copy.Record(static_cast<uint64_t>((t1 - t0).count()));
        forecast.Record(static_cast<uint64_t>((t2 - t1).count()));
      }
    }
  }

  const serve::ShardedForecastService* svc_;
  bool split_;
  std::vector<ShardCache> cache_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Per-pass results.

struct PassResult {
  bool traced = false;
  double setup_s = 0.0;
  std::vector<double> publish_lag_s;
  std::vector<double> ingest_events_per_s;
  std::vector<double> input_items_per_s;
  std::vector<double> smape_terms;
  std::vector<double> checkpoint_s;  ///< One per measured cycle.
  std::vector<double> restore_s;
  uint64_t checkpoint_bytes = 0;
  LatencyHistogram reads;
  /// Traced passes: run-wide cycle id -> layer metric name -> value, for
  /// each measured cycle.
  std::map<uint64_t, std::map<std::string, double>> layers;
};

/// Per-shard shadow of the service's training side, driven through the
/// layers' own public calls on the same events (traced passes only).
struct ShardMirror {
  explicit ShardMirror(const serve::ServeOptions& o)
      : ingestor(IngestOptions(o)), retrainer(o.pipeline, RetrainOptions(o)),
        seeds(o.seed) {}

  static serve::IngestorOptions IngestOptions(const serve::ServeOptions& o) {
    serve::IngestorOptions io;
    io.capacity = o.queue_capacity;
    io.max_templates = o.max_templates;
    io.max_lateness_seconds = o.max_lateness_seconds;
    io.min_timestamp_seconds = o.min_timestamp_seconds;
    io.max_timestamp_seconds = o.max_timestamp_seconds;
    return io;
  }
  static serve::RetrainerOptions RetrainOptions(const serve::ServeOptions& o) {
    serve::RetrainerOptions ro;
    ro.bin_interval_seconds = o.bin_interval_seconds;
    ro.min_bins = o.min_bins;
    ro.seed = o.seed;
    ro.winsorize_k = o.winsorize_k;
    ro.divergence_multiple = o.divergence_multiple;
    return ro;
  }

  serve::TraceIngestor ingestor;
  serve::Retrainer retrainer;
  dbaugur::Rng seeds;  ///< Replays the retrainer's per-cycle seed stream.
  std::shared_ptr<const serve::ServiceSnapshot> last_good;
  std::vector<serve::TraceEvent> pending;  ///< Routed events not yet probed.
  uint64_t generation = 0;
};

// ---------------------------------------------------------------------------

class Bench {
 public:
  Bench(const WorkloadSpec& spec, const WorkloadInputs& in,
        const std::string& scratch, RunState* run, SpanLog* spans)
      : spec_(spec), in_(in), scratch_(scratch), run_(run), spans_(spans) {}

  /// One untimed set-up, so the first pass does not pay the process's
  /// first-touch page faults and thread start-up.
  void WarmUp();
  PassResult RunPass(size_t pass_index, bool traced);

 private:
  bool text() const { return spec_.kind != WorkloadKind::kDiverseWaveforms; }

  /// Offers one wave through parse -> template -> Offer. Returns the time of
  /// the last Offer.
  double OfferWave(const Wave& w, bool measured, PassResult* r);
  /// Set-up: construction, set-up waves, cold cycle, first readable
  /// forecast. Returns its duration.
  double SetUp(std::vector<size_t>* order, PassResult* r);
  /// Realized arrivals of template `id` in `bin`.
  double Realized(uint32_t id, int64_t bin) const;
  void Score(int64_t next_bin, PassResult* r);
  /// One synchronous cycle; checks every shard that got events published.
  /// Returns the cycle's wall time.
  double Cycle(std::vector<size_t>* order);
  void Probe(uint64_t cycle, const std::vector<size_t>& order, bool record,
             PassResult* r);
  void CheckTextTotals();
  /// One save and one restore into a fresh service, checked bit for bit.
  /// The files are removed afterwards, so every save starts from an empty
  /// directory.
  void Checkpoint(size_t pass_index, PassResult* r);

  const WorkloadSpec& spec_;
  const WorkloadInputs& in_;
  std::string scratch_;
  RunState* run_;
  SpanLog* spans_;

  // Per-pass state.
  std::unique_ptr<serve::ShardedForecastService> svc_;
  std::unique_ptr<dbaugur::sql::TemplateRegistry> registry_;
  std::vector<std::unique_ptr<ShardMirror>> mirrors_;
  std::vector<uint64_t> accepted_at_cycle_;
  uint64_t rejected_no_sql_ = 0;
  uint64_t rejected_bad_ts_ = 0;
  uint64_t rejected_statements_ = 0;
  bool traced_ = false;
  uint64_t cycle_ = 0;        ///< Span cycle id; 0 outside any cycle.
  uint64_t cycles_run_ = 0;   ///< Cycle ids are unique across the run.
  std::map<std::string, double> wave_layers_;  ///< Current wave's layer data.
};

double Bench::Realized(uint32_t id, int64_t bin) const {
  if (!text()) return WaveformCount(in_, id, bin);
  auto it = in_.realized.find(registry_->template_text(id));
  if (it == in_.realized.end()) return 0.0;
  auto b = it->second.find(bin);
  return b == it->second.end() ? 0.0 : b->second;
}

double Bench::OfferWave(const Wave& w, bool measured, PassResult* r) {
  std::vector<serve::TraceEvent> parsed_events;
  const std::vector<serve::TraceEvent>* events = &w.events;
  PhaseCount& lines = run_->phases["lines"];
  double t0 = Now();
  int64_t span = -1;
  if (text()) {
    if (traced_) span = spans_->Open("trace.parse", -1, cycle_);
    dbaugur::trace::ParsedQueryLog parsed =
        dbaugur::trace::ParseQueryLogLenient(w.text);
    if (traced_) {
      spans_->Close(span);
      span = spans_->Open("sql.template", -1, cycle_);
    }
    parsed_events.reserve(parsed.entries.size());
    uint64_t rejected = 0;
    for (const dbaugur::trace::LogEntry& e : parsed.entries) {
      dbaugur::StatusOr<size_t> id = registry_->Record(e.sql);
      if (!id.ok()) {
        ++rejected;
        continue;
      }
      parsed_events.push_back(
          {static_cast<uint32_t>(*id), e.timestamp, 1.0});
    }
    if (traced_) spans_->Close(span);
    events = &parsed_events;
    rejected_no_sql_ += parsed.rejected.no_sql;
    rejected_bad_ts_ += parsed.rejected.bad_timestamp;
    rejected_statements_ += rejected;
    lines.sent += w.lines;
    lines.ok += parsed_events.size();
    wave_layers_["trace.lines"] = static_cast<double>(w.lines);
    wave_layers_["trace.rejected_lines"] =
        static_cast<double>(parsed.rejected.total());
    wave_layers_["sql.statements"] = static_cast<double>(parsed.entries.size());
  } else if (traced_) {
    // No log text on this workload: the layers are called on empty input.
    span = spans_->Open("trace.parse", -1, cycle_);
    (void)dbaugur::trace::ParseQueryLogLenient(std::string());
    spans_->Close(span);
    span = spans_->Open("sql.template", -1, cycle_);
    spans_->Close(span);
    wave_layers_["trace.lines"] = 0.0;
    wave_layers_["trace.rejected_lines"] = 0.0;
    wave_layers_["sql.statements"] = 0.0;
  }
  double t1 = Now();
  if (traced_) span = spans_->Open("ingest.offer", -1, cycle_);
  PhaseCount& ingest = run_->phases["ingest"];
  uint64_t accepted = 0;
  for (const serve::TraceEvent& e : *events) {
    if (svc_->Offer(e)) ++accepted;
  }
  double t2 = Now();
  if (traced_) {
    spans_->Close(span);
    for (const serve::TraceEvent& e : *events) {
      mirrors_[svc_->ShardOf(e.template_id)]->pending.push_back(e);
    }
    wave_layers_["ingest.events"] = static_cast<double>(accepted);
    wave_layers_["sql.templates"] = static_cast<double>(registry_->size());
  }
  ingest.sent += events->size();
  ingest.ok += accepted;
  ingest.failed += events->size() - accepted;
  if (accepted != events->size()) {
    run_->Fail("ingest dropped " + std::to_string(events->size() - accepted) +
               " events");
  }
  if (measured && t2 > t1) {
    r->ingest_events_per_s.push_back(static_cast<double>(accepted) / (t2 - t1));
    uint64_t items = text() ? w.lines : w.events.size();
    r->input_items_per_s.push_back(static_cast<double>(items) / (t2 - t0));
  }
  return t2;
}

double Bench::Cycle(std::vector<size_t>* order) {
  const size_t shards = svc_->shard_count();
  std::vector<serve::ServeStats> before(shards);
  for (size_t s = 0; s < shards; ++s) before[s] = svc_->shard(s).stats();
  double t0 = Now();
  *order = svc_->RetrainCycle();
  double dt = Now() - t0;
  PhaseCount& cycles = run_->phases["retrain"];
  for (size_t s = 0; s < shards; ++s) {
    uint64_t acc = svc_->shard(s).events_accepted();
    bool had_events = acc != accepted_at_cycle_[s];
    accepted_at_cycle_[s] = acc;
    serve::ServeStats after = svc_->shard(s).stats();
    // A shard whose templates span fewer bins than the model window skips
    // its retrain by design (counted in retrains_skipped); not a failure.
    if (!had_events || (after.retrains_skipped != before[s].retrains_skipped &&
                        after.retrains_failed == before[s].retrains_failed)) {
      continue;
    }
    ++cycles.sent;
    if (after.retrains_failed != before[s].retrains_failed ||
        after.generation <= before[s].generation) {
      ++cycles.failed;
      run_->Fail("shard " + std::to_string(s) +
                 " did not publish after receiving events");
    } else {
      ++cycles.ok;
    }
  }
  if (spec_.kind == WorkloadKind::kDiverseWaveforms) {
    auto snap = svc_->snapshot(0);
    std::set<int> ids(snap->trace_cluster.begin(), snap->trace_cluster.end());
    if (ids.size() != in_.distinct_waveforms) {
      run_->Fail("diverse-waveforms: " + std::to_string(ids.size()) +
                 " clusters for " + std::to_string(in_.distinct_waveforms) +
                 " distinct waveforms");
    }
  }
  return dt;
}

void Bench::Score(int64_t next_bin, PassResult* r) {
  for (size_t s = 0; s < svc_->shard_count(); ++s) {
    auto snap = svc_->snapshot(s);
    for (size_t i = 0; i < snap->trace_count(); ++i) {
      dbaugur::StatusOr<double> f = snap->ForecastTrace(i);
      if (!f.ok()) continue;  // Cluster outside the top-K.
      uint32_t id = static_cast<uint32_t>(std::strtoul(
          snap->trace_names[i].c_str() + std::strlen("template"), nullptr, 10));
      r->smape_terms.push_back(SmapeTerm(*f, Realized(id, next_bin)));
    }
  }
}

void Bench::Probe(uint64_t cycle, const std::vector<size_t>& order,
                  bool record, PassResult* r) {
  namespace core = dbaugur::core;
  std::map<std::string, double> m = wave_layers_;
  auto add = [&](const std::string& k, double v) { m[k] += v; };
  for (size_t s = 0; s < mirrors_.size(); ++s) {
    ShardMirror& mi = *mirrors_[s];
    const serve::ServeOptions& o = spec_.service.shard;
    for (const serve::TraceEvent& e : mi.pending) mi.ingestor.Offer(e);
    mi.pending.clear();
    add("ingest.dropped", static_cast<double>(mi.ingestor.dropped()));
    std::vector<serve::TraceEvent> drained;
    int64_t sp = spans_->Open("ingest.drain", -1, cycle);
    mi.ingestor.Drain(&drained);
    spans_->Close(sp);
    sp = spans_->Open("binner.fold", -1, cycle);
    mi.retrainer.Fold(drained);
    spans_->Close(sp);
    const serve::TraceBinner& binner = mi.retrainer.binner();
    // Retrain only what the scheduler retrained, so the shadow's seed stream
    // stays in step with the shard's.
    if (std::find(order.begin(), order.end(), s) == order.end() ||
        binner.bin_count() < mi.retrainer.min_bins()) {
      continue;
    }

    // Children of Rebuild, first materialized on the same binner state.
    double m0 = Now();
    auto traces = binner.Traces();
    double m1 = Now();
    if (!traces.ok()) {
      run_->Fail("probe: Traces: " + traces.status().ToString());
      continue;
    }
    uint64_t winsorized_before = mi.retrainer.values_winsorized();
    int64_t rebuild = spans_->Open("retrainer.rebuild", -1, cycle);
    auto snap = mi.retrainer.Rebuild(++mi.generation, mi.last_good.get());
    spans_->Close(rebuild);
    spans_->Attributed("binner.materialize", rebuild, cycle, m0, m1);
    if (!snap.ok() || *snap == nullptr) {
      run_->Fail("probe: Rebuild failed");
      continue;
    }
    add("retrainer.winsorized",
        static_cast<double>(mi.retrainer.values_winsorized() - winsorized_before));

    // Rebuild's input: the winsorized traces, and its per-cycle seed.
    std::vector<dbaugur::ts::Series> input = std::move(traces).value();
    std::vector<std::string> names;
    for (dbaugur::ts::Series& t : input) {
      names.push_back(t.name());
      std::vector<double>& v = t.mutable_values();
      double med = dbaugur::Median(v);
      std::vector<double> dev;
      for (double x : v) dev.push_back(std::abs(x - med));
      double mad = dbaugur::Median(std::move(dev));
      if (!(o.winsorize_k > 0.0) || !(mad > 0.0)) continue;
      double radius = o.winsorize_k * 1.4826 * mad;
      for (double& x : v) x = std::clamp(x, med - radius, med + radius);
    }
    core::DBAugurOptions opts = o.pipeline;
    opts.forecaster.seed = mi.seeds.engine()();
    opts.tolerate_fit_failures = true;

    dbaugur::cluster::Descender descender(opts.clustering);
    double c0 = Now();
    dbaugur::Status cst = descender.AddTraces(input);
    double c1 = Now();
    if (!cst.ok()) run_->Fail("probe: AddTraces: " + cst.ToString());
    const dbaugur::dtw::PruningStats& ps = descender.pruning_stats();
    add("cluster.traces", static_cast<double>(descender.trace_count()));
    add("cluster.clusters", static_cast<double>(descender.cluster_count()));
    add("dtw.kim_rejections", static_cast<double>(ps.kim_rejections));
    add("dtw.keogh_rejections", static_cast<double>(ps.keogh_rejections));
    add("dtw.full_dtw", static_cast<double>(ps.full_dtw));
    add("dtw.lb_evaluations", static_cast<double>(descender.distance_evals()));

    std::unique_ptr<dbaugur::ThreadPool> pool;
    if (opts.clustering.threads > 1) {
      pool = std::make_unique<dbaugur::ThreadPool>(opts.clustering.threads);
    }
    double b0 = Now();
    auto state = core::BuildTrainedState(opts, input, pool.get());
    double b1 = Now();
    if (!state.ok()) {
      run_->Fail("probe: BuildTrainedState: " + state.status().ToString());
      continue;
    }
    int64_t build = spans_->Attributed("fit.build", rebuild, cycle, b0, b1);
    spans_->Attributed("cluster.add_traces", build, cycle, c0, c1);
    add("fit.clusters", static_cast<double>(state->forecasts.size()));
    for (const core::ClusterForecast& cf : state->forecasts) {
      add("fit.failed", cf.fit_status.ok() ? 0.0 : 1.0);
      for (const char* member : {"WFGAN", "TCN", "MLP"}) {
        auto model = dbaugur::models::MakeForecaster(member, opts.forecaster);
        if (!model.ok()) continue;
        std::string key = std::string("fit.") + member;
        std::transform(key.begin(), key.end(), key.begin(), ::tolower);
        sp = spans_->Open(key, -1, cycle);
        dbaugur::Status fst = (*model)->Fit(cf.representative.values());
        spans_->Close(sp);
        if (!fst.ok()) add("fit.failed", 1.0);
      }
    }
    serve::SnapshotFallback fb;
    fb.opts = &opts;
    fb.last_good = mi.last_good.get();
    fb.divergence_multiple = o.divergence_multiple;
    double s0 = Now();
    auto shadow = serve::MakeSnapshot(std::move(state).value(), names,
                                      opts.forecaster.window, mi.generation, fb);
    double s1 = Now();
    spans_->Attributed("snapshot.build", rebuild, cycle, s0, s1);
    if (!shadow.ok()) run_->Fail("probe: MakeSnapshot failed");
    mi.last_good = *snap;
    add("snapshot.degraded", static_cast<double>((*snap)->degraded_count()));
    dbaugur::BufWriter w;
    sp = spans_->Open("snapshot.serialize", -1, cycle);
    dbaugur::Status sst = serve::SerializeSnapshot(**snap, &w);
    spans_->Close(sp);
    if (!sst.ok()) run_->Fail("probe: SerializeSnapshot failed");
    add("snapshot.bytes", static_cast<double>(w.buffer().size()));
    add("binner.templates", static_cast<double>(binner.template_count()));
    add("binner.bins", static_cast<double>(binner.bin_count()));
    // The shadow must have done the service's work: same forecasts.
    auto live = svc_->snapshot(s);
    if (live->cluster_count() != (*snap)->cluster_count()) {
      run_->Fail("probe: shadow retrain diverged from shard " +
                 std::to_string(s));
    } else {
      for (size_t k = 0; k < live->cluster_count(); ++k) {
        if (live->clusters[k].next_value != (*snap)->clusters[k].next_value) {
          run_->Fail("probe: shadow forecast differs on shard " +
                     std::to_string(s));
          break;
        }
      }
    }
  }
  if (record) r->layers[cycle] = std::move(m);
}

void Bench::CheckTextTotals() {
  if (!text()) return;
  std::map<std::string, int64_t> got;
  for (size_t id = 0; id < registry_->size(); ++id) {
    got[registry_->template_text(id)] += registry_->count(id);
  }
  if (got != in_.template_totals) {
    run_->Fail("per-template totals differ from the generator's ground truth");
  }
  if (rejected_no_sql_ != in_.expect_no_sql ||
      rejected_bad_ts_ != in_.expect_bad_timestamp ||
      rejected_statements_ != in_.expect_bad_statements) {
    run_->Fail("line rejections (" + std::to_string(rejected_no_sql_) + "/" +
               std::to_string(rejected_bad_ts_) + "/" +
               std::to_string(rejected_statements_) +
               ") differ from the ground truth (" +
               std::to_string(in_.expect_no_sql) + "/" +
               std::to_string(in_.expect_bad_timestamp) + "/" +
               std::to_string(in_.expect_bad_statements) + ")");
  }
  uint64_t got_rej = rejected_no_sql_ + rejected_bad_ts_ + rejected_statements_;
  uint64_t want_rej = in_.expect_no_sql + in_.expect_bad_timestamp +
                      in_.expect_bad_statements;
  if (got_rej > want_rej) run_->phases["lines"].failed += got_rej - want_rej;
}

void Bench::Checkpoint(size_t pass_index, PassResult* r) {
  namespace fs = std::filesystem;
  const std::string base =
      scratch_ + "/ckpt-" + std::to_string(::getpid()) + "-" +
      std::to_string(pass_index);
  std::vector<std::string> files = {
      serve::ShardedForecastService::ManifestPath(base)};
  for (size_t s = 0; s < svc_->shard_count(); ++s) {
    files.push_back(serve::ShardedForecastService::ShardPath(base, s));
  }
  PhaseCount& save = run_->phases["checkpoint"];
  PhaseCount& load = run_->phases["restore"];
  ++save.sent;
  int64_t sp = traced_ ? spans_->Open("checkpoint.save", -1, 0) : -1;
  double t0 = Now();
  dbaugur::Status st = svc_->SaveToFiles(base);
  r->checkpoint_s.push_back(Now() - t0);
  if (traced_) spans_->Close(sp);
  if (!st.ok()) {
    ++save.failed;
    run_->Fail("SaveToFiles: " + st.ToString());
    return;
  }
  ++save.ok;
  r->checkpoint_bytes = 0;
  for (const std::string& f : files) {
    std::error_code ec;
    uintmax_t size = fs::file_size(f, ec);
    if (!ec) r->checkpoint_bytes += size;
  }

  ++load.sent;
  serve::ShardedForecastService restored(spec_.service);
  sp = traced_ ? spans_->Open("checkpoint.load", -1, 0) : -1;
  t0 = Now();
  st = restored.LoadFromFiles(base);
  bool readable = false;
  for (size_t s = 0; st.ok() && s < restored.shard_count() && !readable; ++s) {
    auto snap = restored.snapshot(s);
    for (size_t i = 0; i < snap->trace_count() && !readable; ++i) {
      readable = snap->ForecastTrace(i).ok();
    }
  }
  r->restore_s.push_back(Now() - t0);
  if (traced_) spans_->Close(sp);
  bool same = st.ok() && readable;
  for (size_t s = 0; same && s < svc_->shard_count(); ++s) {
    auto a = svc_->snapshot(s);
    auto b = restored.snapshot(s);
    same = a->cluster_count() == b->cluster_count();
    for (size_t k = 0; same && k < a->cluster_count(); ++k) {
      double x = *a->ForecastCluster(k), y = *b->ForecastCluster(k);
      same = std::memcmp(&x, &y, sizeof x) == 0;
    }
  }
  if (same) {
    ++load.ok;
  } else {
    ++load.failed;
    run_->Fail("restore did not reproduce every ForecastCluster bit-for-bit" +
               (st.ok() ? std::string() : ": " + st.ToString()));
  }
  for (const std::string& f : files) {
    std::error_code ec;
    fs::remove(f, ec);
    fs::remove(f + ".bak", ec);
  }
}

double Bench::SetUp(std::vector<size_t>* order, PassResult* r) {
  double t0 = Now();
  svc_ = std::make_unique<serve::ShardedForecastService>(spec_.service);
  registry_ = std::make_unique<dbaugur::sql::TemplateRegistry>();
  for (size_t k = 0; k < spec_.history_waves; ++k) {
    OfferWave(in_.waves[k], /*measured=*/false, r);
  }
  Cycle(order);
  bool readable = false;
  for (size_t s = 0; s < svc_->shard_count() && !readable; ++s) {
    auto snap = svc_->snapshot(s);
    for (size_t i = 0; i < snap->trace_count() && !readable; ++i) {
      readable = snap->ForecastTrace(i).ok();
    }
  }
  double setup_s = Now() - t0;
  if (!readable) run_->Fail("no forecast readable after the cold cycle");
  return setup_s;
}

void Bench::WarmUp() {
  PassResult r;
  std::vector<size_t> order;
  traced_ = false;
  accepted_at_cycle_.assign(spec_.service.shard_count, 0);
  SetUp(&order, &r);
  svc_.reset();
}

PassResult Bench::RunPass(size_t pass_index, bool traced) {
  PassResult r;
  r.traced = traced;
  traced_ = traced;
  cycle_ = ++cycles_run_;
  rejected_no_sql_ = rejected_bad_ts_ = rejected_statements_ = 0;
  mirrors_.clear();
  const size_t shards = spec_.service.shard_count;
  if (traced) {
    for (size_t s = 0; s < shards; ++s) {
      mirrors_.push_back(std::make_unique<ShardMirror>(spec_.service.shard));
    }
  }
  accepted_at_cycle_.assign(shards, 0);

  std::vector<size_t> order;
  r.setup_s = SetUp(&order, &r);
  if (traced) Probe(cycle_, order, /*record=*/false, &r);
  cycle_ = 0;
  Score(in_.waves[spec_.history_waves].first_bin, &r);

  Reader reader(svc_.get(), traced);
  reader.Start();
  const size_t first = spec_.history_waves;
  const size_t last = in_.waves.size();
  for (size_t k = first; k < last; ++k) {
    cycle_ = ++cycles_run_;
    wave_layers_.clear();
    const Wave& w = in_.waves[k];
    double offered = OfferWave(w, /*measured=*/true, &r);
    size_t depth = 0;
    for (size_t s = 0; s < shards; ++s) {
      depth = std::max(depth, svc_->shard(s).queue_depth());
    }
    int64_t sp = traced ? spans_->Open("cycle.retrain_cycle", -1, cycle_) : -1;
    double cycle_s = Cycle(&order);
    if (traced) spans_->Close(sp);
    r.publish_lag_s.push_back(Now() - offered);
    if (traced) {
      double busy = 0.0, slowest = 0.0;
      for (size_t s : order) {
        double sec = svc_->shard(s).last_retrain_seconds();
        busy += sec;
        slowest = std::max(slowest, sec);
      }
      wave_layers_["ingest.queue_depth_max"] = static_cast<double>(depth);
      wave_layers_["cycle.shards_retrained"] = static_cast<double>(order.size());
      wave_layers_["cycle.shard_retrain_max_s"] = slowest;
      wave_layers_["cycle.worker_busy_share"] =
          busy / (static_cast<double>(spec_.service.retrain_workers) * cycle_s);
      Probe(cycle_, order, /*record=*/true, &r);
    }
    if (k + 1 < last) Score(in_.waves[k + 1].first_bin, &r);
    // One checkpoint round per cycle, not a burst at the end of the pass:
    // spread over the run, the rounds sample the disk's background flushes
    // evenly, and each saves a freshly published snapshot, as a periodic
    // checkpoint of a serving service would.
    Checkpoint(pass_index, &r);
  }
  cycle_ = 0;
  reader.Stop();
  r.reads = reader.total;
  PhaseCount& reads = run_->phases["read"];
  reads.sent += reader.attempted;
  reads.ok += reader.attempted - reader.failed;
  reads.failed += reader.failed;
  run_->reads_raced += reader.raced_publish;
  if (reader.failed > 0) {
    run_->Fail(std::to_string(reader.failed) +
               " reads after the first publish were not OK and finite");
  }
  if (traced) {
    // Read split timing is per pass, not per cycle: store it on every cycle.
    for (auto& [id, m] : r.layers) {
      m["read.snapshot_copy_ns"] = reader.copy.Percentile(50);
      m["read.forecast_ns"] = reader.forecast.Percentile(50);
    }
  }
  CheckTextTotals();
  svc_.reset();
  return r;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<double> Concat(const std::vector<PassResult>& passes,
                           std::vector<double> PassResult::*field,
                           bool traced) {
  std::vector<double> out;
  for (const PassResult& p : passes) {
    if (p.traced != traced) continue;
    out.insert(out.end(), (p.*field).begin(), (p.*field).end());
  }
  return out;
}

double PassMedian(const std::vector<PassResult>& passes,
                  double PassResult::*field, bool traced) {
  std::vector<double> v;
  for (const PassResult& p : passes) {
    if (p.traced == traced) v.push_back(p.*field);
  }
  return dbaugur::Median(v);
}

LatencyHistogram Reads(const std::vector<PassResult>& passes, bool traced) {
  LatencyHistogram h;
  for (const PassResult& p : passes) {
    if (p.traced == traced) h.Merge(p.reads);
  }
  return h;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// (name, unit) of every per-layer metric, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& LayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kLayers = {
      {"trace.parse_s", "s"},
      {"trace.lines", "count"},
      {"trace.rejected_lines", "count"},
      {"sql.template_s", "s"},
      {"sql.statements", "count"},
      {"sql.templates", "count"},
      {"ingest.offer_s", "s"},
      {"ingest.drain_s", "s"},
      {"ingest.events", "count"},
      {"ingest.dropped", "count"},
      {"ingest.queue_depth_max", "count"},
      {"binner.fold_s", "s"},
      {"binner.materialize_s", "s"},
      {"binner.templates", "count"},
      {"binner.bins", "count"},
      {"retrainer.rebuild_s", "s"},
      {"retrainer.winsorized", "count"},
      {"retrainer.self_s", "s"},
      {"cluster.add_traces_s", "s"},
      {"cluster.traces", "count"},
      {"cluster.clusters", "count"},
      {"dtw.kim_rejections", "count"},
      {"dtw.keogh_rejections", "count"},
      {"dtw.full_dtw", "count"},
      {"dtw.lb_evaluations", "count"},
      {"dtw.full_dtw_share", "share"},
      {"fit.build_s", "s"},
      {"fit.total_s", "s"},
      {"fit.clusters", "count"},
      {"fit.wfgan_s", "s"},
      {"fit.tcn_s", "s"},
      {"fit.mlp_s", "s"},
      {"fit.failed", "count"},
      {"snapshot.build_s", "s"},
      {"snapshot.degraded", "count"},
      {"snapshot.serialize_s", "s"},
      {"snapshot.bytes", "bytes"},
      {"read.snapshot_copy_ns", "ns"},
      {"read.forecast_ns", "ns"},
      {"cycle.retrain_cycle_s", "s"},
      {"cycle.shards_retrained", "count"},
      {"cycle.shard_retrain_max_s", "s"},
      {"cycle.worker_busy_share", "share"},
      {"checkpoint.save_s", "s"},
      {"checkpoint.load_s", "s"},
      {"checkpoint.bytes", "bytes"},
      {"overhead.setup_s", "s"},
      {"overhead.publish_lag_s", "s"},
      {"overhead.read_p50_ns", "ns"},
  };
  return kLayers;
}

/// Folds the traced passes' spans into their per-cycle layer maps: span
/// "x.y" adds its duration to metric "x.y_s"; the attributed parents also
/// get their self times.
void AddSpanTimes(const SpanLog& log, std::vector<PassResult>* passes) {
  std::map<uint64_t, std::map<std::string, double>*> cycles;
  for (PassResult& p : *passes) {
    for (auto& [id, m] : p.layers) cycles[id] = &m;
  }
  const std::vector<Span>& spans = log.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto c = cycles.find(s.cycle);
    if (c == cycles.end()) continue;  // Set-up cycles, checkpoints.
    std::map<std::string, double>& m = *c->second;
    m[s.name + "_s"] += s.duration();
    if (s.name == "retrainer.rebuild") {
      m["retrainer.self_s"] += SelfTime(spans, i);
    } else if (s.name == "fit.build") {
      m["fit.total_s"] += SelfTime(spans, i);
    }
  }
}

void PrintMetrics(const std::vector<Metric>& metrics, bool correct,
                  uint64_t attempted, uint64_t failed) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--scratch DIR]\n"
               "workloads: diverse-waveforms bustracker-fit log-firehose\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload, scratch = ".";
  uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (a == "--scratch" && has_value) {
      scratch = argv[++i];
    } else if (a == "--smoke") {
      smoke = true;
    } else {
      return Usage();
    }
  }
  WorkloadSpec spec;
  if (seconds <= 0.0 || (trace != 0 && trace != 1) ||
      !MakeWorkloadSpec(workload, smoke, &spec)) {
    return Usage();
  }
  std::filesystem::create_directories(scratch);

  // All input exists before any timer starts.
  double g0 = Now();
  WorkloadInputs in = GenerateInputs(&spec, seed);
  double generate_s = Now() - g0;

  RunState run;
  SpanLog spans(Now());
  Bench bench(spec, in, scratch, &run, &spans);
  std::vector<PassResult> passes;
  const double deadline = Now() + seconds;
  bench.WarmUp();
  // Untraced: at least two passes (the sMAPE determinism check compares
  // them). Traced: untraced and traced passes alternate, at least one each,
  // so the tracing overhead is measured in the same process.
  size_t untraced = 0, traced = 0;
  while (true) {
    bool enough = trace == 0 ? untraced >= 2 : (untraced >= 1 && traced >= 1);
    if (enough && Now() >= deadline) break;
    bool do_trace = trace == 1 && untraced > traced;
    passes.push_back(bench.RunPass(passes.size(), do_trace));
    (do_trace ? traced : untraced) += 1;
    if (!run.errors.empty()) break;
  }

  for (const PassResult& p : passes) {
    if (p.smape_terms != passes[0].smape_terms) {
      run.Fail("forecast_smape differs between passes of the same seed");
      break;
    }
  }

  const LatencyHistogram reads = Reads(passes, false);
  const std::vector<double> lags = Concat(passes, &PassResult::publish_lag_s, false);
  const uint32_t read_tail = TailPercentile(reads.count());
  const uint32_t lag_tail = TailPercentile(lags.size());
  if (reads.count() < 1000) run.Fail("fewer than 1000 reads measured");

  std::vector<Metric> metrics;
  if (trace == 0) {
    metrics = {
        {"setup_s", PassMedian(passes, &PassResult::setup_s, false), "s"},
        {"publish_lag_s", dbaugur::Median(lags), "s"},
        {"read_p50_ns", reads.Percentile(50), "ns"},
        {"read_p99_ns", reads.Percentile(99), "ns"},
        {"ingest_events_per_s",
         dbaugur::Median(Concat(passes, &PassResult::ingest_events_per_s, false)),
         "1/s"},
        {"input_items_per_s",
         dbaugur::Median(Concat(passes, &PassResult::input_items_per_s, false)),
         "1/s"},
        {"forecast_smape", SmapePercent(passes[0].smape_terms), "%"},
        {"checkpoint_s",
         dbaugur::Median(Concat(passes, &PassResult::checkpoint_s, false)), "s"},
        {"restore_s",
         dbaugur::Median(Concat(passes, &PassResult::restore_s, false)), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    AddSpanTimes(spans, &passes);
    std::map<std::string, std::vector<double>> per_cycle;
    for (const PassResult& p : passes) {
      for (const auto& [id, m] : p.layers) {
        for (const auto& [k, v] : m) per_cycle[k].push_back(v);
      }
      if (!p.traced) continue;
      for (double v : p.checkpoint_s) per_cycle["checkpoint.save_s"].push_back(v);
      for (double v : p.restore_s) per_cycle["checkpoint.load_s"].push_back(v);
      per_cycle["checkpoint.bytes"].push_back(
          static_cast<double>(p.checkpoint_bytes));
    }
    for (size_t i = 0; i < per_cycle["dtw.full_dtw"].size(); ++i) {
      double evals = per_cycle["dtw.lb_evaluations"][i];
      per_cycle["dtw.full_dtw_share"].push_back(
          evals > 0 ? per_cycle["dtw.full_dtw"][i] / evals : 0.0);
    }
    per_cycle["overhead.setup_s"] = {
        PassMedian(passes, &PassResult::setup_s, true) -
        PassMedian(passes, &PassResult::setup_s, false)};
    per_cycle["overhead.publish_lag_s"] = {
        dbaugur::Median(Concat(passes, &PassResult::publish_lag_s, true)) -
        dbaugur::Median(lags)};
    per_cycle["overhead.read_p50_ns"] = {
        Reads(passes, true).Percentile(50) - reads.Percentile(50)};
    for (const auto& [name, unit] : LayerMetrics()) {
      auto it = per_cycle.find(name);
      if (it == per_cycle.end() || it->second.empty()) {
        run.Fail("traced run did not measure " + name);
        metrics.push_back({name, 0.0, unit});
      } else {
        metrics.push_back({name, dbaugur::Median(it->second), unit});
      }
    }
    std::string path =
        scratch + "/spans-" + spec.name + "-" + std::to_string(seed) + ".jsonl";
    if (spans.Write(path)) {
      std::fprintf(stderr, "perfbench: %zu spans written to %s\n",
                   spans.spans().size(), path.c_str());
    } else {
      run.Fail("cannot write " + path);
    }
  }

  uint64_t attempted = 0, failed = 0;
  for (const auto& [name, c] : run.phases) {
    attempted += c.sent;
    failed += c.failed;
  }
  const bool correct = run.errors.empty();
  if (!correct && failed == 0) failed = 1;  // A failed check is a failure.

  // Report: provenance, thread settings, per-phase counts, sample counts.
  const serve::ShardedServeOptions& so = spec.service;
  size_t lanes = so.shard.pipeline.clustering.threads;
  std::printf("{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n",
              spec.name.c_str(), static_cast<unsigned long long>(seed));
  std::printf("  \"build_type\": \"%s\",\n  \"nproc\": %u,\n",
              PERFBENCH_BUILD_TYPE, std::thread::hardware_concurrency());
  dbaugur::bench::WriteSimdProvenance(stdout);
  // Busy at once: the reader, plus the producer or (while it waits inside
  // RetrainCycle) every worker's lanes.
  std::printf("  \"threads\": {\"producer\": 1, \"reader\": 1, "
              "\"retrain_workers\": %zu, \"clustering_threads\": %zu, "
              "\"busy_max\": %zu},\n",
              so.retrain_workers, lanes,
              1 + std::max<size_t>(1, so.retrain_workers * lanes));
  std::printf("  \"shards\": %zu,\n  \"generate_s\": %.6f,\n", so.shard_count,
              generate_s);
  std::printf("  \"passes\": {\"untraced\": %zu, \"traced\": %zu},\n",
              untraced, traced);
  std::printf("  \"reads\": {\"samples\": %llu, \"tail_pct\": %.2f, "
              "\"tail_ns\": %.3f, \"raced_publish\": %llu},\n",
              static_cast<unsigned long long>(reads.count()), read_tail / 100.0,
              reads.Percentile(read_tail / 100.0),
              static_cast<unsigned long long>(run.reads_raced));
  std::printf("  \"publish_lag\": {\"samples\": %zu, \"tail_pct\": %.2f},\n",
              lags.size(), lag_tail / 100.0);
  std::printf("  \"smape_terms\": %zu,\n  \"phases\": {",
              passes[0].smape_terms.size());
  bool first = true;
  for (const auto& [name, c] : run.phases) {
    std::printf("%s\"%s\": {\"sent\": %llu, \"ok\": %llu, \"failed\": %llu}",
                first ? "" : ", ", name.c_str(),
                static_cast<unsigned long long>(c.sent),
                static_cast<unsigned long long>(c.ok),
                static_cast<unsigned long long>(c.failed));
    first = false;
  }
  std::printf("},\n  \"errors\": [");
  for (size_t i = 0; i < run.errors.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ", run.errors[i].c_str());
    std::fprintf(stderr, "perfbench: FAILED: %s\n", run.errors[i].c_str());
  }
  std::printf("]\n}\n");
  PrintMetrics(metrics, correct, std::max<uint64_t>(attempted, 1), failed);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
