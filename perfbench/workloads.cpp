#include "workloads.h"

#include <algorithm>
#include <string>

#include "chaos/stream_gen.h"
#include "common/contracts.h"
#include "common/rng.h"
#include "sql/templater.h"
#include "workloads/query_log.h"

namespace perfbench {

namespace {

namespace serve = dbaugur::serve;

constexpr int64_t kInterval = 600;  // The paper's 10-minute forecasting bin.
/// diverse-waveforms: bins whose level steps encode the waveform id.
constexpr int64_t kCodeBins = 8;
constexpr uint32_t kCodes = 6561;  // 3^kCodeBins.

/// Options shared by every workload; each workload then pins its own
/// shard/worker/lane counts and model sizes explicitly.
serve::ShardedServeOptions BaseOptions() {
  serve::ShardedServeOptions so;
  so.shard.bin_interval_seconds = kInterval;
  so.shard.pipeline.forecaster.horizon = 1;
  // Overload ladder off. Its trigger is a backlog that grows three cycles
  // running, sampled before the drain; in this closed loop every cycle
  // drains every queue, so that only tracks wave sizes growing with the
  // time of day, and it would defer shards of a service that keeps up.
  so.overload.grow_cycles = 0;
  return so;
}

/// Splits time-ordered "<ts> <sql>" lines into bin-aligned waves.
void AddLine(std::vector<Wave>* waves, int64_t bins_per_wave, int64_t bin,
             const std::string& line) {
  Wave& w = (*waves)[static_cast<size_t>(bin / bins_per_wave)];
  w.text += line;
  w.text += '\n';
  ++w.lines;
}

std::vector<Wave> EmptyWaves(const WorkloadSpec& spec) {
  std::vector<Wave> waves(spec.history_waves + spec.measured_waves);
  for (size_t k = 0; k < waves.size(); ++k) {
    waves[k].first_bin = static_cast<int64_t>(k) * spec.bins_per_wave;
    waves[k].end_bin = waves[k].first_bin + spec.bins_per_wave;
  }
  return waves;
}

int64_t TotalBins(const WorkloadSpec& spec) {
  return static_cast<int64_t>(spec.history_waves + spec.measured_waves) *
         spec.bins_per_wave;
}

void GenerateDiverse(const WorkloadSpec& spec, uint64_t seed,
                     WorkloadInputs* in) {
  const size_t templates = spec.service.shard.max_templates;
  // Three quarters of the templates get a waveform of their own; the rest
  // repeat one of those exactly, so the expected cluster count is the number
  // of distinct waveforms, not the number of templates.
  const size_t waveforms = templates * 3 / 4;
  const int64_t bins = TotalBins(spec);
  DBAUGUR_CHECK(waveforms <= kCodes, "diverse-waveforms: too many waveforms");
  dbaugur::Rng rng(seed);
  std::vector<uint32_t> codes(kCodes);
  for (uint32_t i = 0; i < kCodes; ++i) codes[i] = i;
  std::shuffle(codes.begin(), codes.end(), rng.engine());
  // Four levels, and each bin's level differs from the previous one, so a
  // DTW path off the diagonal always pays a full level step. Bins 1-4 are
  // the staircase 0,1,2,3 in every waveform: it pins each waveform's
  // z-normalization to all four levels, so no two waveforms can look alike
  // by using different level subsets, and a one-level difference in any bin
  // costs more than the radius. The next kCodeBins steps spell a distinct
  // base-3 code per waveform; later steps are random. Two waveforms are
  // therefore within the radius only when they are the same waveform.
  in->levels.assign(waveforms * static_cast<size_t>(bins), 0);
  in->bins = bins;
  for (size_t w = 0; w < waveforms; ++w) {
    uint8_t* lv = &in->levels[w * static_cast<size_t>(bins)];
    uint32_t code = codes[w];
    lv[0] = static_cast<uint8_t>(rng.UniformInt(1, 3));
    for (int64_t b = 1; b < bins; ++b) {
      int64_t step = rng.UniformInt(0, 2);
      if (b <= 4) {
        lv[b] = static_cast<uint8_t>(b - 1);
        continue;
      }
      if (b <= 4 + kCodeBins) {
        step = code % 3;
        code /= 3;
      }
      lv[b] = static_cast<uint8_t>((lv[b - 1] + 1 + step) % 4);
    }
  }
  in->waveform_of.resize(templates);
  for (size_t id = 0; id < templates; ++id) {
    in->waveform_of[id] =
        id < waveforms ? static_cast<uint32_t>(id)
                       : static_cast<uint32_t>(rng.UniformInt(
                             0, static_cast<int64_t>(waveforms) - 1));
  }
  in->distinct_waveforms = waveforms;
  in->waves = EmptyWaves(spec);
  for (Wave& w : in->waves) {
    w.events.reserve(templates * static_cast<size_t>(spec.bins_per_wave));
    for (int64_t b = w.first_bin; b < w.end_bin; ++b) {
      for (uint32_t id = 0; id < templates; ++id) {
        w.events.push_back({id, b * kInterval + 30, WaveformCount(*in, id, b)});
      }
    }
  }
}

void GenerateBustracker(const WorkloadSpec& spec, uint64_t seed,
                        WorkloadInputs* in) {
  dbaugur::workloads::QueryLogOptions lo;
  lo.interval_seconds = kInterval;
  lo.days = static_cast<size_t>((TotalBins(spec) * kInterval + 86399) / 86400);
  lo.seed = seed;
  std::vector<dbaugur::workloads::QueryTemplateSpec> specs =
      dbaugur::workloads::BusTrackerTemplates();
  // Rates x4: most realized bins then hold tens of arrivals, so the sMAPE
  // measures the forecasters rather than Poisson noise on counts of one.
  for (dbaugur::workloads::QueryTemplateSpec& s : specs) {
    s.rate = [r = s.rate](double f, size_t d) { return 4.0 * r(f, d); };
  }
  std::vector<dbaugur::trace::LogEntry> log =
      dbaugur::workloads::GenerateQueryLog(specs, lo);
  in->waves = EmptyWaves(spec);
  for (const dbaugur::trace::LogEntry& e : log) {
    int64_t bin = e.timestamp / kInterval;
    if (bin >= TotalBins(spec)) break;  // The log is whole days; waves may not be.
    AddLine(&in->waves, spec.bins_per_wave, bin,
            std::to_string(e.timestamp) + " " + e.sql);
    // Every generated statement templates cleanly; what the registry must
    // count per template is exactly what the generator emitted.
    auto tmpl = dbaugur::sql::ToTemplate(e.sql);
    std::string text = tmpl.ok() ? *tmpl : std::string();
    in->realized[text][bin] += 1.0;
    ++in->template_totals[text];
  }
}

void GenerateFirehose(const WorkloadSpec& spec, uint64_t seed,
                      WorkloadInputs* in) {
  // kTenants independent template-churn streams (same catalog, their own
  // births, deaths and IN-list arities) share the service, merged bin by
  // bin. One stream's schedule decides which templates, and so which line
  // lengths, dominate; the merge averages that over the tenants, so the mix
  // and the cost per line vary little from seed to seed.
  constexpr uint64_t kTenants = 32;
  std::vector<std::vector<std::string>> lines(
      static_cast<size_t>(TotalBins(spec)));
  for (uint64_t tenant = 0; tenant < kTenants; ++tenant) {
    dbaugur::chaos::StreamOptions so;
    so.seed = seed * kTenants + tenant;
    so.profile = dbaugur::chaos::StreamProfile::kTemplateChurn;
    so.bins = lines.size();
    so.interval_seconds = kInterval;
    so.templates = 64;  // Clamped to the generator's whole catalog.
    so.mean_rate = 12.0;
    dbaugur::chaos::GeneratedStream stream = dbaugur::chaos::GenerateStream(so);
    const dbaugur::chaos::StreamGroundTruth& t = stream.truth;
    for (const dbaugur::chaos::StreamItem& item : stream.items) {
      if (item.line.empty()) continue;  // Event-only items are not log text.
      int64_t bin = item.timestamp / kInterval;
      lines[static_cast<size_t>(bin)].push_back(item.line);
      if (item.kind == dbaugur::chaos::StreamItem::Kind::kQuery) {
        in->realized[t.template_text[item.template_index]][bin] += 1.0;
      }
    }
    for (size_t s = 0; s < t.template_text.size(); ++s) {
      if (t.template_counts[s] > 0) {
        in->template_totals[t.template_text[s]] +=
            static_cast<int64_t>(t.template_counts[s]);
      }
    }
    in->expect_no_sql += t.malformed_no_sql;
    in->expect_bad_timestamp += t.malformed_bad_timestamp;
    in->expect_bad_statements += t.bad_statements;
  }
  in->waves = EmptyWaves(spec);
  for (size_t bin = 0; bin < lines.size(); ++bin) {
    for (const std::string& line : lines[bin]) {
      AddLine(&in->waves, spec.bins_per_wave, static_cast<int64_t>(bin), line);
    }
  }
}

}  // namespace

bool MakeWorkloadSpec(const std::string& name, bool smoke, WorkloadSpec* spec) {
  spec->name = name;
  spec->service = BaseOptions();
  serve::ServeOptions& o = spec->service.shard;
  dbaugur::core::DBAugurOptions& p = o.pipeline;
  if (name == "diverse-waveforms") {
    // Clustering-bound: thousands of distinct step waveforms, so nearly every
    // template is its own cluster and the pairwise LB scan dominates. Tight
    // radius + one-step band as in bench/serve_scale.
    spec->kind = WorkloadKind::kDiverseWaveforms;
    spec->service.shard_count = 1;
    spec->service.retrain_workers = 1;
    p.clustering.threads = 2;
    p.clustering.radius = 0.5;
    p.clustering.min_size = 2;
    p.clustering.dtw.window = 1;
    p.top_k = 6;
    p.forecaster.window = 6;
    p.forecaster.epochs = 2;
    p.forecaster.batch_size = 16;
    o.max_templates = smoke ? 256 : 4096;
    // Two-bin waves: many cheap scored cycles per pass. The set-up history
    // (14 bins) covers every waveform's staircase and distinguishing code.
    spec->history_waves = 7;
    spec->measured_waves = smoke ? 2 : 20;
    spec->bins_per_wave = 2;
  } else if (name == "bustracker-fit") {
    // Fit-bound: the six BusTracker templates give at most six clusters, all
    // forecast at the paper's window of 30, so the WFGAN/TCN/MLP fits
    // dominate each cycle. Waves are one day of 10-minute bins.
    spec->kind = WorkloadKind::kBustrackerFit;
    spec->service.shard_count = 1;
    spec->service.retrain_workers = 1;
    p.clustering.threads = 2;
    p.top_k = 6;
    p.forecaster.window = 30;
    p.forecaster.epochs = 2;
    p.forecaster.batch_size = 32;
    o.max_templates = 64;
    // One day of set-up history, then quarter-day waves: eight scored
    // cycles a pass, at four different times of day.
    spec->history_waves = 4;
    spec->measured_waves = smoke ? 2 : 8;
    spec->bins_per_wave = 36;
  } else if (name == "log-firehose") {
    // Ingest- and parse-bound: a dense template-churn log through the
    // tokenizer, templater, router and four shards' queues, with cheap
    // models so retraining stays short.
    spec->kind = WorkloadKind::kLogFirehose;
    spec->service.shard_count = 4;
    spec->service.retrain_workers = 2;
    p.clustering.threads = 1;
    p.top_k = 4;
    p.forecaster.window = 6;
    p.forecaster.epochs = 1;
    p.forecaster.batch_size = 16;
    o.max_templates = 64;
    spec->history_waves = 2;
    spec->measured_waves = smoke ? 2 : 16;
    spec->bins_per_wave = smoke ? 4 : 6;
  } else {
    return false;
  }
  return true;
}

WorkloadInputs GenerateInputs(WorkloadSpec* spec, uint64_t seed) {
  WorkloadInputs in;
  switch (spec->kind) {
    case WorkloadKind::kDiverseWaveforms:
      GenerateDiverse(*spec, seed, &in);
      break;
    case WorkloadKind::kBustrackerFit:
      GenerateBustracker(*spec, seed, &in);
      break;
    case WorkloadKind::kLogFirehose:
      GenerateFirehose(*spec, seed, &in);
      break;
  }
  // Every shard's queue holds all the input offered between two cycles (the
  // set-up waves are the largest batch), so a drop is a real failure.
  size_t batch = 0;
  for (size_t k = 0; k < in.waves.size(); ++k) {
    batch += std::max<size_t>(in.waves[k].lines, in.waves[k].events.size());
    if (k + 1 >= spec->history_waves) {
      spec->service.shard.queue_capacity =
          std::max(spec->service.shard.queue_capacity, batch);
      batch = 0;
    }
  }
  return in;
}

double WaveformCount(const WorkloadInputs& in, uint32_t id, int64_t bin) {
  uint8_t level =
      in.levels[in.waveform_of[id] * static_cast<size_t>(in.bins) +
                static_cast<size_t>(bin)];
  return 10.0 + 30.0 * static_cast<double>(level);
}

}  // namespace perfbench
