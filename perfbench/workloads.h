// Benchmark workloads: the service configuration each one measures and the
// input it replays, generated entirely from the workload seed before any
// timer starts. See README.md for why each workload exists.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "serve/sharded_service.h"

namespace perfbench {

enum class WorkloadKind { kDiverseWaveforms, kBustrackerFit, kLogFirehose };

/// One wave of input: the unit offered before each synchronous retrain
/// cycle. Text workloads carry raw log lines; diverse-waveforms carries
/// pre-binned events.
struct Wave {
  std::string text;                           ///< '\n'-joined log lines.
  uint64_t lines = 0;                         ///< Lines in `text`.
  std::vector<dbaugur::serve::TraceEvent> events;
  int64_t first_bin = 0;                      ///< Bins [first_bin, end_bin).
  int64_t end_bin = 0;
};

/// Workload shape and the pinned service configuration.
struct WorkloadSpec {
  std::string name;
  WorkloadKind kind = WorkloadKind::kDiverseWaveforms;
  dbaugur::serve::ShardedServeOptions service;
  size_t history_waves = 1;   ///< Offered during set-up, before the cold cycle.
  size_t measured_waves = 1;  ///< Each followed by one measured cycle.
  int64_t bins_per_wave = 1;
};

/// Everything a pass replays and checks against, built once per run.
struct WorkloadInputs {
  std::vector<Wave> waves;  ///< history_waves set-up waves, then measured.

  /// diverse-waveforms: waveform index per template id, each waveform's
  /// level (0-3) per bin, and how many distinct waveforms were emitted (the
  /// expected cluster count).
  std::vector<uint32_t> waveform_of;
  std::vector<uint8_t> levels;  ///< [waveform * bins + bin]
  int64_t bins = 0;
  size_t distinct_waveforms = 0;

  /// Text workloads: realized arrivals per canonical template text per bin
  /// (what sMAPE scores against), the expected per-template totals, and the
  /// expected rejection counts. For log-firehose these come from the
  /// generator's StreamGroundTruth; for bustracker-fit every line is valid.
  std::map<std::string, std::map<int64_t, double>> realized;
  std::map<std::string, int64_t> template_totals;
  uint64_t expect_no_sql = 0;
  uint64_t expect_bad_timestamp = 0;
  uint64_t expect_bad_statements = 0;
};

/// The spec for `name`, with every thread count pinned; false for an unknown
/// name. `smoke` shrinks the input so a pass takes about a second.
bool MakeWorkloadSpec(const std::string& name, bool smoke, WorkloadSpec* spec);

/// Generates the workload's input from `seed`, and sizes the ingest queues
/// to hold the largest batch offered between two cycles.
WorkloadInputs GenerateInputs(WorkloadSpec* spec, uint64_t seed);

/// diverse-waveforms: arrivals of template `id` in `bin`.
double WaveformCount(const WorkloadInputs& in, uint32_t id, int64_t bin);

}  // namespace perfbench
