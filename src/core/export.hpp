// Machine-readable experiment artifacts: CSV tables and JSON run manifests.
//
// Every bench prints the paper-shaped table to stdout; when the environment
// variable RINGENT_OUT_DIR names a writable directory, benches additionally
// drop CSV files there (one per table/series) so plots can be regenerated
// without scraping stdout. The export layer is deliberately dumb: benches
// build core::Table objects anyway, and artifact() writes table.csv() plus a
// provenance header (experiment id, seed, library version).
//
// Run manifests are the observability companion: every experiment driver
// runs in a metrics context of its own (sim/metrics.hpp) and builds one
// RunManifest from it — spec, master seed, resolved jobs, wall/CPU totals,
// per-phase timers and the run's counters. The registry's run_spec returns
// it (ExperimentOptions::manifest_out); a driver called directly while
// root metrics collection is on (the benches' --metrics) serializes it as
// <dir>/<experiment>.manifest.json. The schema is versioned
// ("ringent.run-manifest/1") and round-trip checked by the test suite.
//
// Telemetry snapshots are the distribution-level companion: when a snapshot
// sink is configured (RINGENT_TELEMETRY=FILE or --telemetry FILE) every
// driver additionally appends one "ringent.telemetry/1" JSON line to that
// file — the histogram-registry delta (sim/telemetry.hpp) plus any stream
// observables published by trng/telemetry.hpp — and embeds quantile
// summaries in its run manifest. prometheus_exposition() renders the same
// snapshot in the Prometheus text format for scrape-style consumers; a sink
// path ending in ".prom" selects that format (latest snapshot wins) instead
// of JSONL.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "core/report.hpp"
#include "sim/metrics.hpp"
#include "sim/telemetry.hpp"
#include "trng/telemetry.hpp"

namespace ringent::core {

/// Directory from RINGENT_OUT_DIR, or nullopt when exporting is off.
std::optional<std::string> artifact_dir();

/// Write `table` as <dir>/<experiment_id>.csv with a provenance comment
/// header. No-op (returns false) when RINGENT_OUT_DIR is unset; throws
/// ringent::Error on I/O failure when it is set. `experiment_id` must be a
/// filesystem-safe slug (letters, digits, '-', '_').
bool write_artifact(const std::string& experiment_id, const Table& table,
                    const std::string& notes = "");

/// Library build provenance: `git describe --always --dirty` captured at
/// configure time, or "unknown" outside a git checkout.
std::string_view version_string();

/// Quantile summary of one telemetry histogram, embedded in run manifests
/// (the full bucket list lives in the telemetry snapshot file).
struct HistogramSummary {
  std::string name;  ///< sim::telemetry::histogram_name slug
  std::uint64_t count = 0;
  double mean = 0.0;
  std::uint64_t p50 = 0;
  std::uint64_t p90 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t p999 = 0;

  static HistogramSummary of(const sim::telemetry::HistogramSnapshot& h);
};

/// One observable experiment run, built by every driver in
/// core/experiments.cpp from the run's own metrics context.
struct RunManifest {
  static constexpr std::string_view schema = "ringent.run-manifest/1";

  std::string experiment;  ///< filesystem-safe driver slug
  std::string spec;        ///< human-readable ring/sweep description
  std::uint64_t seed = 0;  ///< ExperimentOptions master seed
  std::size_t jobs = 0;    ///< resolved worker count
  std::size_t tasks = 0;   ///< independent sweep axes executed
  double wall_ms = 0.0;    ///< driver wall-clock
  double cpu_ms = 0.0;     ///< CPU of the run's threads (> wall when parallel)
  sim::metrics::Snapshot metrics;  ///< the run's counters and phases
  std::string version;     ///< version_string() at emission
  /// Histogram summaries for the run, present only when telemetry was
  /// collecting (the "telemetry" key is omitted when empty, so manifests
  /// written without telemetry are byte-identical to the pre-telemetry
  /// schema and pinned goldens stay valid).
  std::vector<HistogramSummary> telemetry;

  Json to_json() const;
  /// Inverse of to_json(); throws ringent::Error when `json` does not
  /// satisfy the schema (missing key, wrong type, unknown schema id).
  static RunManifest from_json(const Json& json);
};

/// Serialize `manifest` to <dir>/<experiment>.manifest.json, where <dir> is
/// RINGENT_OUT_DIR or "." when unset. Returns the path written. Also
/// records the manifest for last_run_manifest(). Throws on I/O failure.
std::string write_run_manifest(const RunManifest& manifest);

/// The most recently written manifest of this process (empty before the
/// first write). Lets tests and callers validate a driver's event counts
/// without re-reading the file.
std::optional<RunManifest> last_run_manifest();

/// One streamed telemetry snapshot: the histogram-registry delta of a run
/// (or a whole process) plus any published stream observables. Serialized
/// as a single JSON line ("ringent.telemetry/1") so a sink file is JSONL.
struct TelemetrySnapshot {
  static constexpr std::string_view schema = "ringent.telemetry/1";

  std::string experiment;     ///< driver slug or "<bench>-total"
  std::uint64_t sequence = 0; ///< per-process snapshot counter, assigned on append
  double wall_ms = 0.0;       ///< wall-clock covered by the snapshot
  std::vector<sim::telemetry::HistogramSnapshot> histograms;  ///< non-empty only
  std::vector<trng::telemetry::StreamStats> streams;

  /// Summaries for manifest embedding / human-readable tables.
  std::vector<HistogramSummary> summaries() const;

  /// The quantile fields in the JSON (p50/p90/p99/p999 per histogram) are
  /// derived from the buckets on serialization and ignored by from_json, so
  /// parse → dump is a fixpoint (fuzzed in fuzz/fuzz_telemetry.cpp).
  Json to_json() const;
  static TelemetrySnapshot from_json(const Json& json);
};

/// Configure the snapshot sink ("" disables). Also flips the
/// sim::telemetry collection switch so probes start recording.
void set_telemetry_path(const std::string& path);
/// The configured sink path ("" when none).
std::string telemetry_path();
/// True when a sink is configured and collection is on.
bool telemetry_active();
/// Adopt RINGENT_TELEMETRY as the sink when set and none is configured.
/// Returns the resulting telemetry_active().
bool init_telemetry_from_env();

/// Build a snapshot from a histogram-registry delta and the streams
/// published since the last drain.
TelemetrySnapshot collect_telemetry(const std::string& experiment,
                                    const sim::telemetry::Snapshot& delta,
                                    double wall_ms);

/// Append `snapshot` to the configured sink (assigning its sequence) and
/// remember it for last_telemetry_snapshot(). JSONL append, except a sink
/// ending in ".prom" is rewritten with the Prometheus exposition instead.
/// Returns the path written ("" when no sink is configured). Throws on I/O
/// failure.
std::string append_telemetry_snapshot(TelemetrySnapshot snapshot);

/// The most recently appended snapshot of this process.
std::optional<TelemetrySnapshot> last_telemetry_snapshot();

/// Prometheus text exposition of `snapshot`: one `# TYPE ... histogram`
/// family per histogram (cumulative le-buckets over the log-linear bucket
/// upper bounds) and gauges for the stream observables.
std::string prometheus_exposition(const TelemetrySnapshot& snapshot);

}  // namespace ringent::core
