// Regenerates the seed corpora under fuzz/corpus/ from the library's own
// writers, so the corpora track the current on-disk formats instead of
// rotting. Regression inputs under fuzz/regressions/ are pinned by hand (one
// per fixed bug) and are NOT touched by this tool.
//
// Usage:  fuzz_make_corpus <repo>/fuzz
//
// Output is deterministic: re-running the tool on an unchanged tree writes
// byte-identical files (no timestamps, fixed seeds/values).
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/entropy90b.hpp"
#include "campaign/key.hpp"
#include "campaign/plan.hpp"
#include "campaign/store.hpp"
#include "common/json.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"
#include "core/export.hpp"
#include "core/registry.hpp"
#include "sim/probe.hpp"
#include "sim/vcd.hpp"

namespace {

using ringent::Json;

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  RINGENT_REQUIRE(out.good(), "cannot open corpus file " + path);
  out << content;
  out.flush();
  RINGENT_REQUIRE(out.good(), "I/O error writing corpus file " + path);
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), content.size());
}

ringent::core::RunManifest sample_manifest() {
  ringent::core::RunManifest manifest;
  manifest.experiment = "fig11_iro_jitter_vs_stages";
  manifest.spec = "IRO stages 3..11, 60 restarts";
  manifest.seed = 0xC0FFEE;
  manifest.jobs = 4;
  manifest.tasks = 9;
  manifest.wall_ms = 123.5;
  manifest.cpu_ms = 456.25;
  manifest.version = "corpus";
  manifest.metrics.counters[0] = 1000;
  manifest.metrics.counters[1] = 999;
  ringent::sim::metrics::PhaseStat phase;
  phase.name = "run";
  phase.wall_ms = 100.0;
  phase.cpu_ms = 400.0;
  phase.calls = 9;
  manifest.metrics.phases.push_back(phase);
  return manifest;
}

ringent::core::TelemetrySnapshot sample_telemetry() {
  namespace histo = ringent::sim::telemetry;
  ringent::core::TelemetrySnapshot snap;
  snap.experiment = "attack_resilience";
  snap.sequence = 3;
  snap.wall_ms = 42.5;
  histo::HistogramSnapshot gaps;
  gaps.name = histo::histogram_name(histo::Histogram::event_gap_fs);
  gaps.buckets = {{2, 10}, {31, 5}, {40, 7}, {1919, 1}};
  gaps.count = 23;
  gaps.sum = 123456;
  snap.histograms.push_back(std::move(gaps));
  histo::HistogramSnapshot runs;
  runs.name = histo::histogram_name(histo::Histogram::rct_run_length);
  runs.buckets = {{1, 900}, {2, 450}, {3, 220}};
  runs.count = 1570;
  runs.sum = 2460;
  snap.histograms.push_back(std::move(runs));
  ringent::trng::telemetry::StreamStats stream;
  stream.label = "str255/supply-tone:raw";
  stream.bits = 4096;
  stream.bias = 0.503;
  stream.window_bias = 0.48;
  stream.autocorrelation = {0.01, -0.02, 0.005, 0.0};
  stream.markov_min_entropy = 0.97;
  snap.streams.push_back(std::move(stream));
  return snap;
}

std::string sample_vcd(bool second_signal) {
  using ringent::Time;
  ringent::sim::SignalTrace ring("ring_out");
  ringent::sim::SignalTrace token("token_c1");
  for (int i = 0; i < 8; ++i) {
    ring.record(Time::from_fs(1000 * (i + 1)), i % 2 == 0);
    if (second_signal) {
      token.record(Time::from_fs(1500 * (i + 1)), i % 2 == 1);
    }
  }
  ringent::sim::VcdWriter writer("ringent");
  writer.add_signal(ring);
  if (second_signal) writer.add_signal(token);
  std::ostringstream out;
  writer.write(out);
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <repo>/fuzz\n", argv[0]);
    return 2;
  }
  const std::string root(argv[1]);

  // --- json: what the observability layer actually serializes -------------
  const std::string manifest_pretty = sample_manifest().to_json().dump(2);
  write_file(root + "/corpus/json/manifest_pretty", manifest_pretty);
  {
    Json doc = Json::array();
    doc.push_back(Json(std::int64_t{0}));
    doc.push_back(Json(std::int64_t{-9223372036854775807LL - 1}));
    doc.push_back(Json(std::int64_t{9223372036854775807LL}));
    doc.push_back(Json(0.5));
    doc.push_back(Json(1e-300));
    doc.push_back(Json(1.7976931348623157e308));
    write_file(root + "/corpus/json/numbers", doc.dump());
  }
  {
    Json doc = Json::object();
    doc.set("escapes", Json(std::string("quote\" back\\ tab\t nl\n bell\x07")));
    doc.set("unicode", Json(std::string("caf\xC3\xA9 \xE2\x88\x9A" "2")));
    doc.set("empty", Json(std::string()));
    Json nested = Json::object();
    nested.set("list", Json::array());
    nested.set("flag", Json(true));
    nested.set("none", Json());
    doc.set("nested", std::move(nested));
    write_file(root + "/corpus/json/strings_nested", doc.dump(2));
  }

  // --- vcd: the writer's own dumps ----------------------------------------
  write_file(root + "/corpus/vcd/writer_two_signals", sample_vcd(true));
  write_file(root + "/corpus/vcd/writer_one_signal", sample_vcd(false));
  // A foreign-style dump: 10 ps timescale, comment directives, x states.
  write_file(root + "/corpus/vcd/foreign_10ps",
             "$date today $end\n"
             "$version ghdl $end\n"
             "$timescale 10 ps $end\n"
             "$scope module top $end\n"
             "$var wire 1 ! clk $end\n"
             "$var wire 1 \" q $end\n"
             "$upscope $end\n"
             "$enddefinitions $end\n"
             "$dumpvars\nx!\nx\"\n$end\n"
             "#0\n1!\n0\"\n#5\n0!\n#10\n1!\n1\"\n");

  // --- cli: newline-separated argv tokens ----------------------------------
  write_file(root + "/corpus/cli/all_flags",
             "--jobs\n4\n--metrics\n--trace\nout.trace.json\n");
  write_file(root + "/corpus/cli/equals_forms",
             "--jobs=8\n--trace=spans.json\nstray\n--metrics\n");

  // --- manifest: valid documents for the reader path -----------------------
  write_file(root + "/corpus/manifest/pretty", manifest_pretty);
  write_file(root + "/corpus/manifest/compact",
             sample_manifest().to_json().dump());

  // --- telemetry: JSONL sink files for the snapshot reader path ------------
  const std::string snapshot_line = sample_telemetry().to_json().dump();
  write_file(root + "/corpus/telemetry/single_line", snapshot_line + "\n");
  write_file(root + "/corpus/telemetry/multi_line",
             snapshot_line + "\n" + snapshot_line + "\n");
  {
    // An empty snapshot (no histograms, no streams) is also valid.
    ringent::core::TelemetrySnapshot empty;
    empty.experiment = "idle";
    write_file(root + "/corpus/telemetry/empty_snapshot",
               empty.to_json().dump() + "\n");
  }

  // --- entropy90b: spec line + bit-stream payload --------------------------
  {
    // Default spec over an alternating stream: every estimator runs except
    // compression (needs 6012 bits), and the Markov path pins near zero.
    std::string alternating;
    for (int i = 0; i < 128; ++i) alternating += (i % 2 != 0) ? '1' : '0';
    const ringent::analysis::Entropy90bConfig defaults;
    write_file(root + "/corpus/entropy90b/spec_ascii_alternating",
               defaults.to_json().dump() + "\n" + alternating);

    // A partial battery (compression and LRS off, short autocorrelation)
    // over a biased stream with every ASCII separator the loader skips.
    ringent::analysis::Entropy90bConfig partial;
    partial.compression = false;
    partial.lrs = false;
    partial.autocorrelation_lags = 2;
    write_file(root + "/corpus/entropy90b/spec_partial_biased",
               partial.to_json().dump() +
                   "\n1110 1101\t1011\r\n0111 1110 1101 1110 1011 0111");

    // No valid spec line: the harness falls back to the default battery and
    // the payload exercises the raw-byte loader and the restart matrix.
    std::string raw = "not-json";
    raw += '\n';
    ringent::SplitMix64 sm(0x90B);
    for (int i = 0; i < 64; ++i) {
      raw += static_cast<char>(sm.next() & 0xFF);
    }
    write_file(root + "/corpus/entropy90b/raw_bytes_restart", raw);
  }

  // --- postproc: [factor][depth][payload] corrector inputs -----------------
  {
    // factor 3, depth 4, a valid bit payload with an odd tail.
    std::string seed1;
    seed1 += static_cast<char>(3);
    seed1 += static_cast<char>(4);
    for (int i = 0; i < 33; ++i) {
      seed1 += static_cast<char>((i * 5 + 1) % 3 == 0 ? 1 : 0);
    }
    write_file(root + "/corpus/postproc/factor3_depth4_odd_tail", seed1);

    // factor 0 (must throw), depth 17 (must throw), non-bit payload bytes.
    std::string seed2;
    seed2 += static_cast<char>(0);
    seed2 += static_cast<char>(17);
    ringent::SplitMix64 sm(0x9057);
    for (int i = 0; i < 24; ++i) {
      seed2 += static_cast<char>(sm.next() & 0xFF);
    }
    write_file(root + "/corpus/postproc/invalid_params_raw_bytes", seed2);

    // factor 1 (identity), depth 1 (== von Neumann) over alternating bits.
    std::string seed3;
    seed3 += static_cast<char>(1);
    seed3 += static_cast<char>(1);
    for (int i = 0; i < 40; ++i) seed3 += static_cast<char>(i & 1);
    write_file(root + "/corpus/postproc/identity_depth1", seed3);
  }

  // --- campaign: plan, index and cell-record documents ---------------------
  {
    namespace campaign = ringent::campaign;
    // A plan with every feature: overlay spec, two-axis grid, per-entry
    // seeds, plus a default-spec entry.
    campaign::CampaignPlan plan;
    plan.name = "corpus-plan";
    plan.seeds = {20120312, 7};
    campaign::PlanEntry gridded;
    gridded.experiment = "voltage_sweep";
    gridded.spec = Json::object();
    gridded.spec.set("periods", 30);
    gridded.grid.emplace_back(
        "voltages", std::vector<Json>{Json::parse("[1.1, 1.2]"),
                                      Json::parse("[1.15, 1.2, 1.25]")});
    gridded.seeds = {11};
    plan.entries.push_back(gridded);
    campaign::PlanEntry plain;
    plain.experiment = "restart";
    plan.entries.push_back(plain);
    write_file(root + "/corpus/campaign/plan_grid", plan.to_json().dump(2));

    // A valid cell record: the restart experiment's default spec with a
    // synthetic (but schema-valid) manifest, self-keyed.
    const ringent::core::ExperimentDescriptor* restart =
        ringent::core::find_experiment("restart");
    RINGENT_REQUIRE(restart != nullptr, "registry lost restart");
    campaign::CellRecord record;
    record.experiment = "restart";
    record.spec_schema = restart->spec_schema;
    record.spec = restart->default_spec();
    record.seed = 20120312;
    record.device = "cyclone-iii";
    record.manifest = sample_manifest();
    record.manifest.experiment = "restart";
    record.key = campaign::content_key(campaign::CellIdentity{
        record.experiment, record.spec_schema, record.spec, record.seed,
        record.device});
    write_file(root + "/corpus/campaign/cell_record",
               record.to_json().dump(2));

    // The index the store would derive from that one cell.
    campaign::CampaignIndex index;
    index.cells.push_back({record.key, record.experiment, record.seed});
    write_file(root + "/corpus/campaign/index_one_cell",
               index.to_json().dump(2));

    // A record whose stored key does not hash its content (must be
    // rejected as torn — the self-check the resume path leans on).
    campaign::CellRecord tampered = record;
    tampered.seed = 999;  // content changed, key left stale
    write_file(root + "/corpus/campaign/cell_record_stale_key",
               tampered.to_json().dump(2));

    // Every experiment's committed default spec: the seeds the spec
    // canonicalizers mutate from.
    for (const auto& entry : ringent::core::experiment_registry()) {
      write_file(root + "/corpus/campaign/spec_" + entry.name,
                 entry.default_spec().dump(2));
    }
  }
  return 0;
}
