// record_bench: fold a google-benchmark JSON report into BENCH_kernel.json.
//
// Usage:
//   perf_kernel --benchmark_format=json --benchmark_out=perf.json ...
//   record_bench perf.json BENCH_kernel.json --sha <git-sha> --date <iso-date>
//
// BENCH_kernel.json is the committed performance trajectory of the event
// kernel: one entry per recorded run, newest last, each mapping benchmark
// name -> {ns_per_event, events_per_sec}. Only benchmarks that report an
// items-per-second counter are recorded (for perf_kernel, "items" are
// simulated events). A report run with --benchmark_repetitions=N records
// the median repetition plus {repetitions, cv} (coefficient of variation
// of events_per_sec over the repetitions). The sha and date are passed in
// explicitly so this tool stays a pure JSON transformer — no git or clock
// dependency, and reruns are reproducible. See docs/architecture.md §Kernel performance for how the
// numbers are meant to be (re)generated and read.
//
// --telemetry <file> additionally folds the newest "ringent.telemetry/1"
// snapshot from that JSONL sink (as written by --telemetry/RINGENT_TELEMETRY
// runs) into the recorded entry as quantile summaries, so the committed
// trajectory can carry distribution shape next to the throughput numbers.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/require.hpp"
#include "core/export.hpp"

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ringent::Error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int usage() {
  std::cerr << "usage: record_bench <benchmark.json> <BENCH_kernel.json> "
               "--sha <sha> --date <YYYY-MM-DD> [--note <text>] "
               "[--telemetry <snapshots.jsonl>]\n";
  return 2;
}

/// Quantile summaries of the newest snapshot in a telemetry JSONL sink,
/// ready to embed in the trajectory entry. Throws on malformed snapshots.
ringent::Json telemetry_summaries(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ringent::Error("cannot open " + path);
  std::string line, last;
  while (std::getline(in, line)) {
    if (!line.empty()) last = line;
  }
  RINGENT_REQUIRE(!last.empty(), path + ": no telemetry snapshots");
  const auto snapshot =
      ringent::core::TelemetrySnapshot::from_json(ringent::Json::parse(last));
  ringent::Json out = ringent::Json::array();
  for (const auto& summary : snapshot.summaries()) {
    ringent::Json entry = ringent::Json::object();
    entry.set("name", summary.name);
    entry.set("count", summary.count);
    entry.set("mean", summary.mean);
    entry.set("p50", summary.p50);
    entry.set("p90", summary.p90);
    entry.set("p99", summary.p99);
    entry.set("p999", summary.p999);
    out.push_back(std::move(entry));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string bench_path, out_path, sha, date, note, telemetry_path;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--sha" && i + 1 < argc) {
      sha = argv[++i];
    } else if (arg == "--date" && i + 1 < argc) {
      date = argv[++i];
    } else if (arg == "--note" && i + 1 < argc) {
      note = argv[++i];
    } else if (arg == "--telemetry" && i + 1 < argc) {
      telemetry_path = argv[++i];
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown flag: " << arg << "\n";
      return usage();
    } else if (positional == 0) {
      bench_path = arg;
      ++positional;
    } else if (positional == 1) {
      out_path = arg;
      ++positional;
    } else {
      return usage();
    }
  }
  if (positional != 2 || sha.empty() || date.empty()) return usage();

  try {
    const ringent::Json report = ringent::Json::parse(read_file(bench_path));
    const ringent::Json* benchmarks = report.find("benchmarks");
    if (benchmarks == nullptr || !benchmarks->is_array()) {
      std::cerr << bench_path << ": not a google-benchmark JSON report "
                << "(missing \"benchmarks\" array)\n";
      return 1;
    }

    // name -> events_per_sec of every repetition, in report order.
    std::vector<std::pair<std::string, std::vector<double>>> rates;
    for (std::size_t i = 0; i < benchmarks->size(); ++i) {
      const ringent::Json& row = benchmarks->at(i);
      const ringent::Json* name = row.find("name");
      const ringent::Json* items = row.find("items_per_second");
      if (name == nullptr || !name->is_string()) continue;
      if (items == nullptr || !items->is_number()) continue;
      // Skip repetition aggregates (mean/median/stddev rows); plain runs
      // have run_type "iteration" or no run_type at all (older versions).
      const ringent::Json* run_type = row.find("run_type");
      if (run_type != nullptr && run_type->is_string() &&
          run_type->as_string() != "iteration") {
        continue;
      }
      const double events_per_sec = items->as_number();
      if (events_per_sec <= 0.0) continue;
      const auto same_name = [&](const auto& r) {
        return r.first == name->as_string();
      };
      auto it = std::find_if(rates.begin(), rates.end(), same_name);
      if (it == rates.end()) {
        it = rates.emplace(rates.end(), name->as_string(),
                           std::vector<double>{});
      }
      it->second.push_back(events_per_sec);
    }

    ringent::Json results = ringent::Json::object();
    for (auto& [name, reps] : rates) {
      std::sort(reps.begin(), reps.end());
      const double events_per_sec = reps[reps.size() / 2];
      ringent::Json entry = ringent::Json::object();
      entry.set("ns_per_event", 1e9 / events_per_sec);
      entry.set("events_per_sec", events_per_sec);
      if (reps.size() > 1) {
        double mean = 0.0;
        for (const double r : reps) mean += r;
        mean /= static_cast<double>(reps.size());
        double var = 0.0;
        for (const double r : reps) var += (r - mean) * (r - mean);
        var /= static_cast<double>(reps.size() - 1);
        entry.set("repetitions", static_cast<std::uint64_t>(reps.size()));
        entry.set("cv", std::sqrt(var) / mean);
      }
      results.set(name, std::move(entry));
    }
    if (results.size() == 0) {
      std::cerr << bench_path << ": no benchmarks with items_per_second\n";
      return 1;
    }

    ringent::Json record = ringent::Json::object();
    record.set("date", date);
    record.set("sha", sha);
    if (!note.empty()) record.set("note", note);
    record.set("benchmarks", std::move(results));
    if (!telemetry_path.empty()) {
      record.set("telemetry", telemetry_summaries(telemetry_path));
    }

    // Append to the existing trajectory (or start one).
    ringent::Json trajectory = ringent::Json::object();
    {
      std::ifstream existing(out_path, std::ios::binary);
      if (existing) {
        std::ostringstream buffer;
        buffer << existing.rdbuf();
        trajectory = ringent::Json::parse(buffer.str());
      }
    }
    if (trajectory.find("runs") == nullptr) {
      trajectory = ringent::Json::object();
      trajectory.set("runs", ringent::Json::array());
    }
    ringent::Json runs = *trajectory.find("runs");
    runs.push_back(std::move(record));
    trajectory.set("runs", std::move(runs));

    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    if (!out) throw ringent::Error("cannot write " + out_path);
    out << trajectory.dump(2) << "\n";
    std::cout << "recorded " << date << " @ " << sha << " -> " << out_path
              << "\n";
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "record_bench: " << error.what() << "\n";
    return 1;
  }
}
