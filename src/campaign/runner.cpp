#include "campaign/runner.hpp"

#include <atomic>
#include <fstream>
#include <mutex>
#include <string>
#include <unordered_set>

#include "common/require.hpp"
#include "core/calibration.hpp"
#include "core/registry.hpp"
#include "sim/parallel.hpp"

namespace ringent::campaign {

namespace {

/// Parallel cache scan: cached[i] = cell i has a valid record. Pure file
/// reads.
std::vector<char> scan_cached(const std::vector<CampaignCell>& cells,
                              const ResultStore& store,
                              sim::ThreadPool& pool) {
  std::vector<char> cached(cells.size(), 0);
  pool.for_each_index(cells.size(), [&](std::size_t i) {
    cached[i] = store.has_valid(cells[i].key) ? 1 : 0;
  });
  return cached;
}

std::string progress_line(const char* verb, const CampaignCell& cell) {
  return std::string(verb) + cell.key.substr(0, 12) + "  " + cell.experiment +
         " seed=" + std::to_string(cell.seed);
}

}  // namespace

CampaignReport run_campaign(const CampaignPlan& plan, const ResultStore& store,
                            const CampaignRunOptions& options) {
  RINGENT_REQUIRE(options.shard_count >= 1, "shard_count must be >= 1");
  RINGENT_REQUIRE(options.shard_index < options.shard_count,
                  "shard_index must be < shard_count");
  // Resolve the device up front: a plan naming an unknown profile must fail
  // before any cell runs, not at the first uncached one.
  const core::Calibration& calibration =
      core::find_device_profile(plan.device);

  const std::vector<CampaignCell> cells = expand_plan(plan);
  sim::ThreadPool pool(options.jobs);
  const std::vector<char> cached = scan_cached(cells, store, pool);

  // What this call does with each cell: the first max_cells uncached cells
  // of the shard run now; the other shards' cells and the rest are left.
  enum class Cell : char { left, cached, running, done };
  std::vector<Cell> state(cells.size(), Cell::left);
  std::vector<std::size_t> to_run;
  CampaignReport report;
  report.planned = cells.size();
  for (std::size_t i = options.shard_index; i < cells.size();
       i += options.shard_count) {
    ++report.in_shard;
    if (cached[i]) {
      state[i] = Cell::cached;
      ++report.cached;
    } else if (options.max_cells == 0 || to_run.size() < options.max_cells) {
      state[i] = Cell::running;
      to_run.push_back(i);
    } else {
      ++report.remaining;
    }
  }

  // Cells finish in any order; they are committed — index rebuilt, progress
  // reported — in expanded order, by whichever thread finishes the cell the
  // commit cursor waits on.
  std::mutex commit_mutex;
  std::size_t cursor = 0;
  const auto commit_ready = [&] {
    std::vector<std::string> lines;
    bool executed_any = false;
    for (; cursor < cells.size() && state[cursor] != Cell::running;
         ++cursor) {
      if (state[cursor] == Cell::cached) {
        lines.push_back(progress_line("cached   ", cells[cursor]));
      } else if (state[cursor] == Cell::done) {
        lines.push_back(progress_line("executed ", cells[cursor]));
        executed_any = true;
      }
    }
    // Heal/extend the index before reporting a cell: an interruption
    // anywhere leaves an index that describes the valid cells on disk.
    if (executed_any) store.rebuild_index();
    if (options.progress) {
      for (const std::string& line : lines) options.progress(line);
    }
  };
  {
    const std::lock_guard<std::mutex> lock(commit_mutex);
    commit_ready();
  }

  try {
    pool.for_each_index(to_run.size(), [&](std::size_t k) {
      const CampaignCell& cell = cells[to_run[k]];
      const core::ExperimentDescriptor* descriptor =
          core::find_experiment(cell.experiment);
      RINGENT_REQUIRE(descriptor != nullptr,
                      "expand_plan returned an unknown experiment");
      core::ExperimentOptions experiment_options;
      experiment_options.seed = cell.seed;
      experiment_options.jobs = options.jobs;
      const core::RunManifest manifest =
          descriptor->run_spec(cell.spec, calibration, experiment_options);

      CellRecord record;
      record.key = cell.key;
      record.experiment = cell.experiment;
      record.spec_schema = cell.schema;
      record.spec = cell.spec;
      record.seed = cell.seed;
      record.device = cell.device;
      record.manifest = normalize_manifest(manifest);
      store.put(record);

      const std::lock_guard<std::mutex> lock(commit_mutex);
      state[to_run[k]] = Cell::done;
      ++report.executed;
      commit_ready();
    });
  } catch (...) {
    // The cells that finished are on disk; index them before the lowest
    // failing cell's error propagates. A failure to index loses nothing
    // the next run's scan would not heal, so the cell's error wins.
    try {
      store.rebuild_index();
    } catch (...) {
    }
    throw;
  }
  if (to_run.empty()) {
    // Nothing executed (fully cached run, or an empty shard slice):
    // still make sure the index exists and reflects the store.
    store.rebuild_index();
  }
  return report;
}

CampaignReport campaign_status(const CampaignPlan& plan,
                               const ResultStore& store) {
  const std::vector<CampaignCell> cells = expand_plan(plan);
  sim::ThreadPool pool(0);
  const std::vector<char> cached = scan_cached(cells, store, pool);
  CampaignReport report;
  report.planned = cells.size();
  report.in_shard = cells.size();
  for (const char c : cached) {
    if (c) {
      ++report.cached;
    } else {
      ++report.remaining;
    }
  }
  return report;
}

VerifyReport verify_campaign(const CampaignPlan& plan,
                             const ResultStore& store) {
  const std::vector<CampaignCell> cells = expand_plan(plan);
  VerifyReport report;
  report.planned = cells.size();

  std::unordered_set<std::string> planned_keys;
  std::atomic<std::size_t> valid{0}, missing{0}, torn{0};
  for (const CampaignCell& cell : cells) planned_keys.insert(cell.key);

  sim::ThreadPool pool(0);
  pool.for_each_index(cells.size(), [&](std::size_t i) {
    const std::optional<CellRecord> record = store.load(cells[i].key);
    if (record) {
      ++valid;
      return;
    }
    // Distinguish "no file" from "file exists but does not load" — the
    // latter is a torn write (or foreign bytes) worth reporting separately.
    std::ifstream probe(store.cell_path(cells[i].key));
    if (probe.good()) {
      ++torn;
    } else {
      ++missing;
    }
  });
  report.valid = valid.load();
  report.missing = missing.load();
  report.torn = torn.load();

  std::vector<std::string> valid_keys;
  for (const std::string& key : store.list_keys()) {
    if (!store.load(key)) continue;  // torn files are not index material
    if (planned_keys.find(key) == planned_keys.end()) ++report.orphans;
    valid_keys.push_back(key);
  }

  const std::optional<CampaignIndex> index = store.read_index();
  if (index && index->cells.size() == valid_keys.size()) {
    bool match = true;
    for (std::size_t i = 0; i < valid_keys.size(); ++i) {
      if (index->cells[i].key != valid_keys[i]) {
        match = false;
        break;
      }
    }
    report.index_consistent = match;
  }
  return report;
}

}  // namespace ringent::campaign
