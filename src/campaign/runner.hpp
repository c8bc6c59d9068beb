// Campaign execution: expand a plan, skip the cells whose content key
// already has a valid record, run the rest, and keep the store healed.
//
// Execution discipline:
//  * One sim::ThreadPool of `jobs` threads per run: it scans the cache (pure
//    file reads) and then runs this shard's uncached cells as one batch.
//    Each cell's driver submits its own sweep to the same pool
//    (sim/parallel.hpp), so cells run side by side and one cell's long
//    tail does not idle the other threads, while at most `jobs` simulations
//    are ever in flight. jobs 1 runs the cells one after another.
//  * Every cell runs in a metrics context of its own (core/registry.hpp
//    run_spec), so its record holds exactly its own counters whatever runs
//    beside it. Each record is put as soon as its cell finishes; the index
//    rebuild and the progress line follow in expanded order, whichever
//    order the cells finish in.
//  * If cells throw, the cells in flight finish and are stored, the index
//    is rebuilt, and the lowest-index failure is rethrown.
//  * Whole-campaign scale-out is multi-process: `--shard i/N` assigns cell
//    c to the process with c % N == i, cells are written under content
//    keys (no cross-shard conflicts), and every shard rewrites the index it
//    can prove.
//  * Resume is implicit: a killed run leaves complete cell files (writes
//    are atomic, each through a temp file of its own) plus at most one
//    torn file per cell in flight; the next run's scan treats torn as
//    missing, re-executes exactly the unproven cells and rewrites the
//    index — the final store is byte-identical to an uninterrupted run's
//    (normalized manifests make cell bytes machine- and jobs-independent).
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "campaign/plan.hpp"
#include "campaign/store.hpp"

namespace ringent::campaign {

struct CampaignRunOptions {
  /// Shard selector: this process runs cells with index % shard_count ==
  /// shard_index over the expanded order. Defaults to the whole plan.
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;

  /// Width of the pool that runs the cells and every sweep inside them
  /// (also each cell's ExperimentOptions::jobs). 0 = sim::default_jobs().
  std::size_t jobs = 0;

  /// Execute only the first this-many uncached cells of the shard (cached
  /// hits don't count); 0 = no limit. The interrupted-resume tests use this
  /// as a deterministic stand-in for a mid-campaign SIGKILL.
  std::size_t max_cells = 0;

  /// Optional per-cell progress sink (one line per cell, e.g. the CLI's
  /// stdout), called in expanded order and never concurrently, though not
  /// necessarily on the calling thread. Null = silent.
  std::function<void(const std::string&)> progress;
};

/// What one runner invocation did (all counts are cells).
struct CampaignReport {
  std::size_t planned = 0;   ///< expanded plan size
  std::size_t in_shard = 0;  ///< cells this shard is responsible for
  std::size_t cached = 0;    ///< valid record already present — skipped
  std::size_t executed = 0;  ///< driver actually ran, record written
  std::size_t remaining = 0; ///< left unexecuted by max_cells

  bool complete() const { return remaining == 0; }
};

/// Run `plan` against `store` (see file comment for the discipline).
/// Throws ringent::Error on unknown experiments/devices, invalid shard
/// options, or store I/O failure, and rethrows the lowest-index cell
/// failure. The index is rewritten as cells commit and once at the end, so
/// an interruption at any point leaves an index describing the valid cells
/// on disk as of its last rewrite.
CampaignReport run_campaign(const CampaignPlan& plan, const ResultStore& store,
                            const CampaignRunOptions& options = {});

/// Cache-state probe: like run_campaign with execution disabled. `cached` /
/// `remaining` report how much of the plan has valid records (whole plan —
/// sharding does not apply).
CampaignReport campaign_status(const CampaignPlan& plan,
                               const ResultStore& store);

/// Deep verification of a store against a plan.
struct VerifyReport {
  std::size_t planned = 0;
  std::size_t valid = 0;    ///< cells with a parseable, key-consistent record
  std::size_t missing = 0;  ///< planned cells with no file at all
  std::size_t torn = 0;     ///< planned cells whose file exists but fails load
  std::size_t orphans = 0;  ///< valid-looking cell files no plan cell claims
  bool index_consistent = false;  ///< index.json matches the valid cells

  bool ok() const {
    return missing == 0 && torn == 0 && index_consistent;
  }
};

/// Recompute every planned cell's key, check its record round-trips and
/// self-hashes, count orphan cell files, and compare index.json against
/// the valid set. Pure reads — never modifies the store.
VerifyReport verify_campaign(const CampaignPlan& plan,
                             const ResultStore& store);

}  // namespace ringent::campaign
