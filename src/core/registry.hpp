// A name -> descriptor registry over every experiment driver in
// core/experiments.hpp. Each entry carries a one-line summary, the paper
// anchor it reproduces, and a type-erased JSON-spec surface: a committed
// small default spec, a canonicalizer (parse + validate + re-emit — the
// campaign layer's cache-key normalizer), and `run_spec`, which executes
// the driver on a serialized spec in a metrics context of its own and
// returns the RunManifest built from it. `run_small` is a thin forwarder of
// `run_spec` over `default_spec()` — the uniform "smoke-run any experiment
// and get its provenance record" entry point the CLI front ends dispatch
// through.
//
//   for (const auto& e : core::experiment_registry())
//     std::printf("%-22s %s\n", e.name.c_str(), e.summary.c_str());
//
//   const auto* exp = core::find_experiment("attack_resilience");
//   const core::RunManifest m = exp->run_small(core::cyclone_iii(), options);
//
//   // Same run, driven from a document (the campaign path):
//   const Json spec = Json::parse(spec_text);
//   const core::RunManifest m2 =
//       exp->run_spec(spec, core::cyclone_iii(), options);
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiments.hpp"
#include "core/export.hpp"

namespace ringent::core {

struct ExperimentDescriptor {
  /// Registry key; matches the `experiment` field of the manifest the
  /// driver writes (drivers that split by ring kind report a `_iro`/`_str`
  /// suffixed name — run_small picks the IRO flavour).
  std::string name;

  /// One-line description for `--list` output.
  std::string summary;

  /// Where in the paper (or which extension) this experiment comes from.
  std::string source;

  /// Spec schema id ("ringent.spec.<name>/1") — the value of the "schema"
  /// key in every serialized spec of this experiment, and an ingredient of
  /// the campaign content key.
  std::string spec_schema;

  /// The committed small default spec, serialized. This is the exact
  /// configuration `run_small` executes; tests pin its canonical dump.
  std::function<Json()> default_spec;

  /// Parse + validate + re-serialize a spec document. Rejects unknown keys,
  /// missing required keys and out-of-range values (throws ringent::Error
  /// naming the schema); fills absent optional keys with the spec's
  /// defaults. The result is total (every field present) and stable:
  /// canonicalize(canonicalize(x)) == canonicalize(x), which is what the
  /// campaign layer hashes for content addressing.
  std::function<Json(const Json&)> canonicalize;

  /// Run the driver on a serialized spec and return its run manifest,
  /// built from a metrics context of the run's own — so concurrent calls
  /// (campaign cells, several threads) each get exactly their own counts.
  /// Writes no manifest file and leaves the root metrics switch alone.
  /// Honors `options.seed` / `options.jobs`. Throws like `canonicalize` on
  /// a bad spec and like the underlying driver on a bad calibration.
  std::function<RunManifest(const Json&, const Calibration&,
                            const ExperimentOptions&)>
      run_spec;

  /// run_spec over default_spec() — the one-call smoke runner.
  std::function<RunManifest(const Calibration&, const ExperimentOptions&)>
      run_small;
};

/// All registered experiments, in presentation order (paper figures first,
/// extensions after). The vector is built once and lives for the process.
const std::vector<ExperimentDescriptor>& experiment_registry();

/// Look up a descriptor by name; nullptr when unknown.
const ExperimentDescriptor* find_experiment(std::string_view name);

}  // namespace ringent::core
