// libFuzzer harness for the campaign file formats: the plan loader
// ("ringent.campaign-plan/1"), the store index ("ringent.campaign/1") and
// the cell record ("ringent.campaign-cell/1") — the three documents a
// resumable campaign reads back from disk, i.e. the torn-write detection
// surface of campaign/store.cpp — plus every experiment spec
// ("ringent.spec.<experiment>/1") through its registry canonicalizer.
//
// Contract enforced on every input, per loader:
//  * malformed documents (bad JSON, unknown schema, unknown keys, unsorted
//    index, a cell record whose stored key does not hash its own content,
//    a spec value out of range or one its driver could not run) fail with
//    ringent::Error — never crash, never accept;
//  * an accepted document round-trips: to_json must not throw, and
//    from_json(to_json(x)) must serialize to the identical bytes;
//  * an accepted spec passes its Spec::validate() — what a campaign plan
//    expands to, the driver runs.
//
// Expansion (expand_plan) is deliberately NOT fuzzed here: a structurally
// valid plan can declare combinatorially many cells, and the fuzzer's job
// is the parse boundary, not the grid arithmetic.
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>

#include "campaign/plan.hpp"
#include "campaign/store.hpp"
#include "common/json.hpp"
#include "common/require.hpp"
#include "core/experiments.hpp"
#include "core/registry.hpp"

namespace {

template <typename T>
void check_loader(const ringent::Json& parsed) {
  T value;
  try {
    value = T::from_json(parsed);
  } catch (const ringent::Error&) {
    return;  // rejected cleanly
  }
  // Accepted documents must survive a full write -> read -> write cycle.
  const std::string dumped = value.to_json().dump(2);
  const T reloaded = T::from_json(ringent::Json::parse(dumped));
  if (reloaded.to_json().dump(2) != dumped) std::abort();
}

/// True when `canonical` names Spec's schema; it must then re-load as a
/// Spec that passes validate().
template <typename Spec>
bool validates_as(const ringent::Json& canonical) {
  if (canonical.at("schema").as_string() != Spec::spec_schema) return false;
  try {
    Spec::from_json(canonical).validate();
  } catch (const ringent::Error&) {
    std::abort();
  }
  return true;
}

/// Every registry schema must belong to one of `Specs`.
template <typename... Specs>
void check_validates(const ringent::Json& canonical) {
  if (!(validates_as<Specs>(canonical) || ...)) std::abort();
}

void check_specs(const ringent::Json& parsed) {
  using namespace ringent::core;
  for (const ExperimentDescriptor& entry : experiment_registry()) {
    ringent::Json canonical;
    try {
      canonical = entry.canonicalize(parsed);
    } catch (const ringent::Error&) {
      continue;  // rejected cleanly
    }
    const std::string dumped = ringent::canonical_dump(canonical);
    if (ringent::canonical_dump(entry.canonicalize(canonical)) != dumped) {
      std::abort();
    }
    check_validates<VoltageSweepSpec, TemperatureSweepSpec,
                    ProcessVariabilitySpec, JitterSweepSpec, ModeMapSpec,
                    RestartSpec, CoherentSweepSpec, DeterministicJitterSpec,
                    EntropyMapSpec, AttackResilienceSpec, EntropyServiceSpec>(
        canonical);
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  ringent::Json parsed;
  try {
    parsed = ringent::Json::parse(text);
  } catch (const ringent::Error&) {
    return 0;  // not JSON: nothing further to check
  }
  check_loader<ringent::campaign::CampaignPlan>(parsed);
  check_loader<ringent::campaign::CampaignIndex>(parsed);
  check_loader<ringent::campaign::CellRecord>(parsed);
  check_specs(parsed);
  return 0;
}
