// JSON (de)serialization and validation of every experiment spec struct —
// the uniform "invoke any experiment from a serialized document" surface
// behind ExperimentDescriptor::run_spec and the campaign runner's content
// keys.
//
// Each spec is declared once, as a field table: one row per member giving
// its key, the member, whether the key is required, and the member's floor
// and ceiling. The struct's own member initializers are the only defaults.
// A small generic codec drives everything from that table:
//  * to_json() is total: "schema" ("ringent.spec.<experiment>/1") first,
//    then every field in table order; times as exact femtosecond integers
//    ("*_fs"), enums as their lower-case serialized names.
//  * from_json() is strict: unknown keys are rejected by name, required keys
//    are reported by name, integers that do not fit the member's type are
//    rejected, and every error message carries the experiment's schema id —
//    the message a CLI user sees for a bad --spec FILE. The "schema" key
//    itself is optional in the input but must match when present (so a spec
//    file cannot silently run the wrong experiment). It ends in validate().
//  * validate() checks every row's floor and ceiling (arrays must be
//    non-empty and bound element-wise; nested objects validate themselves),
//    then the cross-field rules a row cannot express. It throws
//    PreconditionError, and every driver calls it first — so a spec that
//    parses is a spec that runs.
//  * from_json(to_json(s)).to_json() == to_json(s) byte-for-byte, which is
//    what makes ringent::canonical_dump() of a spec a stable cache-key
//    ingredient (fuzz/fuzz_campaign.cpp holds every registry canonicalizer
//    to that fixpoint contract).
// The tables are constexpr and parsing looks keys up by string_view, so a
// canonicalize() call allocates nothing beyond the values it builds.
#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "common/require.hpp"
#include "core/experiments.hpp"
#include "core/spec.hpp"
#include "service/conditioner.hpp"

namespace ringent::core {

namespace {

// --- bounds -----------------------------------------------------------------

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A row's admissible range; open or closed at either end. Integer, double
/// and Time (in fs) members all compare through double.
struct Bounds {
  double lo = -kInf;
  double hi = kInf;
  bool lo_open = false;
  bool hi_open = false;

  bool admits(double v) const {
    return (lo_open ? v > lo : v >= lo) && (hi_open ? v < hi : v <= hi);
  }

  std::string describe() const {
    const auto num = [](double v) {
      char text[32];
      std::snprintf(text, sizeof text, "%g", v);
      return std::string(text);
    };
    if (lo == -kInf && hi == kInf) return "a number";
    if (hi == kInf) return (lo_open ? "> " : ">= ") + num(lo);
    if (lo == -kInf) return (hi_open ? "< " : "<= ") + num(hi);
    return std::string("in ") + (lo_open ? "(" : "[") + num(lo) + ", " +
           num(hi) + (hi_open ? ")" : "]");
  }
};

constexpr Bounds at_least(double lo) { return {lo, kInf, false, false}; }
constexpr Bounds above(double lo) { return {lo, kInf, true, false}; }
constexpr Bounds closed(double lo, double hi) { return {lo, hi, false, false}; }
constexpr Bounds open(double lo, double hi) { return {lo, hi, true, true}; }

// --- errors -----------------------------------------------------------------

/// A spec is a schema'd experiment spec or a bare RingSpec.
template <typename Spec>
constexpr bool has_schema = requires { Spec::spec_schema; };

template <typename Spec>
constexpr std::string_view context_of() {
  if constexpr (has_schema<Spec>) {
    return Spec::spec_schema;
  } else {
    return "ring spec";
  }
}

[[noreturn]] void reject(std::string_view context, const std::string& what) {
  throw PreconditionError(std::string(context) + ": " + what);
}

/// Run `fn`, re-throwing any ringent::Error as `E` with the context and key
/// prepended, so a bad value (or nested object) still names the spec and
/// the field the caller was loading.
template <typename E = Error, typename Fn>
void in_key(std::string_view context, std::string_view key, Fn&& fn) {
  try {
    fn();
  } catch (const Error& error) {
    throw E(std::string(context) + ": in \"" + std::string(key) +
            "\": " + error.what());
  }
}

// --- per-type codecs --------------------------------------------------------
//
// Codec<T>::emit / parse move one member to and from JSON. `scalar` (when
// present) is the value a row's Bounds compare against.

template <typename T>
struct Codec;

template <std::unsigned_integral T>
struct Codec<T> {
  static Json emit(T v) { return Json(static_cast<std::uint64_t>(v)); }
  static T parse(const Json& json) {
    const std::int64_t v = json.as_integer();
    constexpr T max = std::numeric_limits<T>::max();
    if (v < 0 || static_cast<std::uint64_t>(v) > max) {
      throw Error("must be an integer in [0, " + std::to_string(max) + "]");
    }
    return static_cast<T>(v);
  }
  static double scalar(T v) { return static_cast<double>(v); }
};

template <>
struct Codec<bool> {
  static Json emit(bool v) { return Json(v); }
  static bool parse(const Json& json) { return json.as_boolean(); }
};

template <>
struct Codec<double> {
  static Json emit(double v) { return Json(v); }
  static double parse(const Json& json) { return json.as_number(); }
  static double scalar(double v) { return v; }
};

template <>
struct Codec<Time> {
  static Json emit(Time v) { return Json(v.fs()); }
  static Time parse(const Json& json) {
    return Time::from_fs(json.as_integer());
  }
  static double scalar(Time v) { return static_cast<double>(v.fs()); }
};

template <>
struct Codec<RingKind> {
  static Json emit(RingKind v) {
    return Json(v == RingKind::iro ? "iro" : "str");
  }
  static RingKind parse(const Json& json) {
    return parse_ring_kind(json.as_string());
  }
};

template <>
struct Codec<ring::TokenPlacement> {
  static Json emit(ring::TokenPlacement v) { return Json(core::to_string(v)); }
  static ring::TokenPlacement parse(const Json& json) {
    return parse_token_placement(json.as_string());
  }
};

template <>
struct Codec<service::ConditionerKind> {
  static Json emit(service::ConditionerKind v) {
    return Json(service::conditioner_kind_name(v));
  }
  static service::ConditionerKind parse(const Json& json) {
    return service::parse_conditioner_kind(json.as_string());
  }
};

/// Nested objects (RingSpec, Entropy90bConfig, DegradationPolicy, Regulator,
/// FaultScenario) keep their own serializers.
template <typename T>
  requires requires(const T& v, const Json& json) {
    { v.to_json() } -> std::same_as<Json>;
    { T::from_json(json) } -> std::same_as<T>;
  }
struct Codec<T> {
  static Json emit(const T& v) { return v.to_json(); }
  static T parse(const Json& json) { return T::from_json(json); }
};

template <typename T>
struct Codec<std::vector<T>> {
  static Json emit(const std::vector<T>& values) {
    Json out = Json::array();
    for (const T& v : values) out.push_back(Codec<T>::emit(v));
    return out;
  }
  static std::vector<T> parse(const Json& json) {
    if (!json.is_array()) throw Error("must be an array");
    std::vector<T> out;
    out.reserve(json.size());
    for (std::size_t i = 0; i < json.size(); ++i) {
      out.push_back(Codec<T>::parse(json.at(i)));
    }
    return out;
  }
};

template <typename T>
constexpr bool is_vector = false;
template <typename T>
constexpr bool is_vector<std::vector<T>> = true;

/// A row's range check on one member value: arrays are non-empty and bound
/// element-wise, numbers against the Bounds, nested objects validate().
template <typename T>
void check_value(const T& value, const Bounds& bounds,
                 std::string_view context, std::string_view key) {
  if constexpr (is_vector<T>) {
    if (value.empty()) {
      reject(context, "\"" + std::string(key) + "\" must be a non-empty array");
    }
    for (const auto& element : value) {
      check_value(element, bounds, context, key);
    }
  } else if constexpr (requires { Codec<T>::scalar(value); }) {
    if (!bounds.admits(Codec<T>::scalar(value))) {
      reject(context,
             "\"" + std::string(key) + "\" must be " + bounds.describe());
    }
  } else if constexpr (requires { value.validate(); }) {
    in_key<PreconditionError>(context, key, [&] { value.validate(); });
  }
}

// --- field tables -----------------------------------------------------------

constexpr bool required = true;
constexpr bool optional = false;

template <typename Spec>
struct Field {
  std::string_view key;
  bool required;
  Bounds bounds;
  Json (*emit)(const Spec&);
  void (*parse)(Spec&, const Json&);
  void (*check)(const Spec&, const Field&, std::string_view context);
};

template <typename>
struct MemberOf;
template <typename S, typename T>
struct MemberOf<T S::*> {
  using Spec = S;
  using Type = T;
};

/// One table row for `member`: its key, required or optional, and bounds.
template <auto member>
constexpr auto field(std::string_view key, bool is_required,
                     Bounds bounds = {}) {
  using Spec = typename MemberOf<decltype(member)>::Spec;
  using T = typename MemberOf<decltype(member)>::Type;
  return Field<Spec>{
      key, is_required, bounds,
      [](const Spec& spec) { return Codec<T>::emit(spec.*member); },
      [](Spec& spec, const Json& json) {
        spec.*member = Codec<T>::parse(json);
      },
      [](const Spec& spec, const Field<Spec>& self, std::string_view context) {
        check_value(spec.*member, self.bounds, context, self.key);
      }};
}

// --- the generic codec ------------------------------------------------------

template <typename Spec, std::size_t N>
Json write(const Spec& spec, const Field<Spec> (&fields)[N]) {
  Json json = Json::object();
  if constexpr (has_schema<Spec>) {
    json.set("schema", std::string(Spec::spec_schema));
  }
  for (const Field<Spec>& f : fields) {
    json.set(std::string(f.key), f.emit(spec));
  }
  return json;
}

template <typename Spec, std::size_t N>
void check_fields(const Spec& spec, const Field<Spec> (&fields)[N]) {
  for (const Field<Spec>& f : fields) f.check(spec, f, context_of<Spec>());
}

template <typename Spec, std::size_t N>
Spec read(const Json& json, const Field<Spec> (&fields)[N]) {
  constexpr std::string_view context = context_of<Spec>();
  const auto fail = [&](const std::string& what) {
    return Error(std::string(context) + ": " + what);
  };
  if (!json.is_object()) throw fail("spec must be a JSON object");
  if constexpr (has_schema<Spec>) {
    if (const Json* declared = json.find("schema")) {
      if (!declared->is_string() || declared->as_string() != context) {
        throw fail("spec declares a different schema" +
                    (declared->is_string()
                         ? " \"" + declared->as_string() + "\""
                         : ""));
      }
    }
  }
  Spec spec;
  for (const Field<Spec>& f : fields) {
    const Json* value = json.find(f.key);
    if (value == nullptr) {
      if (f.required) {
        throw fail("missing required key \"" + std::string(f.key) + "\"");
      }
      continue;
    }
    in_key(context, f.key, [&] { f.parse(spec, *value); });
  }
  std::string unknown;
  for (const auto& [key, value] : json.items()) {
    if (has_schema<Spec> && key == "schema") continue;
    if (std::none_of(std::begin(fields), std::end(fields),
                     [&](const Field<Spec>& f) { return f.key == key; })) {
      unknown += (unknown.empty() ? "\"" : ", \"") + key + "\"";
    }
  }
  if (!unknown.empty()) throw fail("unknown key(s) " + unknown);
  spec.validate();
  return spec;
}

/// Every ring a stage-count sweep of `kind` builds must be a valid design
/// point (an STR needs a positive even NT = NB and at least one bubble).
void check_stage_counts(std::string_view context, RingKind kind,
                        const std::vector<std::size_t>& stage_counts) {
  for (const std::size_t stages : stage_counts) {
    in_key<PreconditionError>(context, "stage_counts", [&] {
      RingSpec{kind, stages}.validate();
    });
  }
}

// --- the tables: one per spec, rows in serialization order ----------------

constexpr Field<RingSpec> kRing[] = {
    field<&RingSpec::kind>("kind", optional),
    field<&RingSpec::stages>("stages", optional, at_least(3)),
    field<&RingSpec::tokens>("tokens", optional),
    field<&RingSpec::placement>("placement", optional),
};

constexpr Field<VoltageSweepSpec> kVoltageSweep[] = {
    field<&VoltageSweepSpec::ring>("ring", required),
    field<&VoltageSweepSpec::voltages>("voltages", required),
    field<&VoltageSweepSpec::periods>("periods", optional, at_least(2)),
};

constexpr Field<TemperatureSweepSpec> kTemperatureSweep[] = {
    field<&TemperatureSweepSpec::ring>("ring", required),
    field<&TemperatureSweepSpec::temperatures>("temperatures", required),
    field<&TemperatureSweepSpec::periods>("periods", optional, at_least(2)),
};

constexpr Field<ProcessVariabilitySpec> kProcessVariability[] = {
    field<&ProcessVariabilitySpec::ring>("ring", required),
    field<&ProcessVariabilitySpec::board_count>("board_count", optional,
                                                at_least(2)),
    field<&ProcessVariabilitySpec::periods>("periods", optional, at_least(2)),
};

constexpr Field<JitterSweepSpec> kJitterSweep[] = {
    field<&JitterSweepSpec::kind>("kind", required),
    field<&JitterSweepSpec::stage_counts>("stage_counts", required,
                                          at_least(3)),
    field<&JitterSweepSpec::divider_n>("divider_n", optional, closed(1, 30)),
    field<&JitterSweepSpec::mes_periods>("mes_periods", optional, at_least(2)),
};

constexpr Field<ModeMapSpec> kModeMap[] = {
    field<&ModeMapSpec::stages>("stages", required, at_least(3)),
    field<&ModeMapSpec::token_counts>("token_counts", required, at_least(1)),
    field<&ModeMapSpec::placement>("placement", optional),
    field<&ModeMapSpec::charlie_scale>("charlie_scale", optional, at_least(0)),
    field<&ModeMapSpec::periods>("periods", optional, at_least(2)),
};

constexpr Field<RestartSpec> kRestart[] = {
    field<&RestartSpec::ring>("ring", required),
    field<&RestartSpec::restarts>("restarts", optional, at_least(8)),
    field<&RestartSpec::edges>("edges", optional, at_least(8)),
};

constexpr Field<CoherentSweepSpec> kCoherentSweep[] = {
    field<&CoherentSweepSpec::ring>("ring", required),
    field<&CoherentSweepSpec::design_detune>("design_detune", required,
                                             open(0, 0.2)),
    field<&CoherentSweepSpec::board_count>("board_count", optional,
                                           at_least(2)),
    field<&CoherentSweepSpec::periods>("periods", optional, at_least(2)),
};

constexpr Field<DeterministicJitterSpec> kDeterministicJitter[] = {
    field<&DeterministicJitterSpec::kind>("kind", required),
    field<&DeterministicJitterSpec::stage_counts>("stage_counts", required,
                                                  at_least(3)),
    field<&DeterministicJitterSpec::modulation_amplitude_v>(
        "modulation_amplitude_v", optional, at_least(0)),
    field<&DeterministicJitterSpec::modulation_frequency_hz>(
        "modulation_frequency_hz", optional, above(0)),
    field<&DeterministicJitterSpec::periods>("periods", optional, at_least(2)),
};

constexpr Field<EntropyMapSpec> kEntropyMap[] = {
    field<&EntropyMapSpec::kinds>("kinds", required),
    field<&EntropyMapSpec::stage_counts>("stage_counts", required, at_least(3)),
    field<&EntropyMapSpec::sampling_periods>("sampling_periods_fs", required,
                                             above(0)),
    field<&EntropyMapSpec::bits_per_cell>("bits_per_cell", optional,
                                          at_least(2)),
    field<&EntropyMapSpec::restart_rows>("restart_rows", optional),
    field<&EntropyMapSpec::restart_cols>("restart_cols", optional),
    field<&EntropyMapSpec::battery>("battery", optional),
};

constexpr Field<AttackResilienceSpec> kAttackResilience[] = {
    field<&AttackResilienceSpec::rings>("rings", required),
    field<&AttackResilienceSpec::scenarios>("scenarios", required),
    field<&AttackResilienceSpec::sampling_period>("sampling_period_fs",
                                                  required, above(0)),
    field<&AttackResilienceSpec::total_bits>("total_bits", optional,
                                             at_least(1)),
    field<&AttackResilienceSpec::policy>("policy", optional),
    field<&AttackResilienceSpec::regulator>("regulator", optional),
    field<&AttackResilienceSpec::with_backup>("with_backup", optional),
};

constexpr Field<EntropyServiceSpec> kEntropyService[] = {
    field<&EntropyServiceSpec::slots>("slots", required, at_least(1)),
    field<&EntropyServiceSpec::raw_bits_per_slot>("raw_bits_per_slot",
                                                  required, at_least(8)),
    field<&EntropyServiceSpec::conditioner>("conditioner", optional),
    field<&EntropyServiceSpec::conditioner_ratio>("conditioner_ratio",
                                                  optional, at_least(1)),
    field<&EntropyServiceSpec::ring_capacity>("ring_capacity", optional,
                                              at_least(2)),
    field<&EntropyServiceSpec::block_bytes>("block_bytes", optional,
                                            at_least(1)),
    field<&EntropyServiceSpec::request_bytes>("request_bytes", optional,
                                              at_least(1)),
    field<&EntropyServiceSpec::synthetic>("synthetic", optional),
    field<&EntropyServiceSpec::ring>("ring", optional),
    field<&EntropyServiceSpec::sampling_period>("sampling_period_fs", optional,
                                                above(0)),
    field<&EntropyServiceSpec::wait_budget_ms>("wait_budget_ms", optional),
    field<&EntropyServiceSpec::policy>("policy", optional),
};

}  // namespace

// --- to_json / from_json: each spec's table run through the codec -------

#define RINGENT_SPEC_CODEC(Spec, table)                        \
  Json Spec::to_json() const { return write(*this, table); }   \
  Spec Spec::from_json(const Json& json) { return read(json, table); }

RINGENT_SPEC_CODEC(RingSpec, kRing)
RINGENT_SPEC_CODEC(VoltageSweepSpec, kVoltageSweep)
RINGENT_SPEC_CODEC(TemperatureSweepSpec, kTemperatureSweep)
RINGENT_SPEC_CODEC(ProcessVariabilitySpec, kProcessVariability)
RINGENT_SPEC_CODEC(JitterSweepSpec, kJitterSweep)
RINGENT_SPEC_CODEC(ModeMapSpec, kModeMap)
RINGENT_SPEC_CODEC(RestartSpec, kRestart)
RINGENT_SPEC_CODEC(CoherentSweepSpec, kCoherentSweep)
RINGENT_SPEC_CODEC(DeterministicJitterSpec, kDeterministicJitter)
RINGENT_SPEC_CODEC(EntropyMapSpec, kEntropyMap)
RINGENT_SPEC_CODEC(AttackResilienceSpec, kAttackResilience)
RINGENT_SPEC_CODEC(EntropyServiceSpec, kEntropyService)

#undef RINGENT_SPEC_CODEC

// --- validate(): the rows, then the cross-field rules ------------------------

void RingSpec::validate() const {
  check_fields(*this, kRing);
  if (kind == RingKind::iro) {
    if (tokens != 0) {
      reject(context_of<RingSpec>(), "tokens only apply to STRs");
    }
  } else if (!ring::can_oscillate(stages, effective_tokens())) {
    reject(context_of<RingSpec>(),
           name() + " cannot oscillate with NT = " +
               std::to_string(effective_tokens()) +
               " (need positive even NT and at least one bubble)");
  }
}

void VoltageSweepSpec::validate() const { check_fields(*this, kVoltageSweep); }

void TemperatureSweepSpec::validate() const {
  check_fields(*this, kTemperatureSweep);
  if (std::none_of(temperatures.begin(), temperatures.end(),
                   [](double t) { return std::abs(t - 25.0) < 1e-9; })) {
    reject(spec_schema, "\"temperatures\" must include 25 C");
  }
}

void ProcessVariabilitySpec::validate() const {
  check_fields(*this, kProcessVariability);
}

void JitterSweepSpec::validate() const {
  check_fields(*this, kJitterSweep);
  check_stage_counts(spec_schema, kind, stage_counts);
}

void ModeMapSpec::validate() const {
  check_fields(*this, kModeMap);
  for (const std::size_t tokens : token_counts) {
    in_key<PreconditionError>(spec_schema, "token_counts", [&] {
      RingSpec{RingKind::str, stages, tokens, placement}.validate();
    });
  }
}

void RestartSpec::validate() const { check_fields(*this, kRestart); }

void CoherentSweepSpec::validate() const {
  check_fields(*this, kCoherentSweep);
}

void DeterministicJitterSpec::validate() const {
  check_fields(*this, kDeterministicJitter);
  check_stage_counts(spec_schema, kind, stage_counts);
}

void EntropyMapSpec::validate() const {
  check_fields(*this, kEntropyMap);
  for (const RingKind kind : kinds) {
    check_stage_counts(spec_schema, kind, stage_counts);
  }
  if ((restart_rows == 0) != (restart_cols == 0)) {
    reject(spec_schema,
           "restart_rows and restart_cols must be enabled together");
  }
  if (restart_rows != 0 && (restart_rows < 2 || restart_cols < 2)) {
    reject(spec_schema, "restart validation needs a matrix of at least 2x2");
  }
}

void AttackResilienceSpec::validate() const {
  check_fields(*this, kAttackResilience);
}

void EntropyServiceSpec::validate() const {
  check_fields(*this, kEntropyService);
  if ((ring_capacity & (ring_capacity - 1)) != 0) {
    reject(spec_schema, "\"ring_capacity\" must be a power of two");
  }
}

}  // namespace ringent::core
