// Campaign orchestrator tests: content keys pinned byte-exact for every
// registry experiment, strict spec/plan parsing, grid expansion order,
// store atomicity + torn-write healing, and the interrupted-resume
// bit-identity contract (the invariant that makes `campaign run` safe to
// SIGKILL at any point and restart — possibly sharded across processes).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <latch>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "campaign/key.hpp"
#include "campaign/plan.hpp"
#include "campaign/runner.hpp"
#include "campaign/store.hpp"
#include "common/json.hpp"
#include "common/require.hpp"
#include "core/calibration.hpp"
#include "core/registry.hpp"

using namespace ringent;
using namespace ringent::campaign;
namespace fs = std::filesystem;

namespace {

// --- pinned goldens ---------------------------------------------------------
//
// One row per registry experiment: the canonical dump of its default spec
// and the content key of (experiment, schema, canonical spec, seed
// 20120312, device "cyclone-iii"). These bytes ARE the cache contract:
// every stored campaign cell is addressed by such a key, so canonicalization
// drift (key order, float formatting, a renamed field, a schema bump that
// forgot to be deliberate) would silently orphan every existing store.
// Pinning them makes drift a loud test failure instead. When a change is
// intentional, bump the spec schema version and re-pin.
struct Golden {
  const char* experiment;
  const char* canonical_spec;
  const char* content_key;
};

constexpr std::uint64_t kSeed = 20120312;
constexpr const char* kDevice = "cyclone-iii";

const Golden kGoldens[] = {
    {"voltage_sweep",
     R"({"periods":30,"ring":{"kind":"iro","placement":"evenly_spread","stages":3,"tokens":0},"schema":"ringent.spec.voltage_sweep/1","voltages":[1.1000000000000001,1.2,1.3]})",
     "86519ccae4ada36886216b7c20a712deb70f082be5e056b581a7620fe1c2da19"},
    {"temperature_sweep",
     R"({"periods":30,"ring":{"kind":"str","placement":"evenly_spread","stages":4,"tokens":0},"schema":"ringent.spec.temperature_sweep/1","temperatures":[15,25,35]})",
     "d84a2eec9ef67332932ac3c63f0fa792be10912e1ff28b54fa9664b4518225af"},
    {"process_variability",
     R"({"board_count":3,"periods":30,"ring":{"kind":"iro","placement":"evenly_spread","stages":5,"tokens":0},"schema":"ringent.spec.process_variability/1"})",
     "b106763c51fd338317ab39bc831092a92bde7a13b70a20d96a7a9a00b693ca27"},
    {"jitter_vs_stages",
     R"({"divider_n":4,"kind":"iro","mes_periods":20,"schema":"ringent.spec.jitter_vs_stages/1","stage_counts":[3,5]})",
     "0b7f711b631e40d8627842aca8c32797f36a797774235472a4f1376887239a53"},
    {"mode_map",
     R"({"charlie_scale":1,"periods":120,"placement":"clustered","schema":"ringent.spec.mode_map/1","stages":8,"token_counts":[2,4]})",
     "aa6d99b9ff8a7784a533b238796744979f5b3829ebae6be24eedbc977bc19d0b"},
    {"restart",
     R"({"edges":16,"restarts":8,"ring":{"kind":"iro","placement":"evenly_spread","stages":5,"tokens":0},"schema":"ringent.spec.restart/1"})",
     "09d99a938b1e4fe0aa524106cdec56fd9e4d17ad598cd8a2ac5eaaa094063af0"},
    {"coherent_boards",
     R"({"board_count":2,"design_detune":0.050000000000000003,"periods":500,"ring":{"kind":"iro","placement":"evenly_spread","stages":3,"tokens":0},"schema":"ringent.spec.coherent_boards/1"})",
     "3092def24598da49fddd0628c47d06a138cc0adf6626703a8d7946abab7b52b1"},
    {"deterministic_jitter",
     R"({"kind":"iro","modulation_amplitude_v":0.050000000000000003,"modulation_frequency_hz":2000000,"periods":256,"schema":"ringent.spec.deterministic_jitter/1","stage_counts":[3,5]})",
     "17e91e9cfa84bfc4af092d04d04903e16304de0e5abed3ddc26f0e9466631c82"},
    {"entropy_map",
     R"({"battery":{"autocorrelation_lags":8,"collision":true,"compression":true,"lrs":true,"markov":true,"mcv":true,"schema":"ringent.entropy90b-spec/1","t_tuple":true},"bits_per_cell":512,"kinds":["iro","str"],"restart_cols":32,"restart_rows":4,"sampling_periods_fs":[250000000,500000000],"schema":"ringent.spec.entropy_map/1","stage_counts":[5]})",
     "6c9a7ff6cbdcc5a93f3388cb4fe4fe33da08be3961b2e77cc8e45c95da9bd7f6"},
    {"attack_resilience",
     R"({"policy":{"alpha_log2":20,"apt_window":1024,"backoff_bits":256,"claimed_min_entropy":0.29999999999999999,"failover_after_strikes":2,"max_strikes":3,"probation_bits":1024,"suspect_fraction":0.80000000000000004},"regulator":{"ac_attenuation":1,"ripple_frequency_hz":0,"ripple_v":0},"rings":[{"kind":"iro","placement":"evenly_spread","stages":25,"tokens":0}],"sampling_period_fs":250000000,"scenarios":[{"events":[],"name":"quiet"},{"events":[{"frequency_hz":2000,"kind":"supply_tone","magnitude":0.103715,"stage":0,"start_fs":100000000000,"stop_fs":700000000000}],"name":"supply-tone"}],"schema":"ringent.spec.attack_resilience/1","total_bits":2000,"with_backup":true})",
     "3c2635257ba7e5ffc79298efbbafcc04b9908fa389e9bfde9f0b22256ae9751f"},
    {"entropy_service",
     R"({"block_bytes":64,"conditioner":"lfsr","conditioner_ratio":2,"policy":{"alpha_log2":20,"apt_window":1024,"backoff_bits":256,"claimed_min_entropy":0.10000000000000001,"failover_after_strikes":2,"max_strikes":3,"probation_bits":1024,"suspect_fraction":0.59999999999999998},"raw_bits_per_slot":16384,"request_bytes":256,"ring":{"kind":"str","placement":"evenly_spread","stages":24,"tokens":0},"ring_capacity":4096,"sampling_period_fs":250000000,"schema":"ringent.spec.entropy_service/1","slots":2,"synthetic":true,"wait_budget_ms":0})",
     "ee1c72bbae41ca83323748d9519e0194c81fbfce0a43e23a2f77ae16ae831b76"},
};

CellIdentity default_identity(const core::ExperimentDescriptor& entry) {
  CellIdentity identity;
  identity.experiment = entry.name;
  identity.schema = entry.spec_schema;
  identity.spec = entry.canonicalize(entry.default_spec());
  identity.seed = kSeed;
  identity.device = kDevice;
  return identity;
}

// --- filesystem helpers ------------------------------------------------------

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("ringent-test-" + tag + "-" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Every regular file under `dir` (relative path -> bytes). Comparing two
/// of these asserts the stores are byte-identical, not merely equivalent.
std::map<std::string, std::string> dir_contents(const fs::path& dir) {
  std::map<std::string, std::string> contents;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    contents[fs::relative(entry.path(), dir).string()] =
        read_file(entry.path());
  }
  return contents;
}

/// A three-cell restart plan: small enough to execute in milliseconds,
/// big enough to interrupt between cells.
CampaignPlan tiny_restart_plan() {
  CampaignPlan plan;
  plan.name = "tiny-restart";
  plan.device = kDevice;
  plan.seeds = {kSeed};
  PlanEntry entry;
  entry.experiment = "restart";
  entry.grid.emplace_back(
      "restarts", std::vector<Json>{Json(std::int64_t(8)),
                                    Json(std::int64_t(10)),
                                    Json(std::int64_t(12))});
  plan.entries.push_back(entry);
  return plan;
}

}  // namespace

// --- content keys ------------------------------------------------------------

TEST(CampaignKeys, PinnedByteExactForEveryRegistryExperiment) {
  const auto& registry = core::experiment_registry();
  ASSERT_EQ(registry.size(), std::size(kGoldens))
      << "new experiment: add a pinned golden row";

  for (const Golden& golden : kGoldens) {
    const core::ExperimentDescriptor* entry =
        core::find_experiment(golden.experiment);
    ASSERT_NE(entry, nullptr) << golden.experiment;
    ASSERT_TRUE(static_cast<bool>(entry->default_spec)) << golden.experiment;
    ASSERT_TRUE(static_cast<bool>(entry->canonicalize)) << golden.experiment;

    const CellIdentity identity = default_identity(*entry);
    EXPECT_EQ(canonical_dump(identity.spec), golden.canonical_spec)
        << golden.experiment;
    EXPECT_EQ(content_key(identity), golden.content_key) << golden.experiment;
  }
}

TEST(CampaignKeys, KeyIsSensitiveToEveryIdentityField) {
  const core::ExperimentDescriptor* entry = core::find_experiment("restart");
  ASSERT_NE(entry, nullptr);
  const CellIdentity base = default_identity(*entry);
  const std::string key = content_key(base);
  EXPECT_TRUE(is_content_key(key));

  CellIdentity changed = base;
  changed.seed = base.seed + 1;
  EXPECT_NE(content_key(changed), key);

  changed = base;
  changed.device = "cyclone-iv";
  EXPECT_NE(content_key(changed), key);

  changed = base;
  changed.schema = "ringent.spec.restart/2";
  EXPECT_NE(content_key(changed), key);

  changed = base;
  changed.spec.set("restarts", Json(std::int64_t(9)));
  EXPECT_NE(content_key(changed), key);
}

TEST(CampaignKeys, KeyDocumentIsCanonicalJson) {
  const core::ExperimentDescriptor* entry = core::find_experiment("restart");
  ASSERT_NE(entry, nullptr);
  const std::string doc = key_document(default_identity(*entry));
  // Canonical means: parsing and canonically re-dumping is the identity.
  EXPECT_EQ(canonical_dump(Json::parse(doc)), doc);
  EXPECT_EQ(doc.rfind("{\"device\":\"cyclone-iii\"", 0), 0u)
      << "sorted keys put device first: " << doc;
}

TEST(CampaignKeys, IsContentKeyShape) {
  EXPECT_TRUE(is_content_key(std::string(64, 'a')));
  EXPECT_FALSE(is_content_key(std::string(63, 'a')));
  EXPECT_FALSE(is_content_key(std::string(65, 'a')));
  EXPECT_FALSE(is_content_key(std::string(64, 'A')));  // lower-case only
  EXPECT_FALSE(is_content_key(std::string(64, 'g')));
  EXPECT_FALSE(is_content_key(""));
}

// --- spec (de)serialization --------------------------------------------------

TEST(CampaignSpecs, CanonicalizeIsAFixpointForEveryExperiment) {
  for (const auto& entry : core::experiment_registry()) {
    const Json once = entry.canonicalize(entry.default_spec());
    const Json twice = entry.canonicalize(once);
    EXPECT_EQ(canonical_dump(once), canonical_dump(twice)) << entry.name;
    // The canonical form names its own schema.
    EXPECT_EQ(once.at("schema").as_string(), entry.spec_schema) << entry.name;
  }
}

TEST(CampaignSpecs, UnknownKeysAreRejectedNamingTheSchema) {
  for (const auto& entry : core::experiment_registry()) {
    Json spec = entry.canonicalize(entry.default_spec());
    spec.set("bogus_key", Json(std::int64_t(1)));
    try {
      entry.canonicalize(spec);
      FAIL() << entry.name << ": unknown key accepted";
    } catch (const Error& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find(entry.spec_schema), std::string::npos)
          << entry.name << ": error does not name the schema: " << what;
      EXPECT_NE(what.find("bogus_key"), std::string::npos)
          << entry.name << ": error does not name the key: " << what;
    }
  }
}

TEST(CampaignSpecs, MissingRequiredKeyIsRejected) {
  const core::ExperimentDescriptor* entry =
      core::find_experiment("voltage_sweep");
  ASSERT_NE(entry, nullptr);
  Json spec = Json::object();
  spec.set("schema", std::string(entry->spec_schema));
  // No "voltages", no "ring" — both are required.
  EXPECT_THROW(entry->canonicalize(spec), Error);
}

namespace {

/// The registry default of `experiment` with `overlay`'s keys set on top —
/// what a campaign plan entry's spec overlay or grid axis produces.
Json overlaid_default(const char* experiment, const char* overlay) {
  const core::ExperimentDescriptor* entry = core::find_experiment(experiment);
  EXPECT_NE(entry, nullptr) << experiment;
  if (entry == nullptr) return Json::object();
  Json spec = entry->default_spec();
  const Json overrides = Json::parse(overlay);
  for (const auto& [key, value] : overrides.items()) {
    spec.set(key, value);
  }
  return spec;
}

/// Parse `overlay` onto the default of `experiment` and expect a rejection
/// that names both the schema and `key`.
void expect_rejected_naming(const char* experiment, const char* overlay,
                            const char* key) {
  const core::ExperimentDescriptor* entry = core::find_experiment(experiment);
  ASSERT_NE(entry, nullptr) << experiment;
  try {
    entry->canonicalize(overlaid_default(experiment, overlay));
    FAIL() << experiment << " " << overlay << ": accepted";
  } catch (const Error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(entry->spec_schema), std::string::npos) << what;
    EXPECT_NE(what.find(key), std::string::npos) << what;
  }
}

}  // namespace

TEST(CampaignSpecs, DriverMinimumsAreEnforcedAtParseTime) {
  // A spec that parses must also be one its driver runs — the campaign
  // runner relies on expand_plan() implying "will run".
  struct Case {
    const char* experiment;
    const char* overlay;
    const char* key;  ///< the field the error must name
  };
  const Case cases[] = {
      {"restart", R"({"restarts":4})", "restarts"},
      {"coherent_boards", R"({"design_detune":0.5})", "design_detune"},
      {"coherent_boards", R"({"board_count":1})", "board_count"},
      {"jitter_vs_stages", R"({"kind":"str","stage_counts":[3]})",
       "stage_counts"},
      {"entropy_map", R"({"kinds":["str"],"stage_counts":[3]})",
       "stage_counts"},
      {"deterministic_jitter", R"({"kind":"str","stage_counts":[3]})",
       "stage_counts"},
      {"mode_map", R"({"stages":3,"token_counts":[1]})", "token_counts"},
      {"mode_map", R"({"stages":8,"token_counts":[3]})", "token_counts"},
      {"temperature_sweep", R"({"temperatures":[15,35]})", "temperatures"},
      {"entropy_map", R"({"restart_rows":4,"restart_cols":0})",
       "restart_cols"},
      {"entropy_service", R"({"ring_capacity":100})", "ring_capacity"},
  };
  for (const Case& c : cases) {
    expect_rejected_naming(c.experiment, c.overlay, c.key);
  }
}

TEST(CampaignSpecs, BoardCountAboveUnsignedMaxIsRejected) {
  // 2^32 + 2 must not wrap to 2 boards.
  expect_rejected_naming("process_variability",
                         R"({"board_count":4294967298})", "board_count");
}

TEST(CampaignSpecs, RestartCountAboveUnsignedMaxIsRejected) {
  // 2^32 + 8 must not wrap to 8 restarts.
  expect_rejected_naming("restart", R"({"restarts":4294967304})",
                         "restarts");
}

TEST(CampaignSpecs, WrongSchemaIdIsRejected) {
  const core::ExperimentDescriptor* entry = core::find_experiment("restart");
  ASSERT_NE(entry, nullptr);
  Json spec = entry->canonicalize(entry->default_spec());
  spec.set("schema", std::string("ringent.spec.voltage_sweep/1"));
  EXPECT_THROW(entry->canonicalize(spec), Error);
}

// --- plan parsing and expansion ----------------------------------------------

TEST(CampaignPlanFormat, RoundTripsAndRejectsUnknownKeys) {
  const CampaignPlan plan = tiny_restart_plan();
  const std::string dumped = plan.to_json().dump(2);
  const CampaignPlan reloaded = CampaignPlan::from_json(Json::parse(dumped));
  EXPECT_EQ(reloaded.to_json().dump(2), dumped);
  EXPECT_EQ(reloaded.entries.size(), 1u);
  EXPECT_EQ(reloaded.seeds, std::vector<std::uint64_t>{kSeed});

  Json bad = plan.to_json();
  bad.set("surprise", Json(std::int64_t(1)));
  EXPECT_THROW(CampaignPlan::from_json(bad), Error);

  Json no_schema = Json::parse(dumped);
  Json stripped = Json::object();
  for (const auto& [key, value] : no_schema.items()) {
    if (key != "schema") stripped.set(key, value);
  }
  EXPECT_THROW(CampaignPlan::from_json(stripped), Error);
}

TEST(CampaignPlanFormat, ExpansionOrderIsSortedAxesOuterFirstSeedsInnermost) {
  CampaignPlan plan;
  plan.name = "order";
  plan.seeds = {1, 2};
  PlanEntry entry;
  entry.experiment = "restart";
  // Axes arrive sorted by construction ("edges" < "restarts"); expansion
  // treats the earlier axis as the outer loop.
  entry.grid.emplace_back("edges", std::vector<Json>{Json(std::int64_t(16)),
                                                     Json(std::int64_t(24))});
  entry.grid.emplace_back("restarts", std::vector<Json>{Json(std::int64_t(8)),
                                                        Json(std::int64_t(12))});
  plan.entries.push_back(entry);

  const std::vector<CampaignCell> cells = expand_plan(plan);
  ASSERT_EQ(cells.size(), 8u);  // 2 edges x 2 restarts x 2 seeds

  std::vector<std::tuple<std::int64_t, std::int64_t, std::uint64_t>> order;
  for (const CampaignCell& cell : cells) {
    order.emplace_back(cell.spec.at("edges").as_integer(),
                       cell.spec.at("restarts").as_integer(), cell.seed);
  }
  const std::vector<std::tuple<std::int64_t, std::int64_t, std::uint64_t>>
      expected = {{16, 8, 1},  {16, 8, 2},  {16, 12, 1}, {16, 12, 2},
                  {24, 8, 1},  {24, 8, 2},  {24, 12, 1}, {24, 12, 2}};
  EXPECT_EQ(order, expected);

  // Every cell is canonical and self-addressed.
  for (const CampaignCell& cell : cells) {
    CellIdentity identity{cell.experiment, cell.schema, cell.spec, cell.seed,
                          cell.device};
    EXPECT_EQ(content_key(identity), cell.key);
  }
}

TEST(CampaignPlanFormat, SpecOverlayAndDuplicateCellCollapse) {
  CampaignPlan plan;
  plan.name = "overlay";
  plan.seeds = {kSeed};
  PlanEntry overlay;
  overlay.experiment = "restart";
  overlay.spec = Json::object();
  overlay.spec.set("edges", Json(std::int64_t(24)));
  plan.entries.push_back(overlay);
  // Second entry expands to the same cell — must collapse to one.
  PlanEntry duplicate;
  duplicate.experiment = "restart";
  duplicate.grid.emplace_back("edges",
                              std::vector<Json>{Json(std::int64_t(24))});
  plan.entries.push_back(duplicate);

  const std::vector<CampaignCell> cells = expand_plan(plan);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].spec.at("edges").as_integer(), 24);
  // Non-overlaid keys keep the default.
  EXPECT_EQ(cells[0].spec.at("restarts").as_integer(), 8);
}

TEST(CampaignPlanFormat, ExpansionErrorsAreActionable) {
  CampaignPlan unknown_experiment = tiny_restart_plan();
  unknown_experiment.entries[0].experiment = "no_such_experiment";
  EXPECT_THROW(expand_plan(unknown_experiment), Error);

  CampaignPlan unknown_axis = tiny_restart_plan();
  unknown_axis.entries[0].grid.emplace_back(
      "not_a_spec_key", std::vector<Json>{Json(std::int64_t(1))});
  EXPECT_THROW(expand_plan(unknown_axis), Error);

  CampaignPlan invalid_value = tiny_restart_plan();
  invalid_value.entries[0].grid[0].second = {Json(std::int64_t(4))};  // < 8
  EXPECT_THROW(expand_plan(invalid_value), Error);
}

// --- store -------------------------------------------------------------------

TEST(CampaignStore, PutLoadRoundTripAndIndexFixpoint) {
  TempDir tmp("store");
  ResultStore store(tmp.str());

  CampaignPlan plan = tiny_restart_plan();
  const CampaignRunOptions options;
  const CampaignReport report = run_campaign(plan, store, options);
  EXPECT_EQ(report.planned, 3u);
  EXPECT_EQ(report.executed, 3u);
  EXPECT_TRUE(report.complete());

  const std::vector<CampaignCell> cells = expand_plan(plan);
  for (const CampaignCell& cell : cells) {
    const std::optional<CellRecord> record = store.load(cell.key);
    ASSERT_TRUE(record.has_value()) << cell.key;
    EXPECT_EQ(record->experiment, "restart");
    EXPECT_EQ(record->seed, kSeed);
    EXPECT_EQ(record->device, kDevice);
    EXPECT_EQ(canonical_dump(record->spec), canonical_dump(cell.spec));
    // Normalization: machine-varying fields are zeroed in storage...
    EXPECT_EQ(record->manifest.jobs, 0u);
    EXPECT_EQ(record->manifest.wall_ms, 0.0);
    EXPECT_EQ(record->manifest.cpu_ms, 0.0);
    EXPECT_TRUE(record->manifest.metrics.phases.empty());
    EXPECT_TRUE(record->manifest.telemetry.empty());
    // ...while the deterministic simulation counters are kept.
    EXPECT_GT(record->manifest.metrics.counter(
                  sim::metrics::Counter::events_fired),
              0u);
    EXPECT_EQ(record->manifest.seed, cell.seed);
  }

  // index.json: parse -> dump is a fixpoint and lists exactly the cells.
  const std::optional<CampaignIndex> index = store.read_index();
  ASSERT_TRUE(index.has_value());
  EXPECT_EQ(index->cells.size(), 3u);
  const std::string index_bytes = read_file(store.index_path());
  const CampaignIndex reparsed =
      CampaignIndex::from_json(Json::parse(index_bytes));
  EXPECT_EQ(reparsed.to_json().dump(2) + "\n", index_bytes);
  for (std::size_t i = 1; i < index->cells.size(); ++i) {
    EXPECT_LT(index->cells[i - 1].key, index->cells[i].key);
  }
}

TEST(CampaignStore, TornWritesLoadAsMissing) {
  TempDir tmp("torn");
  ResultStore store(tmp.str());
  CampaignPlan plan = tiny_restart_plan();
  run_campaign(plan, store, {});

  const std::vector<CampaignCell> cells = expand_plan(plan);
  const std::string victim = cells[0].key;
  const std::string intact_bytes = read_file(store.cell_path(victim));

  // Truncate mid-record: the classic torn write after power loss.
  {
    std::ofstream out(store.cell_path(victim),
                      std::ios::binary | std::ios::trunc);
    out << intact_bytes.substr(0, intact_bytes.size() / 2);
  }
  EXPECT_FALSE(store.load(victim).has_value());
  EXPECT_FALSE(store.has_valid(victim));

  // A record whose stored key does not hash its own identity is equally
  // torn (e.g. a hand-edited seed): reject, do not serve stale science.
  Json tampered = Json::parse(intact_bytes);
  tampered.set("seed", Json(std::int64_t(kSeed + 1)));
  {
    std::ofstream out(store.cell_path(victim),
                      std::ios::binary | std::ios::trunc);
    out << tampered.dump(2) << "\n";
  }
  EXPECT_FALSE(store.has_valid(victim));

  // Re-running the campaign heals the store back to the original bytes.
  const CampaignReport heal = run_campaign(plan, store, {});
  EXPECT_EQ(heal.cached, 2u);
  EXPECT_EQ(heal.executed, 1u);
  EXPECT_EQ(read_file(store.cell_path(victim)), intact_bytes);
}

TEST(CampaignStore, UnsortedIndexIsRejected) {
  Json index = Json::object();
  index.set("schema", std::string("ringent.campaign/1"));
  Json cells = Json::array();
  for (const char lead : {'b', 'a'}) {  // wrong order
    Json cell = Json::object();
    cell.set("key", std::string(64, lead));
    cell.set("experiment", std::string("restart"));
    cell.set("seed", Json(std::int64_t(1)));
    cells.push_back(cell);
  }
  index.set("cells", cells);
  EXPECT_THROW(CampaignIndex::from_json(index), Error);
}

TEST(CampaignStore, ConcurrentPutsOfOneRecordLeaveOneLoadableFile) {
  // Cells of one process may write the same path at once (two plans naming
  // one cell, or the index). Each writer needs a temp file of its own: a
  // shared one is truncated under a writer or renamed away before its own
  // rename.
  TempDir tmp("concurrent-put");
  ResultStore store(tmp.str());
  run_campaign(tiny_restart_plan(), store, {});
  const std::vector<CampaignCell> cells = expand_plan(tiny_restart_plan());
  const std::optional<CellRecord> stored = store.load(cells[0].key);
  ASSERT_TRUE(stored.has_value());
  const CellRecord record = *stored;

  constexpr int kWriters = 4;
  for (int round = 0; round < 50; ++round) {
    std::latch start(kWriters);
    std::atomic<int> failures{0};
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&] {
        start.arrive_and_wait();
        try {
          store.put(record);
        } catch (const Error&) {
          failures.fetch_add(1);
        }
      });
    }
    for (std::thread& writer : writers) writer.join();
    ASSERT_EQ(failures.load(), 0) << "round " << round;
    const std::optional<CellRecord> loaded = store.load(record.key);
    ASSERT_TRUE(loaded.has_value()) << "round " << round;
    EXPECT_EQ(loaded->to_json().dump(), record.to_json().dump());
  }
  for (const auto& entry : fs::directory_iterator(tmp.path / "cells")) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp."),
              std::string::npos)
        << "leftover temp file " << entry.path();
  }
}

// --- resume / sharding bit-identity ------------------------------------------

TEST(CampaignResume, InterruptedRunResumesBitIdentical) {
  CampaignPlan plan = tiny_restart_plan();

  // Reference: one uninterrupted run.
  TempDir ref_dir("resume-ref");
  ResultStore ref_store(ref_dir.str());
  const CampaignReport ref = run_campaign(plan, ref_store, {});
  EXPECT_EQ(ref.executed, 3u);

  // Interrupted: stop after one cell (deterministic stand-in for SIGKILL
  // between atomic writes), then resume.
  TempDir cut_dir("resume-cut");
  ResultStore cut_store(cut_dir.str());
  CampaignRunOptions first;
  first.max_cells = 1;
  const CampaignReport interrupted = run_campaign(plan, cut_store, first);
  EXPECT_EQ(interrupted.executed, 1u);
  EXPECT_EQ(interrupted.remaining, 2u);
  EXPECT_FALSE(interrupted.complete());

  const CampaignReport resumed = run_campaign(plan, cut_store, {});
  EXPECT_EQ(resumed.cached, 1u)
      << "resume must not re-execute the completed cell";
  EXPECT_EQ(resumed.executed, 2u);
  EXPECT_TRUE(resumed.complete());

  EXPECT_EQ(dir_contents(cut_dir.path), dir_contents(ref_dir.path))
      << "resumed store differs from an uninterrupted run";

  // A third pass is a pure cache hit.
  const CampaignReport warm = run_campaign(plan, cut_store, {});
  EXPECT_EQ(warm.cached, 3u);
  EXPECT_EQ(warm.executed, 0u);
  EXPECT_EQ(dir_contents(cut_dir.path), dir_contents(ref_dir.path));
}

TEST(CampaignResume, ShardedRunsComposeToTheSameStore) {
  CampaignPlan plan = tiny_restart_plan();

  TempDir ref_dir("shard-ref");
  ResultStore ref_store(ref_dir.str());
  run_campaign(plan, ref_store, {});

  TempDir shard_dir("shard");
  ResultStore shard_store(shard_dir.str());
  CampaignRunOptions shard0;
  shard0.shard_index = 0;
  shard0.shard_count = 2;
  CampaignRunOptions shard1;
  shard1.shard_index = 1;
  shard1.shard_count = 2;
  const CampaignReport r0 = run_campaign(plan, shard_store, shard0);
  const CampaignReport r1 = run_campaign(plan, shard_store, shard1);
  EXPECT_EQ(r0.in_shard + r1.in_shard, 3u);
  EXPECT_EQ(r0.executed + r1.executed, 3u);

  EXPECT_EQ(dir_contents(shard_dir.path), dir_contents(ref_dir.path))
      << "sharded store differs from the single-process run";

  CampaignRunOptions bad_shard;
  bad_shard.shard_index = 2;
  bad_shard.shard_count = 2;
  EXPECT_THROW(run_campaign(plan, shard_store, bad_shard), Error);
}

// --- concurrent cells ----------------------------------------------------------

namespace {

/// The committed grand sweep over four seeds, so every experiment has
/// several cells that can run side by side.
CampaignPlan multi_seed_grand_sweep() {
  CampaignPlan plan =
      load_plan(std::string(RINGENT_PLANS_DIR) + "/grand_sweep.json");
  plan.seeds = {kSeed, kSeed + 1, kSeed + 2, kSeed + 3};
  for (PlanEntry& entry : plan.entries) entry.seeds.clear();
  return plan;
}

/// The progress line run_campaign reports for `cell`.
std::string progress_line(const char* verb, const CampaignCell& cell) {
  return std::string(verb) + " " + cell.key.substr(0, 12) + "  " +
         cell.experiment + " seed=" + std::to_string(cell.seed);
}

/// Collects progress lines and records whether two calls ever overlapped.
struct ProgressLog {
  std::mutex mutex;
  std::vector<std::string> lines;
  std::atomic<int> inside{0};
  bool overlapped = false;

  std::function<void(const std::string&)> sink() {
    return [this](const std::string& line) {
      if (inside.fetch_add(1) != 0) overlapped = true;
      {
        const std::lock_guard<std::mutex> lock(mutex);
        lines.push_back(line);
      }
      inside.fetch_sub(1);
    };
  }
};

}  // namespace

TEST(CampaignConcurrency, StoresAreByteIdenticalAtJobs1And2And4) {
  const CampaignPlan plan = multi_seed_grand_sweep();
  TempDir ref_dir("jobs-1");
  ResultStore ref_store(ref_dir.str());
  CampaignRunOptions sequential;
  sequential.jobs = 1;
  const CampaignReport ref = run_campaign(plan, ref_store, sequential);
  ASSERT_GE(ref.planned, 40u);
  ASSERT_EQ(ref.executed, ref.planned);
  const auto expected = dir_contents(ref_dir.path);

  for (const std::size_t jobs : {2u, 4u}) {
    TempDir dir("jobs-" + std::to_string(jobs));
    ResultStore store(dir.str());
    CampaignRunOptions options;
    options.jobs = jobs;
    const CampaignReport report = run_campaign(plan, store, options);
    EXPECT_EQ(report.executed, ref.planned) << "jobs = " << jobs;
    EXPECT_EQ(dir_contents(dir.path), expected) << "jobs = " << jobs;
  }

  // Interrupted after the first cells and resumed, all at jobs 4.
  TempDir cut_dir("jobs-4-cut");
  ResultStore cut_store(cut_dir.str());
  CampaignRunOptions first;
  first.jobs = 4;
  first.max_cells = 7;
  const CampaignReport interrupted = run_campaign(plan, cut_store, first);
  EXPECT_EQ(interrupted.executed, 7u);
  EXPECT_EQ(interrupted.remaining, ref.planned - 7);
  const std::vector<CampaignCell> cells = expand_plan(plan);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cut_store.has_valid(cells[i].key), i < 7)
        << "max_cells must run the first uncached cells, cell " << i;
  }
  CampaignRunOptions resume;
  resume.jobs = 4;
  const CampaignReport resumed = run_campaign(plan, cut_store, resume);
  EXPECT_EQ(resumed.cached, 7u);
  EXPECT_EQ(resumed.executed, ref.planned - 7);
  EXPECT_EQ(dir_contents(cut_dir.path), expected)
      << "resumed store differs from an uninterrupted jobs-1 run";
}

TEST(CampaignConcurrency, ProgressArrivesInExpandedOrderAtJobs4) {
  const CampaignPlan plan = multi_seed_grand_sweep();
  const std::vector<CampaignCell> cells = expand_plan(plan);
  TempDir dir("progress");
  ResultStore store(dir.str());

  ProgressLog cold;
  CampaignRunOptions options;
  options.jobs = 4;
  options.progress = cold.sink();
  run_campaign(plan, store, options);
  std::vector<std::string> expected;
  for (const CampaignCell& cell : cells) {
    expected.push_back(progress_line("executed", cell));
  }
  EXPECT_EQ(cold.lines, expected);
  EXPECT_FALSE(cold.overlapped) << "progress must never be called concurrently";

  // Drop every third record: cached and executed lines interleave, still in
  // expanded order.
  expected.clear();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i % 3 == 1) {
      fs::remove(store.cell_path(cells[i].key));
      expected.push_back(progress_line("executed", cells[i]));
    } else {
      expected.push_back(progress_line("cached  ", cells[i]));
    }
  }
  ProgressLog healed;
  options.progress = healed.sink();
  run_campaign(plan, store, options);
  EXPECT_EQ(healed.lines, expected);
  EXPECT_FALSE(healed.overlapped);
}

TEST(CampaignConcurrency, FailingCellCommitsTheCellsBeforeItAndRethrows) {
  // A voltage sweep without the nominal voltage passes spec validation but
  // fails in the driver (the rule needs the calibration), so it is a cell
  // that throws at run time. It sits between restart cells.
  CampaignPlan plan = tiny_restart_plan();
  PlanEntry bad;
  bad.experiment = "voltage_sweep";
  bad.spec = Json::object();
  bad.spec.set("voltages", Json::parse("[1.1, 1.3]"));
  PlanEntry after = plan.entries[0];
  after.grid[0].second = {Json(std::int64_t(14)), Json(std::int64_t(16))};
  plan.entries = {plan.entries[0], bad, after};
  const std::vector<CampaignCell> cells = expand_plan(plan);
  ASSERT_EQ(cells.size(), 6u);
  ASSERT_EQ(cells[3].experiment, "voltage_sweep");

  for (const std::size_t jobs : {1u, 4u}) {
    TempDir dir("failing-cell-" + std::to_string(jobs));
    ResultStore store(dir.str());
    ProgressLog log;
    CampaignRunOptions options;
    options.jobs = jobs;
    options.progress = log.sink();
    try {
      run_campaign(plan, store, options);
      FAIL() << "expected the voltage-sweep cell to throw, jobs = " << jobs;
    } catch (const PreconditionError& error) {
      EXPECT_NE(std::string(error.what()).find("nominal voltage"),
                std::string::npos)
          << error.what();
    }
    // Every cell before the failure is committed and reported, in order;
    // nothing at or after it is reported.
    std::vector<std::string> expected;
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_TRUE(store.has_valid(cells[i].key)) << "cell " << i;
      expected.push_back(progress_line("executed", cells[i]));
    }
    EXPECT_EQ(log.lines, expected) << "jobs = " << jobs;
    EXPECT_FALSE(store.has_valid(cells[3].key));

    // Cells after it that were already in flight finished and were stored;
    // verify sees exactly the stored cells as valid, and an index that
    // agrees with them.
    std::size_t stored = 0;
    for (const CampaignCell& cell : cells) stored += store.has_valid(cell.key);
    if (jobs == 1) {
      EXPECT_EQ(stored, 3u);
    }
    const VerifyReport verified = verify_campaign(plan, store);
    EXPECT_EQ(verified.valid, stored) << "jobs = " << jobs;
    EXPECT_EQ(verified.torn, 0u);
    EXPECT_EQ(verified.missing, cells.size() - stored);
    EXPECT_TRUE(verified.index_consistent) << "jobs = " << jobs;
  }
}

// --- status / verify ---------------------------------------------------------

TEST(CampaignVerify, StatusAndVerifyReflectTheStore) {
  CampaignPlan plan = tiny_restart_plan();
  TempDir tmp("verify");
  ResultStore store(tmp.str());

  CampaignReport cold = campaign_status(plan, store);
  EXPECT_EQ(cold.planned, 3u);
  EXPECT_EQ(cold.cached, 0u);
  EXPECT_EQ(cold.remaining, 3u);

  run_campaign(plan, store, {});
  CampaignReport warm = campaign_status(plan, store);
  EXPECT_EQ(warm.cached, 3u);
  EXPECT_EQ(warm.remaining, 0u);

  VerifyReport verified = verify_campaign(plan, store);
  EXPECT_TRUE(verified.ok());
  EXPECT_EQ(verified.planned, 3u);
  EXPECT_EQ(verified.valid, 3u);
  EXPECT_EQ(verified.missing, 0u);
  EXPECT_EQ(verified.torn, 0u);
  EXPECT_EQ(verified.orphans, 0u);
  EXPECT_TRUE(verified.index_consistent);

  // Tear one cell: verify must report it (and not as merely missing).
  const std::vector<CampaignCell> cells = expand_plan(plan);
  {
    std::ofstream out(store.cell_path(cells[1].key),
                      std::ios::binary | std::ios::trunc);
    out << "{ not json";
  }
  VerifyReport damaged = verify_campaign(plan, store);
  EXPECT_FALSE(damaged.ok());
  EXPECT_EQ(damaged.valid, 2u);
  EXPECT_EQ(damaged.torn, 1u);
  EXPECT_EQ(damaged.missing, 0u);

  // Remove another: that one is missing, not torn.
  fs::remove(store.cell_path(cells[2].key));
  VerifyReport sparse = verify_campaign(plan, store);
  EXPECT_EQ(sparse.valid, 1u);
  EXPECT_EQ(sparse.torn, 1u);
  EXPECT_EQ(sparse.missing, 1u);

  // A valid record the plan does not claim is an orphan (e.g. the plan
  // shrank after a sweep): counted, but not a hard failure by itself.
  CampaignPlan shrunk = plan;
  shrunk.entries[0].grid[0].second = {Json(std::int64_t(8))};
  run_campaign(plan, store, {});  // heal the full plan first
  VerifyReport orphaned = verify_campaign(shrunk, store);
  EXPECT_EQ(orphaned.planned, 1u);
  EXPECT_EQ(orphaned.valid, 1u);
  EXPECT_EQ(orphaned.orphans, 2u);
}

// --- registry surface --------------------------------------------------------

TEST(CampaignRegistry, RunSpecHonoursTheDocumentNotTheDefaults) {
  const core::ExperimentDescriptor* entry = core::find_experiment("restart");
  ASSERT_NE(entry, nullptr);
  ASSERT_TRUE(static_cast<bool>(entry->run_spec));

  Json spec = entry->canonicalize(entry->default_spec());
  spec.set("restarts", Json(std::int64_t(9)));

  core::ExperimentOptions options;
  options.seed = kSeed;
  const core::RunManifest manifest =
      entry->run_spec(spec, core::cyclone_iii(), options);
  EXPECT_EQ(manifest.experiment, "restart");
  EXPECT_EQ(manifest.seed, kSeed);
  // The restart driver reports restarts + 1 tasks, so an overridden count
  // proves the document (not the committed default) reached the driver.
  EXPECT_EQ(manifest.tasks, 10u);

  // Malformed documents fail before any simulation runs.
  Json junk = Json::object();
  junk.set("restarts", std::string("many"));
  EXPECT_THROW(entry->run_spec(junk, core::cyclone_iii(), options), Error);
}

TEST(CampaignRegistry, FindDeviceProfileIsStrict) {
  EXPECT_EQ(&core::find_device_profile("cyclone-iii"), &core::cyclone_iii());
  EXPECT_THROW(core::find_device_profile("stratix-x"), Error);
}
