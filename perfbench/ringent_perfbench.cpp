// One iteration of a perfbench workload, driven through ringent's public
// entry points. run.py starts this binary once per iteration, in a fresh
// working directory, and aggregates the JSON it writes to --out.
//
//   ringent_perfbench --workload paper_figures --seed 1 --jobs 4
//                     --plan perfbench/plans/paper_figures.json
//                     --out result.json [--trace-out trace.json]
//
// Workloads:
//   paper_figures, entropy_extensions  a cold campaign::run_campaign over a
//       committed plan whose seeds are derived from --seed (the timed
//       section), then verify_campaign, a load of every cell record, a warm
//       rerun and one rebuild_index() (the read side, timed per layer).
//   entropy_service  GeneratorPool + EntropyService on synthetic
//       PrngBitSource slots, drained by one closed-loop consumer.
//
// Only the benchmark's own clocks are used: the process-global metrics
// snapshot of the library is never read. With --trace-out the spans are
// kept in memory and written once, as Chrome-trace JSON, at exit.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/plan.hpp"
#include "campaign/runner.hpp"
#include "campaign/store.hpp"
#include "common/json.hpp"
#include "service/frontend.hpp"
#include "service/pool.hpp"

namespace fs = std::filesystem;
using namespace ringent;

namespace {

// --- workload sizes ----------------------------------------------------------

// Set-up is timed repeatedly, each time on fresh state, for at least this
// long and this many times; the fastest set-up is reported. A set-up lasts
// well under a millisecond, and the host's speed changes from one tenth of a
// second to the next, so only a floor taken over a long window repeats.
constexpr double kSetupWindowUs = 1e6;
constexpr std::size_t kSetupMinReps = 11;
constexpr std::size_t kServiceSlots = 4;
constexpr std::size_t kServiceWorkers = 1;    // plus the consumer thread
constexpr std::size_t kServiceRatio = 2;      // raw bytes per conditioned byte
constexpr std::size_t kRequestBytes = 1024;
constexpr std::uint64_t kRawBitsPerSlot = 3ull << 23;

// --- clocks ------------------------------------------------------------------

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() - kEpoch)
      .count();
}

/// CPU time of the whole process (every thread), in seconds.
double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double min_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// Whether the set-up about to run, which would make `reps` in all, is not
/// yet the last one of a window that began at `window_start_us`.
bool more_setups(std::size_t reps, double window_start_us) {
  return reps < kSetupMinReps || now_us() - window_start_us < kSetupWindowUs;
}

/// Nearest-rank quantile of sorted `v`.
double quantile_sorted(const std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Input seed `index` of workload seed `seed` (31 bits: exact in JSON).
std::uint64_t derived_seed(std::uint64_t seed, std::uint64_t index) {
  return splitmix64(seed * 0x100000001B3ull + index) & 0x7FFFFFFFull;
}

// --- span recorder -----------------------------------------------------------

/// In-memory spans, written once as Chrome-trace JSON. Disabled, every call
/// is a branch and nothing is stored.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool on) : on_(on) {}

  /// Open a span; returns its id (0 when off). `parent` 0 = root.
  int begin(std::string name, int parent = 0) {
    if (!on_) return 0;
    spans_.push_back({std::move(name), now_us(), -1.0, parent});
    return static_cast<int>(spans_.size());
  }
  void end(int id) {
    if (on_) spans_[static_cast<std::size_t>(id) - 1].end_us = now_us();
  }
  /// Record an already-finished span.
  void add(std::string name, double start_us, double end_us, int parent) {
    if (on_) spans_.push_back({std::move(name), start_us, end_us, parent});
  }

  void write_chrome_trace(const std::string& path) const {
    Json events = Json::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Json args = Json::object();
      args.set("id", static_cast<std::uint64_t>(i + 1));
      args.set("parent", static_cast<std::int64_t>(s.parent));
      Json event = Json::object();
      event.set("name", s.name);
      event.set("cat", "perfbench");
      event.set("ph", "X");
      event.set("ts", s.start_us);
      event.set("dur", std::max(0.0, s.end_us - s.start_us));
      event.set("pid", 1);
      event.set("tid", 1);
      event.set("args", std::move(args));
      events.push_back(std::move(event));
    }
    Json root = Json::object();
    root.set("traceEvents", std::move(events));
    root.set("displayTimeUnit", "ms");
    std::ofstream out(path);
    out << root.dump() << "\n";
    if (!out) throw std::runtime_error("cannot write trace " + path);
  }

 private:
  struct Span {
    std::string name;
    double start_us;
    double end_us;
    int parent;
  };
  bool on_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(SpanRecorder& rec, std::string name, int parent = 0)
      : rec_(rec), id_(rec.begin(std::move(name), parent)) {}
  ~Scope() { rec_.end(id_); }
  int id() const { return id_; }

 private:
  SpanRecorder& rec_;
  int id_;
};

// --- campaign workloads ------------------------------------------------------

std::uint64_t tree_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

std::uint64_t cwd_manifest_files() {
  std::uint64_t n = 0;
  for (const auto& entry : fs::directory_iterator(fs::current_path())) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 14 && name.ends_with(".manifest.json")) ++n;
  }
  return n;
}

/// DFF-sampled raw bits one cell asks for: entropy_map battery bits plus its
/// restart matrices, attack_resilience bits per (ring, scenario). Other
/// experiments sample none.
std::uint64_t sampled_bits(const campaign::CampaignCell& cell) {
  const Json& s = cell.spec;
  const auto n = [&](const char* key) {
    return static_cast<std::uint64_t>(s.at(key).as_integer());
  };
  if (cell.experiment == "entropy_map") {
    const std::uint64_t grid = s.at("kinds").size() *
                               s.at("stage_counts").size() *
                               s.at("sampling_periods_fs").size();
    return grid * (n("bits_per_cell") + n("restart_rows") * n("restart_cols"));
  }
  if (cell.experiment == "attack_resilience") {
    return s.at("rings").size() * s.at("scenarios").size() * n("total_bits");
  }
  return 0;
}

Json run_campaign_workload(const std::string& plan_path, std::uint64_t seed,
                           std::size_t jobs, SpanRecorder& rec, int root) {
  Json out = Json::object();

  // Set up repeatedly (plan load, expand_plan, store open), each time on a
  // fresh store directory; the last set-up is the one that runs. The
  // others' directories are removed untimed. Only the last set-up's parts
  // are traced.
  std::vector<double> setup_s, expand_ms;
  campaign::CampaignPlan plan;
  std::vector<campaign::CampaignCell> cells;
  std::unique_ptr<campaign::ResultStore> store;
  {
    Scope span(rec, "setup", root);
    const double window0 = now_us();
    for (bool last = false; !last;) {
      last = !more_setups(setup_s.size() + 1, window0);
      const std::string dir = last ? "store" : "setup-store";
      const double t0 = now_us();
      plan = campaign::load_plan(plan_path);
      for (std::size_t i = 0; i < plan.seeds.size(); ++i) {
        plan.seeds[i] = derived_seed(seed, i);
      }
      const double te0 = now_us();
      cells = campaign::expand_plan(plan);
      const double te1 = now_us();
      store = std::make_unique<campaign::ResultStore>(dir);
      const double t1 = now_us();
      setup_s.push_back((t1 - t0) * 1e-6);
      expand_ms.push_back((te1 - te0) * 1e-3);
      if (last) {
        rec.add("load_plan", t0, te0, span.id());
        rec.add("expand_plan", te0, te1, span.id());
        rec.add("store_open", te1, t1, span.id());
      } else {
        store.reset();
        fs::remove_all(dir);
      }
    }
  }
  out.set("setup_s", min_of(setup_s));
  out.set("expand_ms", min_of(expand_ms));
  out.set("planned", static_cast<std::uint64_t>(cells.size()));

  std::uint64_t bits = 0;
  for (const auto& cell : cells) bits += sampled_bits(cell);
  out.set("sampled_bits", bits);

  // Timed section: one cold run_campaign. Cell spans are bounded by
  // consecutive progress callbacks; cells execute in expanded order.
  Json cell_times = Json::array();
  std::uint64_t progress_mismatch = 0;
  std::size_t next_cell = 0;
  std::string error;
  campaign::CampaignReport report;
  const int run_span = rec.begin("run_campaign", root);
  double prev_us = now_us();
  const double cpu0 = process_cpu_s();
  const double wall0 = prev_us;
  campaign::CampaignRunOptions options;
  options.jobs = jobs;
  options.progress = [&](const std::string& line) {
    const double t = now_us();
    if (next_cell >= cells.size()) {
      ++progress_mismatch;
      return;
    }
    const std::string& experiment = cells[next_cell].experiment;
    if (!line.starts_with("executed") ||
        line.find("  " + experiment + " ") == std::string::npos) {
      ++progress_mismatch;
    }
    Json cell = Json::object();
    cell.set("experiment", experiment);
    cell.set("s", (t - prev_us) * 1e-6);
    cell_times.push_back(std::move(cell));
    rec.add("core.cell." + experiment, prev_us, t, run_span);
    prev_us = t;
    ++next_cell;
  };
  try {
    report = campaign::run_campaign(plan, *store, options);
  } catch (const std::exception& e) {
    error = e.what();
  }
  const double wall1 = now_us();
  const double cpu1 = process_cpu_s();
  rec.end(run_span);
  out.set("wall_s", (wall1 - wall0) * 1e-6);
  out.set("cpu_s", cpu1 - cpu0);
  out.set("cells", std::move(cell_times));
  out.set("executed", static_cast<std::uint64_t>(report.executed));
  out.set("cached", static_cast<std::uint64_t>(report.cached));
  out.set("progress_mismatch", progress_mismatch);
  out.set("error", error);

  // Read side, outside the timed section.
  {
    Scope span(rec, "verify_campaign", root);
    const double t0 = now_us();
    const campaign::VerifyReport v = campaign::verify_campaign(plan, *store);
    out.set("verify_ms", (now_us() - t0) * 1e-3);
    out.set("verify_ok", v.ok());
    out.set("verify_valid", static_cast<std::uint64_t>(v.valid));
  }
  {
    Scope span(rec, "load_records", root);
    const double t0 = now_us();
    std::uint64_t loaded = 0;
    for (const auto& cell : cells) loaded += store->load(cell.key) ? 1 : 0;
    out.set("load_records_ms", (now_us() - t0) * 1e-3);
    out.set("loaded", loaded);
  }
  if (error.empty()) {
    Scope span(rec, "warm_rerun", root);
    const double t0 = now_us();
    campaign::CampaignRunOptions warm;
    warm.jobs = jobs;
    const campaign::CampaignReport r = campaign::run_campaign(plan, *store, warm);
    out.set("warm_rerun_ms", (now_us() - t0) * 1e-3);
    out.set("warm_cached", static_cast<std::uint64_t>(r.cached));
    out.set("warm_executed", static_cast<std::uint64_t>(r.executed));
  }
  {
    Scope span(rec, "rebuild_index", root);
    const double t0 = now_us();
    store->rebuild_index();
    out.set("index_rebuild_ms", (now_us() - t0) * 1e-3);
  }
  out.set("store_bytes", tree_bytes("store"));
  out.set("cwd_manifest_files", cwd_manifest_files());
  return out;
}

// --- entropy_service workload ------------------------------------------------

std::uint64_t fnv1a(std::uint64_t h, std::span<const std::uint8_t> bytes) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

Json run_service_workload(std::uint64_t seed, SpanRecorder& rec, int root) {
  Json out = Json::object();
  service::PoolConfig config;
  config.slots = kServiceSlots;
  config.workers = kServiceWorkers;
  config.seed = derived_seed(seed, 0);
  config.raw_bits_per_slot = kRawBitsPerSlot;
  config.conditioner = service::ConditionerKind::hash;
  config.conditioner_ratio = kServiceRatio;
  const service::SourceFactory factory = [](std::size_t, std::uint64_t s) {
    service::SlotSources sources;
    sources.primary = std::make_unique<service::PrngBitSource>(s);
    sources.backup =
        std::make_unique<service::PrngBitSource>(s ^ 0x9E3779B97F4A7C15ull);
    return sources;
  };

  // Set up repeatedly (pool construction + start()); every pool but the
  // last is stopped again untimed. Only the last set-up's parts are traced.
  std::vector<double> setup_s, start_ms;
  std::unique_ptr<service::GeneratorPool> pool;
  {
    Scope span(rec, "setup", root);
    const double window0 = now_us();
    for (bool last = false; !last;) {
      last = !more_setups(setup_s.size() + 1, window0);
      if (pool) {
        pool->stop();
        pool.reset();
      }
      const double t0 = now_us();
      pool = std::make_unique<service::GeneratorPool>(config, factory);
      const double ts = now_us();
      pool->start();
      const double t1 = now_us();
      setup_s.push_back((t1 - t0) * 1e-6);
      start_ms.push_back((t1 - ts) * 1e-3);
      if (last) {
        rec.add("pool.construct", t0, ts, span.id());
        rec.add("pool.start", ts, t1, span.id());
      }
    }
  }
  out.set("setup_s", min_of(setup_s));
  out.set("pool_start_ms", min_of(start_ms));
  service::EntropyService frontend(*pool);

  // Timed section: one closed-loop consumer drains every slot's budget.
  const std::uint64_t expected =
      kServiceSlots * kRawBitsPerSlot / (8 * kServiceRatio);
  std::vector<double> latency_us;
  latency_us.reserve(expected / kRequestBytes + 1);
  std::vector<std::uint8_t> buf(kRequestBytes);
  std::uint64_t fnv = 1469598103934665603ull;
  std::uint64_t delivered = 0, short_calls = 0, early_starvation = 0;
  const int drain = rec.begin("drain", root);
  const double cpu0 = process_cpu_s();
  const double wall0 = now_us();
  for (;;) {
    const double t0 = now_us();
    std::size_t got = 0;
    try {
      got = frontend.acquire(std::span<std::uint8_t>(buf));
    } catch (const service::StarvationError&) {
      // The drain ends on the explicit starvation signal; before every
      // slot has retired it is a failure.
      if (frontend.live_slots() != 0) ++early_starvation;
      break;
    }
    const double t1 = now_us();
    latency_us.push_back(t1 - t0);
    rec.add("acquire", t0, t1, drain);
    fnv = fnv1a(fnv, std::span<const std::uint8_t>(buf).first(got));
    delivered += got;
    if (got < kRequestBytes && delivered != expected) ++short_calls;
  }
  const double wall1 = now_us();
  const double cpu1 = process_cpu_s();
  rec.end(drain);
  {
    Scope span(rec, "pool.stop", root);
    pool->stop();
  }

  std::sort(latency_us.begin(), latency_us.end());
  const service::PoolStats ps = pool->stats();
  const service::FrontendStats& fs_stats = frontend.stats();
  std::uint64_t rct = 0, apt = 0, muted = 0, relocks = 0, failovers = 0,
                transitions = 0;
  for (std::size_t i = 0; i < pool->slot_count(); ++i) {
    const trng::ResilientGenerator& g = pool->generator(i);
    rct += g.stats().rct_alarms;
    apt += g.stats().apt_alarms;
    muted += g.stats().bits_muted;
    relocks += g.stats().relock_attempts;
    failovers += g.stats().failovers;
    transitions += g.transitions().size();
  }
  char fnv_hex[19];
  std::snprintf(fnv_hex, sizeof fnv_hex, "0x%016llx",
                static_cast<unsigned long long>(fnv));

  out.set("wall_s", (wall1 - wall0) * 1e-6);
  out.set("cpu_s", cpu1 - cpu0);
  out.set("slots", static_cast<std::uint64_t>(kServiceSlots));
  out.set("workers", static_cast<std::uint64_t>(pool->worker_count()));
  out.set("expected_bytes", expected);
  out.set("delivered", delivered);
  out.set("stream_fnv1a64", std::string(fnv_hex));
  out.set("short_calls", short_calls);
  out.set("early_starvation", early_starvation);
  out.set("acquire_samples", static_cast<std::uint64_t>(latency_us.size()));
  out.set("acquire_p50_us", quantile_sorted(latency_us, 0.50));
  out.set("acquire_p99_us", quantile_sorted(latency_us, 0.99));
  out.set("acquire_p999_us", quantile_sorted(latency_us, 0.999));
  out.set("requests", fs_stats.requests);
  out.set("bytes_delivered", fs_stats.bytes_delivered);
  out.set("starvations", fs_stats.starvations);
  out.set("waits", fs_stats.waits);
  out.set("raw_bits_in", ps.raw_bits_in);
  out.set("conditioned_bytes", ps.conditioned_bytes);
  out.set("slots_failed", ps.slots_failed);
  out.set("slots_exhausted", ps.slots_exhausted);
  out.set("rct_alarms", rct);
  out.set("apt_alarms", apt);
  out.set("bits_muted", muted);
  out.set("relock_attempts", relocks);
  out.set("failovers", failovers);
  out.set("transitions", transitions);
  return out;
}

// --- main --------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::string plan;
  std::size_t jobs = 1;
  std::string trace_out;
  std::string out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--plan") a.plan = value;
    else if (key == "--jobs") a.jobs = std::stoul(value);
    else if (key == "--trace-out") a.trace_out = value;
    else if (key == "--out") a.out = value;
    else throw std::runtime_error("unknown argument " + key);
  }
  if (a.workload.empty() || a.out.empty() || a.jobs == 0) {
    throw std::runtime_error("--workload, --out and --jobs >= 1 are required");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    SpanRecorder rec(!args.trace_out.empty());
    Json result;
    {
      Scope root(rec, "workload." + args.workload);
      if (args.workload == "entropy_service") {
        result = run_service_workload(args.seed, rec, root.id());
      } else {
        result = run_campaign_workload(args.plan, args.seed, args.jobs, rec,
                                       root.id());
      }
    }
    result.set("workload", args.workload);
    result.set("compiler", PERFBENCH_COMPILER);
    result.set("build_type", PERFBENCH_BUILD_TYPE);
    if (!args.trace_out.empty()) {
      rec.write_chrome_trace(args.trace_out);
    }
    std::ofstream out(args.out);
    out << result.dump() << "\n";
    return out ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ringent_perfbench: %s\n", e.what());
    return 1;
  }
}
