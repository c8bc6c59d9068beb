#include "campaign/store.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "campaign/key.hpp"
#include "common/require.hpp"

namespace ringent::campaign {

namespace fs = std::filesystem;

// --- CellRecord --------------------------------------------------------------

Json CellRecord::to_json() const {
  Json json = Json::object();
  json.set("schema", std::string(schema));
  json.set("key", key);
  json.set("experiment", experiment);
  json.set("spec_schema", spec_schema);
  json.set("spec", spec);
  json.set("seed", seed);
  json.set("device", device);
  json.set("manifest", manifest.to_json());
  return json;
}

CellRecord CellRecord::from_json(const Json& json) {
  const std::string where(schema);
  if (!json.is_object()) {
    throw Error(where + ": record must be a JSON object");
  }
  CellRecord record;
  bool saw_schema = false, saw_key = false, saw_experiment = false,
       saw_spec_schema = false, saw_spec = false, saw_seed = false,
       saw_device = false, saw_manifest = false;
  for (const auto& [key, value] : json.items()) {
    if (key == "schema") {
      if (!value.is_string() || value.as_string() != schema) {
        throw Error(where + ": unknown schema id");
      }
      saw_schema = true;
    } else if (key == "key") {
      record.key = value.as_string();
      saw_key = true;
    } else if (key == "experiment") {
      record.experiment = value.as_string();
      saw_experiment = true;
    } else if (key == "spec_schema") {
      record.spec_schema = value.as_string();
      saw_spec_schema = true;
    } else if (key == "spec") {
      record.spec = value;
      saw_spec = true;
    } else if (key == "seed") {
      const std::int64_t seed = value.as_integer();
      if (seed < 0) throw Error(where + ": seed must be non-negative");
      record.seed = static_cast<std::uint64_t>(seed);
      saw_seed = true;
    } else if (key == "device") {
      record.device = value.as_string();
      saw_device = true;
    } else if (key == "manifest") {
      record.manifest = core::RunManifest::from_json(value);
      saw_manifest = true;
    } else {
      throw Error(where + ": unknown key \"" + key + "\"");
    }
  }
  if (!(saw_schema && saw_key && saw_experiment && saw_spec_schema &&
        saw_spec && saw_seed && saw_device && saw_manifest)) {
    throw Error(where + ": missing required key");
  }
  // Self-check: the stored key must be the content key of the identity
  // fields. A record edited, truncated-then-refilled, or attributed to the
  // wrong file fails here and is treated as torn.
  const std::string expected = content_key(CellIdentity{
      record.experiment, record.spec_schema, record.spec, record.seed,
      record.device});
  if (record.key != expected) {
    throw Error(where + ": stored key does not match record content");
  }
  return record;
}

core::RunManifest normalize_manifest(core::RunManifest manifest) {
  manifest.jobs = 0;
  manifest.wall_ms = 0.0;
  manifest.cpu_ms = 0.0;
  manifest.metrics.phases.clear();
  manifest.telemetry.clear();
  return manifest;
}

// --- CampaignIndex -----------------------------------------------------------

Json CampaignIndex::to_json() const {
  Json json = Json::object();
  json.set("schema", std::string(schema));
  Json cell_list = Json::array();
  for (const Entry& entry : cells) {
    Json cell = Json::object();
    cell.set("key", entry.key);
    cell.set("experiment", entry.experiment);
    cell.set("seed", entry.seed);
    cell_list.push_back(std::move(cell));
  }
  json.set("cells", std::move(cell_list));
  return json;
}

CampaignIndex CampaignIndex::from_json(const Json& json) {
  const std::string where(schema);
  if (!json.is_object()) {
    throw Error(where + ": index must be a JSON object");
  }
  CampaignIndex index;
  bool saw_schema = false, saw_cells = false;
  for (const auto& [key, value] : json.items()) {
    if (key == "schema") {
      if (!value.is_string() || value.as_string() != schema) {
        throw Error(where + ": unknown schema id");
      }
      saw_schema = true;
    } else if (key == "cells") {
      if (!value.is_array()) {
        throw Error(where + ": \"cells\" must be an array");
      }
      for (std::size_t i = 0; i < value.size(); ++i) {
        const Json& cell = value.at(i);
        if (!cell.is_object()) {
          throw Error(where + ": cell entries must be objects");
        }
        Entry entry;
        bool saw_key = false, saw_experiment = false, saw_seed = false;
        for (const auto& [cell_key, cell_value] : cell.items()) {
          if (cell_key == "key") {
            entry.key = cell_value.as_string();
            if (!is_content_key(entry.key)) {
              throw Error(where + ": malformed content key");
            }
            saw_key = true;
          } else if (cell_key == "experiment") {
            entry.experiment = cell_value.as_string();
            saw_experiment = true;
          } else if (cell_key == "seed") {
            const std::int64_t seed = cell_value.as_integer();
            if (seed < 0) throw Error(where + ": seed must be non-negative");
            entry.seed = static_cast<std::uint64_t>(seed);
            saw_seed = true;
          } else {
            throw Error(where + ": unknown cell key \"" + cell_key + "\"");
          }
        }
        if (!(saw_key && saw_experiment && saw_seed)) {
          throw Error(where + ": cell entry missing required key");
        }
        index.cells.push_back(std::move(entry));
      }
      saw_cells = true;
    } else {
      throw Error(where + ": unknown key \"" + key + "\"");
    }
  }
  if (!(saw_schema && saw_cells)) {
    throw Error(where + ": missing required key");
  }
  for (std::size_t i = 1; i < index.cells.size(); ++i) {
    if (!(index.cells[i - 1].key < index.cells[i].key)) {
      throw Error(where + ": cells must be strictly sorted by key");
    }
  }
  return index;
}

// --- ResultStore -------------------------------------------------------------

namespace {

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  if (!in.good() && !in.eof()) return std::nullopt;
  return text.str();
}

/// Write `content` to `path` atomically: temp file in the same directory,
/// flushed and closed, then renamed over the target. Readers never observe
/// a half-written file through the final name. The temp name carries the
/// pid and a per-process sequence number, so no two writers — concurrent
/// --shard processes, or concurrent cells of one process — ever share (and
/// truncate) one in-flight temp file.
void write_file_atomic(const std::string& path, const std::string& content) {
  static std::atomic<std::uint64_t> sequence{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(sequence.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw Error("cannot write " + tmp);
    out << content;
    out.flush();
    if (!out.good()) {
      out.close();
      std::remove(tmp.c_str());
      throw Error("short write to " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error("cannot rename " + tmp + " into place");
  }
}

}  // namespace

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir)) {
  RINGENT_REQUIRE(!dir_.empty(), "result store needs a directory");
  std::error_code ec;
  fs::create_directories(fs::path(dir_) / "cells", ec);
  if (ec) {
    throw Error("cannot create result store at " + dir_ + ": " + ec.message());
  }
}

std::string ResultStore::cell_path(const std::string& key) const {
  return (fs::path(dir_) / "cells" / (key + ".json")).string();
}

std::string ResultStore::index_path() const {
  return (fs::path(dir_) / "index.json").string();
}

std::optional<CellRecord> ResultStore::load(const std::string& key) const {
  if (!is_content_key(key)) return std::nullopt;
  const std::optional<std::string> text = read_file(cell_path(key));
  if (!text) return std::nullopt;
  try {
    CellRecord record = CellRecord::from_json(Json::parse(*text));
    if (record.key != key) return std::nullopt;  // record under wrong name
    return record;
  } catch (const Error&) {
    return std::nullopt;  // torn or corrupt: caller re-runs the cell
  }
}

void ResultStore::put(const CellRecord& record) const {
  RINGENT_REQUIRE(is_content_key(record.key),
                  "cell record key must be a content key");
  write_file_atomic(cell_path(record.key), record.to_json().dump(2) + "\n");
}

std::vector<std::string> ResultStore::list_keys() const {
  std::vector<std::string> keys;
  std::error_code ec;
  for (const auto& entry :
       fs::directory_iterator(fs::path(dir_) / "cells", ec)) {
    if (!entry.is_regular_file()) continue;
    const fs::path& path = entry.path();
    if (path.extension() != ".json") continue;
    const std::string stem = path.stem().string();
    if (is_content_key(stem)) keys.push_back(stem);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

CampaignIndex ResultStore::rebuild_index() const {
  CampaignIndex index;
  for (const std::string& key : list_keys()) {
    const std::optional<CellRecord> record = load(key);
    if (!record) continue;  // torn records are not indexed
    index.cells.push_back({record->key, record->experiment, record->seed});
  }
  // list_keys() is sorted and keys are unique file names, so the index is
  // already strictly sorted — the from_json invariant.
  write_file_atomic(index_path(), index.to_json().dump(2) + "\n");
  return index;
}

std::optional<CampaignIndex> ResultStore::read_index() const {
  const std::optional<std::string> text = read_file(index_path());
  if (!text) return std::nullopt;
  try {
    return CampaignIndex::from_json(Json::parse(*text));
  } catch (const Error&) {
    return std::nullopt;
  }
}

}  // namespace ringent::campaign
