#include "core/spec.hpp"

#include "common/require.hpp"

namespace ringent::core {

const char* to_string(RingKind kind) {
  return kind == RingKind::iro ? "IRO" : "STR";
}

RingKind parse_ring_kind(std::string_view name) {
  if (name == "iro") return RingKind::iro;
  if (name == "str") return RingKind::str;
  throw Error("ring kind must be \"iro\" or \"str\", got \"" +
              std::string(name) + "\"");
}

const char* to_string(ring::TokenPlacement placement) {
  return placement == ring::TokenPlacement::clustered ? "clustered"
                                                      : "evenly_spread";
}

ring::TokenPlacement parse_token_placement(std::string_view name) {
  if (name == "evenly_spread") return ring::TokenPlacement::evenly_spread;
  if (name == "clustered") return ring::TokenPlacement::clustered;
  throw Error("token placement must be \"evenly_spread\" or \"clustered\", "
              "got \"" + std::string(name) + "\"");
}

RingSpec RingSpec::iro(std::size_t stages) {
  RingSpec spec;
  spec.kind = RingKind::iro;
  spec.stages = stages;
  spec.validate();
  return spec;
}

RingSpec RingSpec::str(std::size_t stages, std::size_t tokens,
                       ring::TokenPlacement placement) {
  RingSpec spec;
  spec.kind = RingKind::str;
  spec.stages = stages;
  spec.tokens = tokens;
  spec.placement = placement;
  spec.validate();
  return spec;
}

std::size_t RingSpec::effective_tokens() const {
  if (kind != RingKind::str) return 0;
  if (tokens != 0) return tokens;
  std::size_t nt = stages / 2;
  if (nt % 2 == 1) --nt;
  return nt;
}

std::string RingSpec::name() const {
  return std::string(to_string(kind)) + " " + std::to_string(stages) + "C";
}

}  // namespace ringent::core
