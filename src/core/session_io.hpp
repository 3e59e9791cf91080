/// \file session_io.hpp
/// \brief The session snapshot codec. `MiningSession`'s persistence members
/// (`SaveToString`, `RestoreFromString`, `Save`, `Restore`) are defined in
/// session_io.cpp next to the codecs of the snapshot's parts — dataset
/// reference, version chain, iteration and list history — which are
/// private to it. Same contract as serialize/snapshot.hpp: strict
/// bit-exact round trips, Result-based validation.

#ifndef SISD_CORE_SESSION_IO_HPP_
#define SISD_CORE_SESSION_IO_HPP_

#include "common/status.hpp"
#include "core/session.hpp"
#include "serialize/json.hpp"

namespace sisd::core {

/// \name Config codec (the snapshot's `config` field).
/// @{
serialize::JsonValue EncodeMinerConfig(const MinerConfig& config);
Result<MinerConfig> DecodeMinerConfig(const serialize::JsonValue& json);
/// @}

}  // namespace sisd::core

#endif  // SISD_CORE_SESSION_IO_HPP_
