/// \file config_table.hpp
/// \brief The one table of user-settable `MinerConfig` keys.
///
/// A row declares a key once: its protocol name, the member it sets, its
/// valid range and the entry paths (surfaces) that accept it; the CLI flag
/// is `--` plus the name with `_` turned into `-`. The serve `open` verb,
/// the `sisd_cli` flags and `ValidateMinerConfig` all loop over the rows,
/// so a value is range-checked before it is stored and never narrowed.

#ifndef SISD_CORE_CONFIG_TABLE_HPP_
#define SISD_CORE_CONFIG_TABLE_HPP_

#include <span>
#include <string>
#include <string_view>
#include <variant>

#include "common/status.hpp"
#include "core/session.hpp"
#include "serialize/json.hpp"

namespace sisd::core {

/// \brief Entry paths a key can be set through (bits of `surfaces`).
enum ConfigSurface : unsigned {
  kProtocolConfig = 1u << 0,  ///< the serve `open` verb's `config` object
  kCliMine = 1u << 1,         ///< `sisd_cli mine`
  kCliList = 1u << 2,         ///< `sisd_cli list`
};

/// \brief The member a key sets; the alternative is the key's type.
/// `PatternMix` is set as a bool (true = location patterns only).
using ConfigField = std::variant<int*, size_t*, double*, bool*, PatternMix*>;

/// \brief Valid values of a numeric key: `min` to `max` inclusive. NaN is
/// never valid; a `max` of the largest finite double rejects infinity.
struct ConfigRange {
  double min = 0.0;
  double max = 0.0;
  bool min_open = false;   ///< `min` itself is excluded
  bool ends_only = false;  ///< only `min` or `max`, nothing in between
};

/// \brief One row of the table.
struct ConfigKey {
  std::string_view name;
  ConfigField (*field)(MinerConfig&);
  ConfigRange range;  ///< unused for bool keys
  unsigned surfaces;  ///< `ConfigSurface` bits
  std::string_view help;
};

/// \brief All rows, in documentation order.
std::span<const ConfigKey> ConfigKeys();

/// \brief The key's CLI flag, e.g. "--beam-width".
std::string ConfigFlag(const ConfigKey& key);
/// \brief "integer", "number" or "bool".
std::string_view ConfigTypeName(const ConfigKey& key);
/// \brief E.g. "in [1, 2147483647]", ">= 0" or "0 or 2".
std::string DescribeConfigRange(const ConfigKey& key);
/// \brief The key's value in a default-constructed `MinerConfig`.
std::string DescribeConfigDefault(const ConfigKey& key);

/// \brief The protocol setter: sets protocol key `name` from a JSON value.
/// An unknown key, a wrong JSON type or an out-of-range value answers
/// InvalidArgument and leaves `config` unchanged.
Status SetConfigFromJson(std::string_view name,
                         const serialize::JsonValue& value,
                         MinerConfig* config);

/// \brief The CLI setter: the same, from a flag's text. Bool keys are
/// switches: `text` is ignored and the key set to true.
Status SetConfigFromText(const ConfigKey& key, std::string_view text,
                         MinerConfig* config);

}  // namespace sisd::core

#endif  // SISD_CORE_CONFIG_TABLE_HPP_
