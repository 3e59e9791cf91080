#include "core/config_table.hpp"

#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "common/strings.hpp"
#include "search/thread_pool.hpp"

namespace sisd::core {

namespace {

constexpr double kIntMax = std::numeric_limits<int>::max();
// Integers arrive as int64 (JSON, the CLI parser and the snapshot all
// carry int64), so that bounds the size_t keys.
constexpr double kInt64Max = double(std::numeric_limits<int64_t>::max());
constexpr double kFiniteMax = std::numeric_limits<double>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();

constexpr unsigned kSearch =
    kProtocolConfig | kCliMine | kCliList | kCliOptimal;
constexpr unsigned kSession = kProtocolConfig | kCliMine | kCliList;

#define SISD_FIELD(member) \
  [](MinerConfig& c) -> ConfigField { return &c.member; }

const ConfigKey kKeys[] = {
    {"beam_width", SISD_FIELD(search.beam_width), {1, kIntMax}, kSearch,
     "beam width"},
    {"max_depth", SISD_FIELD(search.max_depth), {1, kIntMax}, kSearch,
     "max conditions per intention"},
    {"splits", SISD_FIELD(search.num_split_points), {1, kIntMax}, kSearch,
     "numeric split points per attribute"},
    {"top_k", SISD_FIELD(search.top_k), {1, kInt64Max}, kSearch,
     "global ranked-list size"},
    {"min_coverage", SISD_FIELD(search.min_coverage), {0, kInt64Max},
     kSearch, "minimum subgroup size"},
    {"max_coverage_fraction", SISD_FIELD(search.max_coverage_fraction),
     {0, 1, /*min_open=*/true}, kProtocolConfig,
     "maximum subgroup size as a fraction of the rows"},
    {"time_budget", SISD_FIELD(search.time_budget_seconds), {0, kInf},
     kSearch, "wall-clock search budget per iteration, seconds"},
    {"threads", SISD_FIELD(search.num_threads),
     {0, double(search::ThreadPool::kMaxThreads)},
     kSearch & ~kProtocolConfig, "scoring threads (0 = auto)"},
    {"gamma", SISD_FIELD(dl.gamma), {0, kFiniteMax}, kSearch,
     "description-length cost per condition"},
    {"eta", SISD_FIELD(dl.eta), {0, kFiniteMax}, kSearch,
     "description-length cost per pattern"},
    {"exclusions", SISD_FIELD(search.include_exclusions), {}, kSearch,
     "add != conditions for categoricals with 3+ levels"},
    {"location_only", SISD_FIELD(mix), {}, kSession,
     "mine location patterns only (no spread patterns)"},
    {"spread_sparsity", SISD_FIELD(spread_sparsity),
     {0, 2, false, /*ends_only=*/true}, kSession,
     "0 = dense spread direction, 2 = pair sweep (§III-C)"},
    {"list_alpha", SISD_FIELD(list_gain.alpha), {0, kFiniteMax}, kSession,
     "subgroup-list cost per condition"},
    {"list_beta", SISD_FIELD(list_gain.beta), {0, kFiniteMax}, kSession,
     "subgroup-list cost per rule"},
    {"optimal", SISD_FIELD(use_optimal_search), {}, kCliMine,
     "mine location patterns by optimal branch-and-bound"},
};

#undef SISD_FIELD

/// A parsed value: int64 for integer keys, double for number keys.
using Value = std::variant<int64_t, double, bool>;

/// The field's value as a double (bools as 0/1): what the range check
/// and the messages need. `key.field` only forms a pointer and nothing is
/// written through it, so reading a const config this way is safe.
double Read(const ConfigKey& key, const MinerConfig& config) {
  return std::visit(
      [](auto* member) {
        if constexpr (std::is_same_v<decltype(member), PatternMix*>) {
          return double(*member == PatternMix::kLocationOnly);
        } else {
          return double(*member);
        }
      },
      key.field(const_cast<MinerConfig&>(config)));
}

/// Integral values print without exponent or fraction.
std::string Format(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e18) {
    return StrFormat("%.0f", v);
  }
  return StrFormat("%g", v);
}

/// The range check every entry path shares. `label` names the key as the
/// caller's user spelled it; `shown` is the value as they wrote it.
Status Check(const ConfigKey& key, std::string_view label, double v,
             const std::string& shown) {
  const ConfigRange& r = key.range;
  const bool valid =
      ConfigTypeName(key) == "bool" ||
      (r.ends_only ? v == r.min || v == r.max
                   : (r.min_open ? v > r.min : v >= r.min) && v <= r.max);
  if (valid) return Status::OK();
  return Status::InvalidArgument(std::string(label) + " must be " +
                                 DescribeConfigRange(key) + ", got " + shown);
}

/// The one checked setter: range check, then store. Integer stores are
/// exact: the value is an int64 inside the key's range.
Status Assign(const ConfigKey& key, std::string_view label,
              const Value& value, const std::string& shown,
              MinerConfig* config) {
  const double number = std::visit([](auto v) { return double(v); }, value);
  SISD_RETURN_NOT_OK(Check(key, label, number, shown));
  std::visit(
      [&value](auto* member) {
        using T = std::remove_pointer_t<decltype(member)>;
        if constexpr (std::is_same_v<T, PatternMix>) {
          *member = std::get<bool>(value) ? PatternMix::kLocationOnly
                                          : PatternMix::kLocationAndSpread;
        } else {
          std::visit([member](auto v) { *member = static_cast<T>(v); },
                     value);
        }
      },
      key.field(*config));
  return Status::OK();
}

}  // namespace

std::span<const ConfigKey> ConfigKeys() { return kKeys; }

std::string ConfigFlag(const ConfigKey& key) {
  std::string flag = "--" + std::string(key.name);
  for (char& c : flag) {
    if (c == '_') c = '-';
  }
  return flag;
}

std::string_view ConfigTypeName(const ConfigKey& key) {
  static MinerConfig probe;  // only forms a pointer, never written
  static constexpr std::string_view kNames[] = {"integer", "integer",
                                                "number", "bool", "bool"};
  return kNames[key.field(probe).index()];
}

std::string DescribeConfigRange(const ConfigKey& key) {
  const ConfigRange& r = key.range;
  if (ConfigTypeName(key) == "bool") return "true or false";
  if (r.ends_only) return Format(r.min) + " or " + Format(r.max);
  if (r.max == kFiniteMax) return "finite and >= " + Format(r.min);
  if (r.max == kInf || r.max == kInt64Max) return ">= " + Format(r.min);
  return std::string("in ") + (r.min_open ? "(" : "[") + Format(r.min) +
         ", " + Format(r.max) + "]";
}

std::string DescribeConfigDefault(const ConfigKey& key) {
  const double v = Read(key, MinerConfig());
  if (ConfigTypeName(key) == "bool") return v != 0.0 ? "true" : "false";
  return Format(v);
}

Status SetConfigFromJson(std::string_view name,
                         const serialize::JsonValue& value,
                         MinerConfig* config) {
  for (const ConfigKey& key : kKeys) {
    if (key.name != name || (key.surfaces & kProtocolConfig) == 0) continue;
    const std::string_view type = ConfigTypeName(key);
    Value parsed;
    if (type == "integer") {
      SISD_ASSIGN_OR_RETURN(integer, value.GetInt());
      parsed = integer;
    } else if (type == "number") {
      SISD_ASSIGN_OR_RETURN(number, value.GetDouble());
      parsed = number;
    } else {
      SISD_ASSIGN_OR_RETURN(flag, value.GetBool());
      parsed = flag;
    }
    return Assign(key, key.name, parsed, value.Write(), config);
  }
  return Status::InvalidArgument("unknown config key '" + std::string(name) +
                                 "'");
}

Status SetConfigFromText(const ConfigKey& key, std::string_view text,
                         MinerConfig* config) {
  const std::string_view type = ConfigTypeName(key);
  const std::string flag = ConfigFlag(key);
  Value parsed = true;  // bool keys are switches
  if (type != "bool") {
    const std::optional<long long> integer = ParseInt(text);
    const std::optional<double> number = ParseDouble(text);
    if (type == "integer" ? !integer.has_value() : !number.has_value()) {
      return Status::InvalidArgument(
          flag + " expects " + (type == "integer" ? "an integer" : "a number") +
          ", got '" + std::string(text) + "'");
    }
    parsed = type == "integer" ? Value(int64_t(*integer)) : Value(*number);
  }
  return Assign(key, flag, parsed, std::string(text), config);
}

Status ValidateMinerConfig(const MinerConfig& config) {
  for (const ConfigKey& key : kKeys) {
    const double v = Read(key, config);
    SISD_RETURN_NOT_OK(Check(key, key.name, v, Format(v)));
  }
  if (config.dl.gamma == 0.0 && config.dl.eta == 0.0) {
    return Status::InvalidArgument(
        "gamma and eta cannot both be 0 (zero description length)");
  }
  return Status::OK();
}

}  // namespace sisd::core
