/// Path edits on a parsed snapshot, for tests that tamper with snapshots
/// field by field. A path is a list of steps from the root: an object
/// member's key, or an array element's decimal index.

#ifndef SISD_TESTS_CORE_SNAPSHOT_EDIT_HPP_
#define SISD_TESTS_CORE_SNAPSHOT_EDIT_HPP_

#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "serialize/json.hpp"

namespace sisd::testing {

using JsonPath = std::vector<std::string>;

/// Maps the value at a path to its replacement; nullopt deletes it.
using JsonEdit = std::function<std::optional<serialize::JsonValue>(
    const serialize::JsonValue&)>;

/// `value` with `edit` applied at `path[depth..]`. A step that names no
/// member or element leaves `value` unchanged.
inline serialize::JsonValue EditAt(const serialize::JsonValue& value,
                                   const JsonPath& path, const JsonEdit& edit,
                                   size_t depth = 0) {
  if (depth == path.size()) return edit(value).value_or(value);
  const std::string& step = path[depth];
  const bool last = depth + 1 == path.size();
  if (value.is_object()) {
    serialize::JsonValue out = serialize::JsonValue::Object();
    for (const auto& [key, member] : value.members()) {
      if (key != step) {
        out.Set(key, member);
      } else if (!last) {
        out.Set(key, EditAt(member, path, edit, depth + 1));
      } else if (std::optional<serialize::JsonValue> next = edit(member)) {
        out.Set(key, std::move(*next));
      }
    }
    return out;
  }
  if (value.is_array()) {
    const size_t index = std::strtoull(step.c_str(), nullptr, 10);
    serialize::JsonValue out = serialize::JsonValue::Array();
    for (size_t i = 0; i < value.size(); ++i) {
      const serialize::JsonValue& item = value.items()[i];
      if (i != index) {
        out.Append(item);
      } else if (!last) {
        out.Append(EditAt(item, path, edit, depth + 1));
      } else if (std::optional<serialize::JsonValue> next = edit(item)) {
        out.Append(std::move(*next));
      }
    }
    return out;
  }
  return value;
}

/// Snapshot text `text` with the value at `path` replaced by `replacement`.
inline std::string WithValueAt(const std::string& text, const JsonPath& path,
                               const serialize::JsonValue& replacement) {
  return EditAt(serialize::JsonValue::Parse(text).Value(), path,
                [&replacement](const serialize::JsonValue&) {
                  return std::optional<serialize::JsonValue>(replacement);
                })
      .Write();
}

/// Parses a JSON literal (test data).
inline serialize::JsonValue Json(const std::string& literal) {
  return serialize::JsonValue::Parse(literal).Value();
}

}  // namespace sisd::testing

#endif  // SISD_TESTS_CORE_SNAPSHOT_EDIT_HPP_
