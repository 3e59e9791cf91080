/// \file json.hpp
/// \brief Minimal dependency-free JSON document model, writer and parser —
/// the wire format of the session snapshot subsystem.
///
/// Design points that matter for snapshots:
///  - Objects preserve insertion order, so the writer is deterministic and
///    snapshot bytes are reproducible.
///  - Integers (int64) and doubles are distinct types. Doubles are written
///    with 17 significant digits (and a forced ".0" suffix when they would
///    otherwise read back as integers), which round-trips every finite IEEE
///    binary64 value bit-exactly — the property the "restore is
///    bit-identical" guarantee rests on. Non-finite doubles are written as
///    the JSON strings "Infinity" / "-Infinity" / "NaN" (the document stays
///    standard JSON); `GetDouble` accepts those strings back.
///  - No exceptions: the parser and all typed accessors return
///    Status/Result like the rest of the library.
///  - Encodings too large for a tree (a dataset's cells) are streamed by
///    `JsonChunkWriter` with the same token formats, and re-embedded in a
///    tree as `JsonValue::Verbatim` text.

#ifndef SISD_SERIALIZE_JSON_HPP_
#define SISD_SERIALIZE_JSON_HPP_

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace sisd::serialize {

/// \brief One JSON value: null, bool, integer, double, string, array or
/// (insertion-ordered) object — or, for writing only, verbatim JSON text.
class JsonValue {
 public:
  enum class Type {
    kNull,
    kBool,
    kInt,
    kDouble,
    kString,
    kArray,
    kObject,
    kVerbatim
  };

  /// Null by default.
  JsonValue() = default;

  /// \name Factories, one per type.
  /// @{
  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool v) {
    JsonValue out;
    out.type_ = Type::kBool;
    out.bool_ = v;
    return out;
  }
  static JsonValue Int(int64_t v) {
    JsonValue out;
    out.type_ = Type::kInt;
    out.int_ = v;
    return out;
  }
  static JsonValue Double(double v) {
    JsonValue out;
    out.type_ = Type::kDouble;
    out.double_ = v;
    return out;
  }
  static JsonValue Str(std::string v) {
    JsonValue out;
    out.type_ = Type::kString;
    out.string_ = std::move(v);
    return out;
  }
  static JsonValue Array() {
    JsonValue out;
    out.type_ = Type::kArray;
    return out;
  }
  static JsonValue Object() {
    JsonValue out;
    out.type_ = Type::kObject;
    return out;
  }
  /// An already-encoded compact JSON value that `Write` emits as is, at
  /// any indent (the parser never produces one). Lets a tree embed text a
  /// `JsonChunkWriter` streamed without rebuilding it as nodes.
  static JsonValue Verbatim(std::string json_text) {
    JsonValue out;
    out.type_ = Type::kVerbatim;
    out.string_ = std::move(json_text);
    return out;
  }
  /// @}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }

  /// \name Typed accessors (Result-returning; wrong type = InvalidArgument).
  /// @{
  Result<bool> GetBool() const;
  Result<int64_t> GetInt() const;
  /// Accepts kDouble, kInt (exact conversion), and the non-finite string
  /// encodings "Infinity" / "-Infinity" / "NaN".
  Result<double> GetDouble() const;
  Result<std::string> GetString() const;
  /// `GetInt` restricted to non-negative values, converted to size_t.
  Result<size_t> GetSize() const;
  /// @}

  /// \name Array interface.
  /// @{
  /// Appends an element (value must be an array).
  void Append(JsonValue element);
  /// Number of elements (arrays) or members (objects); 0 otherwise.
  size_t size() const {
    return type_ == Type::kArray ? array_.size() : members_.size();
  }
  /// The elements (must be an array).
  const std::vector<JsonValue>& items() const {
    SISD_DCHECK(type_ == Type::kArray);
    return array_;
  }
  /// @}

  /// \name Object interface (insertion-ordered; duplicate keys overwrite).
  /// @{
  /// Sets a member (value must be an object).
  void Set(std::string key, JsonValue value);
  /// The member's value, or nullptr when absent (or not an object).
  const JsonValue* Find(const std::string& key) const;
  /// The member's value; NotFound when absent.
  Result<const JsonValue*> Get(const std::string& key) const;
  /// All members in insertion order (must be an object).
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    SISD_DCHECK(type_ == Type::kObject);
    return members_;
  }
  /// @}

  /// Serializes the value. `indent < 0` = compact single line; otherwise
  /// pretty-printed with `indent` spaces per nesting level. Deterministic:
  /// same value, same bytes.
  std::string Write(int indent = -1) const;

  /// Parses a complete JSON document (trailing non-whitespace = error).
  static Result<JsonValue> Parse(const std::string& text);

 private:
  void WriteTo(std::string* out, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// \brief Formats one double exactly as the writer does (exposed for tests:
/// the bit-exact round-trip contract lives here).
std::string FormatJsonDouble(double value);

/// \brief Receives the consecutive chunks of a streamed encoding.
using ChunkSink = std::function<void(std::string_view chunk)>;

/// \brief Streaming counterpart of `JsonValue::Write` (compact form) for
/// documents too large to build as a tree: the caller emits punctuation
/// and keys with `Raw` and values with the typed methods, which format
/// exactly as the tree writer does, and the writer hands the text to its
/// sink in chunks of exactly `kChunkBytes` (the last one, from `Flush`,
/// may be shorter). Memory stays at one chunk whatever the document size.
class JsonChunkWriter {
 public:
  static constexpr size_t kChunkBytes = size_t{64} << 10;

  explicit JsonChunkWriter(const ChunkSink& sink);

  JsonChunkWriter(const JsonChunkWriter&) = delete;
  JsonChunkWriter& operator=(const JsonChunkWriter&) = delete;

  /// Text that is already JSON (punctuation, quoted keys), copied as is.
  void Raw(std::string_view text);
  void Int(int64_t value);
  void Double(double value);
  /// A quoted, escaped string.
  void String(std::string_view value);
  /// Hands the buffered tail to the sink; call once, after the last token.
  void Flush();

 private:
  const ChunkSink& sink_;
  std::string buffer_;   ///< pending bytes, never more than kChunkBytes
  std::string escaped_;  ///< scratch for String
};

/// \brief Reads member `key` of object `json` into `*out` with the getter
/// matching `T`: double, bool, size_t, std::string or an integer type.
/// An integer narrower than int64 is range-checked: a value `T` cannot
/// hold is rejected, never narrowed. A uint64_t round-trips through the
/// int64 bit pattern.
template <typename T>
Status ReadField(const JsonValue& json, const char* key, T* out) {
  SISD_ASSIGN_OR_RETURN(field, json.Get(key));
  if constexpr (std::is_same_v<T, double>) {
    SISD_ASSIGN_OR_RETURN(number, field->GetDouble());
    *out = number;
  } else if constexpr (std::is_same_v<T, bool>) {
    SISD_ASSIGN_OR_RETURN(flag, field->GetBool());
    *out = flag;
  } else if constexpr (std::is_same_v<T, size_t>) {
    SISD_ASSIGN_OR_RETURN(size, field->GetSize());
    *out = size;
  } else if constexpr (std::is_same_v<T, std::string>) {
    SISD_ASSIGN_OR_RETURN(text, field->GetString());
    *out = std::move(text);
  } else {
    SISD_ASSIGN_OR_RETURN(integer, field->GetInt());
    if (sizeof(T) < sizeof(int64_t) &&
        (integer < int64_t(std::numeric_limits<T>::min()) ||
         integer > int64_t(std::numeric_limits<T>::max()))) {
      return Status::InvalidArgument("field '" + std::string(key) + "' = " +
                                     std::to_string(integer) +
                                     " is out of range");
    }
    *out = static_cast<T>(integer);
  }
  return Status::OK();
}

/// \brief The `write(2)`-shaped call `WriteTextFile` writes through.
using FileWriteFn = ssize_t (*)(int fd, const void* data, size_t size);

/// \brief Replaces `path` with `text` crash-safely: the bytes go to a
/// fresh temporary file in the same directory, which is fsync'ed and then
/// renamed over `path` (and the directory fsync'ed), so `path` holds
/// either its previous content or all of `text`, never a torn mix.
/// IOError on failure, with the temporary file removed. `write_fn` is a
/// seam for tests that simulate short writes or a full disk.
Status WriteTextFile(const std::string& path, const std::string& text,
                     FileWriteFn write_fn = nullptr);

/// \brief Reads a whole file into a string; IOError when unreadable.
Result<std::string> ReadTextFile(const std::string& path);

}  // namespace sisd::serialize

#endif  // SISD_SERIALIZE_JSON_HPP_
