#include "serialize/json.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/strings.hpp"

namespace sisd::serialize {

namespace {

/// Nesting guard: snapshots are shallow; anything deeper is hostile input.
constexpr int kMaxDepth = 256;

const char* TypeName(JsonValue::Type type) {
  switch (type) {
    case JsonValue::Type::kNull:
      return "null";
    case JsonValue::Type::kBool:
      return "bool";
    case JsonValue::Type::kInt:
      return "int";
    case JsonValue::Type::kDouble:
      return "double";
    case JsonValue::Type::kString:
      return "string";
    case JsonValue::Type::kArray:
      return "array";
    case JsonValue::Type::kObject:
      return "object";
    case JsonValue::Type::kVerbatim:
      return "verbatim";
  }
  return "?";
}

Status WrongType(const char* wanted, JsonValue::Type got) {
  return Status::InvalidArgument(StrFormat("expected JSON %s, found %s",
                                           wanted, TypeName(got)));
}

void EscapeStringTo(std::string_view s, std::string* out) {
  out->push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(char(c));
        }
    }
  }
  out->push_back('"');
}

/// Recursive-descent parser over a char range.
class Parser {
 public:
  Parser(const char* begin, const char* end) : p_(begin), end_(end) {}

  Result<JsonValue> ParseDocument() {
    SkipWhitespace();
    JsonValue value;
    SISD_RETURN_NOT_OK(ParseValue(&value, 0));
    SkipWhitespace();
    if (p_ != end_) {
      return Status::InvalidArgument(
          StrFormat("trailing content at offset %zu", Offset()));
    }
    return value;
  }

 private:
  size_t Offset() const { return size_t(p_ - start_anchor_); }

  void SkipWhitespace() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' ||
                          *p_ == '\r')) {
      ++p_;
    }
  }

  bool Consume(char c) {
    if (p_ != end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }

  Status Expect(char c) {
    if (!Consume(c)) {
      return Status::InvalidArgument(
          StrFormat("expected '%c' at offset %zu", c, Offset()));
    }
    return Status::OK();
  }

  bool ConsumeLiteral(const char* literal) {
    const size_t len = std::strlen(literal);
    if (size_t(end_ - p_) >= len && std::memcmp(p_, literal, len) == 0) {
      p_ += len;
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) {
      return Status::InvalidArgument("JSON nesting too deep");
    }
    SkipWhitespace();
    if (p_ == end_) {
      return Status::InvalidArgument("unexpected end of JSON input");
    }
    switch (*p_) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"': {
        std::string s;
        SISD_RETURN_NOT_OK(ParseString(&s));
        *out = JsonValue::Str(std::move(s));
        return Status::OK();
      }
      case 't':
        if (ConsumeLiteral("true")) {
          *out = JsonValue::Bool(true);
          return Status::OK();
        }
        break;
      case 'f':
        if (ConsumeLiteral("false")) {
          *out = JsonValue::Bool(false);
          return Status::OK();
        }
        break;
      case 'n':
        if (ConsumeLiteral("null")) {
          *out = JsonValue::Null();
          return Status::OK();
        }
        break;
      default:
        return ParseNumber(out);
    }
    return Status::InvalidArgument(
        StrFormat("malformed JSON value at offset %zu", Offset()));
  }

  Status ParseObject(JsonValue* out, int depth) {
    SISD_RETURN_NOT_OK(Expect('{'));
    *out = JsonValue::Object();
    SkipWhitespace();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipWhitespace();
      std::string key;
      SISD_RETURN_NOT_OK(ParseString(&key));
      SkipWhitespace();
      SISD_RETURN_NOT_OK(Expect(':'));
      JsonValue value;
      SISD_RETURN_NOT_OK(ParseValue(&value, depth + 1));
      out->Set(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume('}')) return Status::OK();
      SISD_RETURN_NOT_OK(Expect(','));
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    SISD_RETURN_NOT_OK(Expect('['));
    *out = JsonValue::Array();
    SkipWhitespace();
    if (Consume(']')) return Status::OK();
    while (true) {
      JsonValue value;
      SISD_RETURN_NOT_OK(ParseValue(&value, depth + 1));
      out->Append(std::move(value));
      SkipWhitespace();
      if (Consume(']')) return Status::OK();
      SISD_RETURN_NOT_OK(Expect(','));
    }
  }

  Status ParseString(std::string* out) {
    SISD_RETURN_NOT_OK(Expect('"'));
    out->clear();
    while (p_ != end_) {
      const unsigned char c = static_cast<unsigned char>(*p_);
      if (c == '"') {
        ++p_;
        return Status::OK();
      }
      if (c < 0x20) {
        return Status::InvalidArgument(
            StrFormat("raw control character in string at offset %zu",
                      Offset()));
      }
      if (c != '\\') {
        out->push_back(char(c));
        ++p_;
        continue;
      }
      ++p_;  // consume backslash
      if (p_ == end_) break;
      const char esc = *p_++;
      switch (esc) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          unsigned code = 0;
          SISD_RETURN_NOT_OK(ParseHex4(&code));
          if (code >= 0xD800 && code <= 0xDBFF) {
            // Surrogate pair.
            if (!(Consume('\\') && Consume('u'))) {
              return Status::InvalidArgument("unpaired UTF-16 surrogate");
            }
            unsigned low = 0;
            SISD_RETURN_NOT_OK(ParseHex4(&low));
            if (low < 0xDC00 || low > 0xDFFF) {
              return Status::InvalidArgument("invalid low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return Status::InvalidArgument("stray low surrogate");
          }
          AppendUtf8(code, out);
          break;
        }
        default:
          return Status::InvalidArgument(
              StrFormat("bad escape '\\%c' at offset %zu", esc, Offset()));
      }
    }
    return Status::InvalidArgument("unterminated string");
  }

  Status ParseHex4(unsigned* out) {
    if (end_ - p_ < 4) {
      return Status::InvalidArgument("truncated \\u escape");
    }
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = *p_++;
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= unsigned(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= unsigned(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= unsigned(c - 'A' + 10);
      } else {
        return Status::InvalidArgument("bad hex digit in \\u escape");
      }
    }
    *out = value;
    return Status::OK();
  }

  static void AppendUtf8(unsigned code, std::string* out) {
    if (code < 0x80) {
      out->push_back(char(code));
    } else if (code < 0x800) {
      out->push_back(char(0xC0 | (code >> 6)));
      out->push_back(char(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(char(0xE0 | (code >> 12)));
      out->push_back(char(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(char(0x80 | (code & 0x3F)));
    } else {
      out->push_back(char(0xF0 | (code >> 18)));
      out->push_back(char(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(char(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(char(0x80 | (code & 0x3F)));
    }
  }

  Status ParseNumber(JsonValue* out) {
    const char* begin = p_;
    if (p_ != end_ && *p_ == '-') ++p_;
    bool is_double = false;
    while (p_ != end_) {
      const char c = *p_;
      if (c >= '0' && c <= '9') {
        ++p_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = is_double || c == '.' || c == 'e' || c == 'E';
        ++p_;
      } else {
        break;
      }
    }
    if (p_ == begin) {
      return Status::InvalidArgument(
          StrFormat("malformed JSON number at offset %zu", Offset()));
    }
    const std::string token(begin, p_);
    if (!is_double) {
      errno = 0;
      char* parse_end = nullptr;
      const long long v = std::strtoll(token.c_str(), &parse_end, 10);
      if (errno == 0 && parse_end == token.c_str() + token.size()) {
        *out = JsonValue::Int(v);
        return Status::OK();
      }
      // Out of int64 range: fall through to double.
    }
    char* parse_end = nullptr;
    const double v = std::strtod(token.c_str(), &parse_end);
    if (parse_end != token.c_str() + token.size()) {
      return Status::InvalidArgument(
          StrFormat("malformed JSON number '%s'", token.c_str()));
    }
    *out = JsonValue::Double(v);
    return Status::OK();
  }

  const char* p_;
  const char* end_;
  const char* start_anchor_ = p_;
};

}  // namespace

Result<bool> JsonValue::GetBool() const {
  if (type_ != Type::kBool) return WrongType("bool", type_);
  return bool_;
}

Result<int64_t> JsonValue::GetInt() const {
  if (type_ != Type::kInt) return WrongType("int", type_);
  return int_;
}

Result<double> JsonValue::GetDouble() const {
  if (type_ == Type::kDouble) return double_;
  if (type_ == Type::kInt) return double(int_);
  if (type_ == Type::kString) {
    if (string_ == "Infinity") {
      return std::numeric_limits<double>::infinity();
    }
    if (string_ == "-Infinity") {
      return -std::numeric_limits<double>::infinity();
    }
    if (string_ == "NaN") return std::nan("");
  }
  return WrongType("double", type_);
}

Result<std::string> JsonValue::GetString() const {
  if (type_ != Type::kString) return WrongType("string", type_);
  return string_;
}

Result<size_t> JsonValue::GetSize() const {
  if (type_ != Type::kInt) return WrongType("int", type_);
  if (int_ < 0) {
    return Status::InvalidArgument("expected a non-negative integer");
  }
  return size_t(int_);
}

void JsonValue::Append(JsonValue element) {
  SISD_CHECK(type_ == Type::kArray);
  array_.push_back(std::move(element));
}

void JsonValue::Set(std::string key, JsonValue value) {
  SISD_CHECK(type_ == Type::kObject);
  for (auto& member : members_) {
    if (member.first == key) {
      member.second = std::move(value);
      return;
    }
  }
  members_.emplace_back(std::move(key), std::move(value));
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& member : members_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

Result<const JsonValue*> JsonValue::Get(const std::string& key) const {
  if (type_ != Type::kObject) return WrongType("object", type_);
  const JsonValue* found = Find(key);
  if (found == nullptr) {
    return Status::NotFound(StrFormat("missing JSON key '%s'", key.c_str()));
  }
  return found;
}

namespace {

/// Room `FormatDouble` needs: "%.17g" is at most 24 chars
/// ("-d.ddddddddddddddddde-308"), plus ".0"; "\"-Infinity\"" is 11.
constexpr size_t kDoubleChars = 32;

/// Writes the encoding `FormatJsonDouble` returns into `buf` and returns
/// its length. `to_chars` in general format with precision 17 is specified
/// as printf's "%.17g" in the C locale, so every encoding (and every
/// dataset fingerprint hashed from one) is exactly the "%.17g" text, minus
/// printf's format parsing and locale lookups.
size_t FormatDouble(double value, char (&buf)[kDoubleChars]) {
  const auto literal = [&buf](std::string_view text) {
    std::memcpy(buf, text.data(), text.size());
    return text.size();
  };
  if (std::isnan(value)) return literal("\"NaN\"");
  if (std::isinf(value)) {
    return literal(value > 0 ? "\"Infinity\"" : "\"-Infinity\"");
  }
  char* end = std::to_chars(buf, buf + kDoubleChars, value,
                            std::chars_format::general, 17)
                  .ptr;
  // Force a double back on re-parse: without '.', 'e' or 'E' the token
  // would read back as an int (and "-0" would lose its sign bit).
  if (std::none_of(buf, end,
                   [](char c) { return c == '.' || c == 'e' || c == 'E'; })) {
    *end++ = '.';
    *end++ = '0';
  }
  return size_t(end - buf);
}

void AppendJsonDouble(double value, std::string* out) {
  char buf[kDoubleChars];
  out->append(buf, FormatDouble(value, buf));
}

}  // namespace

std::string FormatJsonDouble(double value) {
  std::string out;
  AppendJsonDouble(value, &out);
  return out;
}

JsonChunkWriter::JsonChunkWriter(const ChunkSink& sink) : sink_(sink) {
  buffer_.reserve(kChunkBytes);
}

void JsonChunkWriter::Raw(std::string_view text) {
  while (buffer_.size() + text.size() >= kChunkBytes) {
    const size_t take = kChunkBytes - buffer_.size();
    buffer_.append(text.data(), take);
    text.remove_prefix(take);
    sink_(buffer_);
    buffer_.clear();
  }
  buffer_.append(text.data(), text.size());
}

void JsonChunkWriter::Int(int64_t value) {
  char buf[24];
  Raw(std::string_view(buf, size_t(std::to_chars(buf, buf + sizeof(buf),
                                                 value).ptr - buf)));
}

void JsonChunkWriter::Double(double value) {
  char buf[kDoubleChars];
  Raw(std::string_view(buf, FormatDouble(value, buf)));
}

void JsonChunkWriter::String(std::string_view value) {
  escaped_.clear();
  EscapeStringTo(value, &escaped_);
  Raw(escaped_);
}

void JsonChunkWriter::Flush() {
  if (!buffer_.empty()) sink_(buffer_);
  buffer_.clear();
}

void JsonValue::WriteTo(std::string* out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const auto newline_indent = [&](int level) {
    if (!pretty) return;
    out->push_back('\n');
    out->append(size_t(indent) * size_t(level), ' ');
  };
  switch (type_) {
    case Type::kNull:
      out->append("null");
      break;
    case Type::kBool:
      out->append(bool_ ? "true" : "false");
      break;
    case Type::kInt: {
      char buf[24];
      out->append(buf, std::to_chars(buf, buf + sizeof(buf), int_).ptr);
      break;
    }
    case Type::kDouble:
      AppendJsonDouble(double_, out);
      break;
    case Type::kString:
      EscapeStringTo(string_, out);
      break;
    case Type::kVerbatim:
      out->append(string_);
      break;
    case Type::kArray: {
      if (array_.empty()) {
        out->append("[]");
        break;
      }
      out->push_back('[');
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out->push_back(',');
        newline_indent(depth + 1);
        array_[i].WriteTo(out, indent, depth + 1);
      }
      newline_indent(depth);
      out->push_back(']');
      break;
    }
    case Type::kObject: {
      if (members_.empty()) {
        out->append("{}");
        break;
      }
      out->push_back('{');
      for (size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out->push_back(',');
        newline_indent(depth + 1);
        EscapeStringTo(members_[i].first, out);
        out->push_back(':');
        if (pretty) out->push_back(' ');
        members_[i].second.WriteTo(out, indent, depth + 1);
      }
      newline_indent(depth);
      out->push_back('}');
      break;
    }
  }
}

std::string JsonValue::Write(int indent) const {
  std::string out;
  WriteTo(&out, indent, 0);
  return out;
}

Result<JsonValue> JsonValue::Parse(const std::string& text) {
  Parser parser(text.data(), text.data() + text.size());
  return parser.ParseDocument();
}

Status WriteTextFile(const std::string& path, const std::string& text,
                     FileWriteFn write_fn) {
  if (write_fn == nullptr) write_fn = ::write;
  // A name no concurrent writer (thread or process) of `path` can share.
  static std::atomic<uint64_t> serial{0};
  const std::string temp =
      StrFormat("%s.tmp.%ld.%llu", path.c_str(), long(::getpid()),
                static_cast<unsigned long long>(serial.fetch_add(1)));
  const auto fail = [&temp](const std::string& what, int error) {
    ::unlink(temp.c_str());
    return Status::IOError(what + ": " + std::strerror(error));
  };
  const int fd =
      ::open(temp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
  if (fd < 0) {
    return Status::IOError("cannot open for writing: " + path + ": " +
                           std::strerror(errno));
  }
  const char* data = text.data();
  size_t left = text.size();
  while (left > 0) {
    const ssize_t wrote = write_fn(fd, data, left);
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote <= 0) {
      // A zero-byte write makes no progress: report it as a full disk.
      const int error = wrote < 0 ? errno : ENOSPC;
      ::close(fd);
      return fail("write failed: " + path, error);
    }
    data += wrote;
    left -= size_t(wrote);
  }
  if (::fsync(fd) != 0) {
    const int error = errno;
    ::close(fd);
    return fail("fsync failed: " + path, error);
  }
  if (::close(fd) != 0) {
    const int error = errno;
    return fail("close failed: " + path, error);
  }
  if (::rename(temp.c_str(), path.c_str()) != 0) {
    const int error = errno;
    return fail("cannot replace " + path, error);
  }
  // Make the rename itself durable. Best effort: the new content is in
  // place either way, and some file systems refuse to sync a directory.
  const size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  return Status::OK();
}

Result<std::string> ReadTextFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open for reading: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return Status::IOError("read failed: " + path);
  }
  return buffer.str();
}

}  // namespace sisd::serialize
