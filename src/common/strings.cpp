#include "common/strings.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace sisd {

std::vector<std::string> SplitString(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      break;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view TrimWhitespace(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

namespace {

/// The general parse: `strtod` on a NUL-terminated copy, whole input
/// consumed. `ERANGE` rejects overflow and underflow to zero, but not a
/// finite nonzero (subnormal) result, which glibc also flags.
std::optional<double> ParseDoubleStrtod(std::string_view trimmed) {
  std::string buf(trimmed);
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return std::nullopt;
  if (errno == ERANGE && (!std::isfinite(value) || value == 0.0)) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

std::optional<double> ParseDouble(std::string_view text) {
  std::string_view trimmed = TrimWhitespace(text);
  if (trimmed.empty()) return std::nullopt;
  // Fast path: `from_chars` reads the strtod decimal grammar minus a
  // leading '+' and hex, correctly rounded, and reports underflow as a
  // range error. It decides only when it consumes the whole input into a
  // normal number or an exact zero; everything else (a '+', hex, inf/nan,
  // subnormals, range errors, junk) takes the strtod path.
  double value = 0.0;
  const char* last = trimmed.data() + trimmed.size();
  const auto [ptr, ec] = std::from_chars(trimmed.data(), last, value);
  if (ec == std::errc() && ptr == last &&
      (std::isnormal(value) || value == 0.0)) {
    return value;
  }
  return ParseDoubleStrtod(trimmed);
}

std::optional<long long> ParseInt(std::string_view text) {
  std::string_view trimmed = TrimWhitespace(text);
  if (trimmed.empty()) return std::nullopt;
  std::string buf(trimmed);
  errno = 0;
  char* end = nullptr;
  long long value = std::strtoll(buf.c_str(), &end, 10);
  if (errno == ERANGE) return std::nullopt;
  if (end != buf.c_str() + buf.size()) return std::nullopt;
  return value;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string ToLowerAscii(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

}  // namespace sisd
