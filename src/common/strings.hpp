/// \file strings.hpp
/// \brief Small string utilities used across the library (split, trim,
/// printf-style formatting into std::string, number parsing).

#ifndef SISD_COMMON_STRINGS_HPP_
#define SISD_COMMON_STRINGS_HPP_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sisd {

/// \brief Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> SplitString(std::string_view text, char sep);

/// \brief Removes leading/trailing ASCII whitespace.
std::string_view TrimWhitespace(std::string_view text);

/// \brief Joins `parts` with `sep` between consecutive elements.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep);

/// \brief printf-style formatting that returns a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// \brief Parses a double with the `strtod` grammar (surrounding whitespace
/// trimmed). Empty input, trailing junk, overflow and underflow to zero ->
/// nullopt; a subnormal result is accepted.
std::optional<double> ParseDouble(std::string_view text);

/// \brief Parses a non-negative integer; rejects trailing junk.
std::optional<long long> ParseInt(std::string_view text);

/// \brief True iff `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// \brief Lowercases ASCII characters.
std::string ToLowerAscii(std::string_view text);

}  // namespace sisd

#endif  // SISD_COMMON_STRINGS_HPP_
