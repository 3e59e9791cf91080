/// Seeded CSV fuzzing: mutated CSV text (byte flips, inserted quotes,
/// separators, newlines and '\r', truncation) must parse to a table or fail
/// with a clean error — never crash. Three readers are held to one answer:
///  (1) `ReadCsvText` and the chunked `ReadCsvStream` agree on every input,
///      including inputs longer than `kCsvChunkBytes` whose lines straddle
///      chunk boundaries;
///  (2) `ReadCsvRawText` agrees with a test-local character-at-a-time
///      reference of the record grammar (quotes toggle anywhere, a doubled
///      quote inside quotes is literal, one '\r' stripped before '\n', the
///      unterminated last line kept verbatim, blank data lines skipped).
/// A failure names the seed and the draw to replay it.

#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/strings.hpp"
#include "data/csv.hpp"

namespace sisd::data {
namespace {

/// Reference record splitter: one character at a time.
Result<std::vector<std::string>> ReferenceSplit(const std::string& line,
                                                char sep) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == sep) {
      fields.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  if (in_quotes) return Status::IOError("unterminated quoted field");
  fields.push_back(current);
  return fields;
}

/// Reference raw reader over `ReferenceSplit`, one character at a time.
Result<RawCsv> ReferenceRaw(const std::string& text, char sep) {
  RawCsv raw;
  bool have_header = false;
  size_t line_number = 0;
  const auto consume = [&](const std::string& line) -> Status {
    ++line_number;
    if (!have_header) {
      SISD_ASSIGN_OR_RETURN(header, ReferenceSplit(line, sep));
      raw.header = std::move(header);
      have_header = true;
      return Status::OK();
    }
    if (TrimWhitespace(line).empty()) return Status::OK();
    SISD_ASSIGN_OR_RETURN(record, ReferenceSplit(line, sep));
    if (record.size() != raw.header.size()) {
      return Status::IOError(StrFormat("line %zu has %zu fields, expected %zu",
                                       line_number, record.size(),
                                       raw.header.size()));
    }
    raw.rows.push_back(std::move(record));
    return Status::OK();
  };
  std::string current;
  for (char c : text) {
    if (c == '\n') {
      if (!current.empty() && current.back() == '\r') current.pop_back();
      SISD_RETURN_NOT_OK(consume(current));
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) SISD_RETURN_NOT_OK(consume(current));
  if (!have_header) return Status::IOError("empty CSV input");
  return raw;
}

/// A valid CSV of about `rows` rows: numeric, binary, categorical and
/// quoted columns, LF or CRLF line ends, occasionally a missing value.
std::string GenerateCsv(std::mt19937_64* rng, size_t rows) {
  const bool crlf = (*rng)() % 2 == 0;
  const char* eol = crlf ? "\r\n" : "\n";
  std::string text = std::string("x,flag,color,note,remark,y") + eol;
  const char* colors[] = {"red", "green", "blue", "NA"};
  for (size_t i = 0; i < rows; ++i) {
    const double x = double(int64_t((*rng)() % 20001) - 10000) / 997.0;
    text += StrFormat(
        "%.17g,%d,%s,\"n, \"\"%zu\"\"\",\"a longer remark, %zu, with "
        "\"\"quotes\"\"\",%.6g%s",
        x, int((*rng)() % 2), colors[(*rng)() % 4], size_t((*rng)() % 50),
        size_t((*rng)() % 7), x * 0.5 + 1.0, eol);
  }
  return text;
}

/// Applies 1–8 seeded mutations.
std::string Mutate(std::string text, std::mt19937_64* rng) {
  static const char kInserts[] = {'"', ',', '\n', '\r', ' ', '"'};
  const int mutations = 1 + int((*rng)() % 8);
  for (int m = 0; m < mutations && !text.empty(); ++m) {
    const size_t pos = size_t((*rng)() % text.size());
    switch ((*rng)() % 4) {
      case 0:  // byte flip
        text[pos] = char(text[pos] ^ char(1u << ((*rng)() % 8)));
        break;
      case 1:  // inserted quote, separator, newline, '\r' or blank
        text.insert(text.begin() + long(pos),
                    kInserts[(*rng)() % sizeof(kInserts)]);
        break;
      case 2:  // random byte
        text[pos] = char((*rng)() % 256);
        break;
      case 3:  // truncation
        text.resize(pos);
        break;
    }
  }
  return text;
}

std::string Describe(const Result<DataTable>& table) {
  if (!table.ok()) return "error: " + table.status().ToString();
  const DataTable& t = table.Value();
  std::string out;
  for (size_t j = 0; j < t.num_columns(); ++j) {
    out += t.column(j).name() + ":" +
           AttributeKindToString(t.column(j).kind()) + " ";
  }
  return out + "\n" + WriteCsvText(t);
}

/// Checks one input against every reader (fatal failure on a mismatch).
void CheckInput(const std::string& text, uint64_t seed, int draw) {
  const Result<DataTable> from_text = ReadCsvText(text);
  std::istringstream in(text);
  const Result<DataTable> from_stream = ReadCsvStream(in);
  ASSERT_EQ(Describe(from_text), Describe(from_stream))
      << "text/stream divergence at seed " << seed << " draw " << draw;
  if (from_text.ok()) {
    ASSERT_GT(from_text.Value().num_rows(), 0u)
        << "seed " << seed << " draw " << draw;
  }
  const Result<RawCsv> raw = ReadCsvRawText(text);
  const Result<RawCsv> reference = ReferenceRaw(text, ',');
  ASSERT_EQ(raw.ok(), reference.ok())
      << "raw/reference divergence at seed " << seed << " draw " << draw;
  if (raw.ok()) {
    ASSERT_EQ(raw.Value().header, reference.Value().header)
        << "seed " << seed << " draw " << draw;
    ASSERT_EQ(raw.Value().rows, reference.Value().rows)
        << "seed " << seed << " draw " << draw;
  } else {
    ASSERT_EQ(raw.status().ToString(), reference.status().ToString())
        << "seed " << seed << " draw " << draw;
  }
}

class CsvFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsvFuzzTest, SmallMutatedInputsParseOrFailCleanly) {
  const uint64_t seed = GetParam();
  std::mt19937_64 rng(seed);
  for (int draw = 0; draw < 1500; ++draw) {
    const std::string base = GenerateCsv(&rng, 1 + rng() % 12);
    CheckInput(draw % 10 == 0 ? base : Mutate(base, &rng), seed, draw);
    if (HasFatalFailure()) return;
  }
}

TEST_P(CsvFuzzTest, MultiChunkMutatedInputsAgreeAcrossReaders) {
  const uint64_t seed = GetParam();
  std::mt19937_64 rng(seed);
  const std::string base = GenerateCsv(&rng, 3 * kCsvChunkBytes / 50);
  ASSERT_GT(base.size(), 2 * kCsvChunkBytes) << "must span several chunks";
  for (int draw = 0; draw < 12; ++draw) {
    CheckInput(draw == 0 ? base : Mutate(base, &rng), seed, draw);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace sisd::data
