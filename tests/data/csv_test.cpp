#include "data/csv.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "random/rng.hpp"

namespace sisd::data {
namespace {

using random::Rng;

TEST(ReadCsvTest, InfersNumericAndCategorical) {
  const std::string csv =
      "age,city,score\n"
      "30,ghent,1.5\n"
      "41,aalto,2.5\n"
      "28,ghent,3.0\n";
  Result<DataTable> table = ReadCsvText(csv);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table.Value().num_rows(), 3u);
  EXPECT_EQ(table.Value().num_columns(), 3u);
  EXPECT_EQ(table.Value().column(0).kind(), AttributeKind::kNumeric);
  EXPECT_EQ(table.Value().column(1).kind(), AttributeKind::kCategorical);
  EXPECT_EQ(table.Value().column(2).kind(), AttributeKind::kNumeric);
  EXPECT_DOUBLE_EQ(table.Value().column(0).NumericValue(1), 41.0);
  EXPECT_EQ(table.Value().column(1).ValueToString(1), "aalto");
}

TEST(ReadCsvTest, ZeroOneColumnsBecomeBinary) {
  const std::string csv = "flag,x\n0,1.5\n1,2.5\n0,3.5\n";
  Result<DataTable> table = ReadCsvText(csv);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.Value().column(0).kind(), AttributeKind::kBinary);
  EXPECT_EQ(table.Value().column(0).Code(1), 1);
}

TEST(ReadCsvTest, KindOverridesWin) {
  CsvOptions options;
  options.kind_overrides["level"] = AttributeKind::kOrdinal;
  options.kind_overrides["flag"] = AttributeKind::kNumeric;
  const std::string csv = "level,flag\n0,0\n3,1\n5,0\n";
  Result<DataTable> table = ReadCsvText(csv, options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.Value().column(0).kind(), AttributeKind::kOrdinal);
  EXPECT_EQ(table.Value().column(1).kind(), AttributeKind::kNumeric);
}

TEST(ReadCsvTest, QuotedFieldsAndEscapes) {
  const std::string csv =
      "name,value\n"
      "\"contains, comma\",1\n"
      "\"has \"\"quotes\"\"\",2\n";
  Result<DataTable> table = ReadCsvText(csv);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.Value().column(0).ValueToString(0), "contains, comma");
  EXPECT_EQ(table.Value().column(0).ValueToString(1), "has \"quotes\"");
}

TEST(ReadCsvTest, DropsRowsWithMissingValues) {
  const std::string csv = "a,b\n1,2\nNA,3\n4,\n5,6\n";
  Result<DataTable> table = ReadCsvText(csv);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.Value().num_rows(), 2u);
  EXPECT_DOUBLE_EQ(table.Value().column(0).NumericValue(1), 5.0);
}

TEST(ReadCsvTest, NoHeaderGeneratesNames) {
  CsvOptions options;
  options.has_header = false;
  Result<DataTable> table = ReadCsvText("1,2\n3,4\n", options);
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(table.Value().HasColumn("col0"));
  EXPECT_TRUE(table.Value().HasColumn("col1"));
}

TEST(ReadCsvTest, CustomSeparator) {
  CsvOptions options;
  options.separator = ';';
  Result<DataTable> table = ReadCsvText("a;b\n1;2\n", options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.Value().num_columns(), 2u);
}

TEST(ReadCsvTest, ErrorsOnMalformedInput) {
  EXPECT_EQ(ReadCsvText("").status().code(), StatusCode::kIOError);
  EXPECT_EQ(ReadCsvText("a,b\n1\n").status().code(), StatusCode::kIOError);
  EXPECT_EQ(ReadCsvText("a\n\"unterminated\n").status().code(),
            StatusCode::kIOError);
  // Header only, no data rows.
  EXPECT_EQ(ReadCsvText("a,b\n").status().code(), StatusCode::kIOError);
}

TEST(ReadCsvTest, HandlesCrLfLineEndings) {
  Result<DataTable> table = ReadCsvText("a,b\r\n1,2\r\n3,4\r\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.Value().num_rows(), 2u);
  EXPECT_DOUBLE_EQ(table.Value().column(1).NumericValue(1), 4.0);
}

TEST(ReadCsvTest, TrailingBlankLinesAreIgnored) {
  // A trailing newline-only line and a whitespace-only line both vanish;
  // row count and cells are unchanged.
  for (const char* text : {"a,b\n1,2\n3,4\n", "a,b\n1,2\n3,4\n\n",
                           "a,b\n1,2\n3,4\n  \n\n"}) {
    Result<DataTable> table = ReadCsvText(text);
    ASSERT_TRUE(table.ok()) << table.status().ToString() << " for "
                            << ::testing::PrintToString(text);
    EXPECT_EQ(table.Value().num_rows(), 2u);
    EXPECT_DOUBLE_EQ(table.Value().column(0).NumericValue(1), 3.0);
  }
}

TEST(ReadCsvTest, SubnormalCellsStayNumeric) {
  for (const char* cell : {"1e-310", "2.2250738585072011e-308", "-5e-324"}) {
    Result<DataTable> table =
        ReadCsvText(std::string("a,b\n0.5,x\n") + cell + ",y\n");
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    const Column& a = table.Value().column(0);
    EXPECT_EQ(a.kind(), AttributeKind::kNumeric) << cell;
    EXPECT_EQ(a.NumericValue(1), std::strtod(cell, nullptr)) << cell;
  }
  // Overflow and underflow to zero are not numbers: the column is
  // categorical, exactly as for any other non-numeric text.
  for (const char* cell : {"1e309", "1e-400"}) {
    Result<DataTable> table =
        ReadCsvText(std::string("a,b\n0.5,x\n") + cell + ",y\n");
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    EXPECT_EQ(table.Value().column(0).kind(), AttributeKind::kCategorical)
        << cell;
  }
}

TEST(ReadCsvTest, NonFiniteCellsAreNotNumbers) {
  // Text that strtod reads as NaN or +-inf is not a number: its column is
  // categorical, as for an overflowing `1e309`, so no numeric column (and
  // no quantile split) ever sees a non-finite value.
  for (const char* cell :
       {"NAN", "-nan", "nan(0x1)", "inf", "-inf", "INF", "Infinity",
        "-Infinity", "+inf"}) {
    Result<DataTable> table =
        ReadCsvText(std::string("a,b\n0.5,x\n") + cell + ",y\n");
    ASSERT_TRUE(table.ok()) << table.status().ToString() << " for " << cell;
    EXPECT_EQ(table.Value().column(0).kind(), AttributeKind::kCategorical)
        << cell;
  }
  // The exact na_values spellings still drop their row instead.
  Result<DataTable> dropped = ReadCsvText("a,b\n0.5,x\nNaN,y\n");
  ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();
  EXPECT_EQ(dropped.Value().num_rows(), 1u);
  EXPECT_EQ(dropped.Value().column(0).kind(), AttributeKind::kNumeric);
  // Declaring such a column numeric is a clean error, not a NaN column.
  CsvOptions numeric;
  numeric.kind_overrides["a"] = AttributeKind::kNumeric;
  Result<DataTable> declared = ReadCsvText("a,b\n0.5,x\ninf,y\n", numeric);
  ASSERT_FALSE(declared.ok());
  EXPECT_EQ(declared.status().code(), StatusCode::kInvalidArgument);
  // A non-finite target column is categorical, so it cannot be a target.
  Result<DataTable> table = ReadCsvText("a,t\n1,0.5\n2,-Infinity\n");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_FALSE(MakeDataset(table.Value(), {"t"}).ok());
}

TEST(ParseNumericCellTest, FiniteOnly) {
  EXPECT_EQ(ParseNumericCell(" 2.5 "), 2.5);
  EXPECT_EQ(ParseNumericCell("-0"), 0.0);
  EXPECT_FALSE(ParseNumericCell("inf").has_value());
  EXPECT_FALSE(ParseNumericCell("-NaN").has_value());
  EXPECT_FALSE(ParseNumericCell("1e309").has_value());
  EXPECT_FALSE(ParseNumericCell("abc").has_value());
}

TEST(ReadCsvRawTest, RecordGrammarCells) {
  // Quoted separators, doubled quotes, quotes opening mid-field, quoted
  // empty fields, a trailing separator, CRLF line ends and a last line
  // without a newline (kept verbatim: its '\r' is not stripped).
  Result<RawCsv> raw = ReadCsvRawText(
      "h1,h2,h3\r\n"
      "\"a,b\",\"say \"\"hi\"\"\",plain\r\n"
      "ab\"c,d\"e,\"\",\n"
      "\"\"\"\",x\"\"y,\"\"\"\"\"\"\n"
      "\n"
      "1,2,3\r");
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  const std::vector<std::vector<std::string>> want = {
      {"a,b", "say \"hi\"", "plain"},
      {"abc,de", "", ""},
      {"\"", "xy", "\"\""},
      {"1", "2", "3\r"},
  };
  EXPECT_EQ(raw.Value().header, (std::vector<std::string>{"h1", "h2", "h3"}));
  EXPECT_EQ(raw.Value().rows, want);
}

TEST(ReadCsvTest, UnterminatedQuoteErrorText) {
  for (const char* text : {"a\n\"unterminated\n", "a,b\n1,\"2\n",
                           "\"a,b\n1,2\n", "a,b\n1,2\n3,\"4"}) {
    Result<DataTable> table = ReadCsvText(text);
    ASSERT_FALSE(table.ok()) << ::testing::PrintToString(text);
    EXPECT_EQ(table.status().code(), StatusCode::kIOError);
    EXPECT_EQ(table.status().message(), "unterminated quoted field");
    std::istringstream in{std::string(text)};
    EXPECT_EQ(ReadCsvStream(in).status().message(),
              "unterminated quoted field");
  }
  EXPECT_EQ(ReadCsvRawText("a\n\"x\n").status().message(),
            "unterminated quoted field");
  EXPECT_EQ(ReadCsvText("a,b\n1\n").status().message(),
            "line 2 has 1 fields, expected 2");
}

// ---- Streaming reader (ReadCsvStream / chunked ReadCsvFile). ----

TEST(ReadCsvStreamTest, AgreesWithTextParseOnEdgeCases) {
  const char* cases[] = {
      "a,b\r\n1,2\r\n3,4\r\n",                        // CRLF endings
      "name,value\n\"contains, comma\",1\n\"x\",2\n",  // quoted separators
      "a,b\n1,2\n\n",                                  // trailing blank line
      "a,b\n1,2\n3,4",                                 // no final newline
      "a,b\n1,2\nNA,3\n4,5\n",                         // missing-value row
  };
  for (const char* text : cases) {
    Result<DataTable> from_text = ReadCsvText(text);
    std::istringstream in{std::string(text)};
    Result<DataTable> from_stream = ReadCsvStream(in);
    ASSERT_TRUE(from_text.ok()) << from_text.status().ToString();
    ASSERT_TRUE(from_stream.ok()) << from_stream.status().ToString();
    EXPECT_EQ(WriteCsvText(from_stream.Value()),
              WriteCsvText(from_text.Value()))
        << "stream/text divergence for " << ::testing::PrintToString(text);
  }
}

TEST(ReadCsvStreamTest, MultiChunkFileMatchesWholeFileParseByteForByte) {
  // Build a CSV several chunks long whose quoted fields (commas, CRLF rows)
  // are guaranteed to straddle chunk boundaries, then compare the chunked
  // file parse against the whole-string parse.
  std::string text = "id,label,value\r\n";
  const size_t rows = 3 * kCsvChunkBytes / 40;  // ~3 chunks at ~40 B/row
  for (size_t i = 0; i < rows; ++i) {
    text += std::to_string(i);
    text += ",\"label, with comma #" + std::to_string(i % 97) + "\",";
    text += std::to_string(double(i) / 8.0).substr(0, 8);
    text += "\r\n";
  }
  ASSERT_GT(text.size(), 2 * kCsvChunkBytes) << "test must span >1 chunk";

  const std::string path = ::testing::TempDir() + "/sisd_csv_chunked.csv";
  {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good());
    out << text;
  }
  Result<DataTable> from_file = ReadCsvFile(path);
  Result<DataTable> from_text = ReadCsvText(text);
  std::remove(path.c_str());
  ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
  ASSERT_TRUE(from_text.ok()) << from_text.status().ToString();
  ASSERT_EQ(from_file.Value().num_rows(), rows);
  EXPECT_EQ(WriteCsvText(from_file.Value()), WriteCsvText(from_text.Value()));
}

TEST(ReadCsvStreamTest, ErrorsMatchTextParse) {
  for (const char* text : {"", "a,b\n1\n", "a\n\"unterminated\n"}) {
    std::istringstream in{std::string(text)};
    EXPECT_EQ(ReadCsvStream(in).status().code(),
              ReadCsvText(text).status().code())
        << ::testing::PrintToString(text);
  }
}

TEST(WriteCsvTest, RoundTripsThroughText) {
  DataTable table;
  ASSERT_TRUE(table.AddColumn(Column::Numeric("x", {1.5, 2.0})).ok());
  ASSERT_TRUE(table.AddColumn(Column::CategoricalFromStrings(
      "label", {"has, comma", "plain"})).ok());
  const std::string csv = WriteCsvText(table);
  Result<DataTable> parsed = ReadCsvText(csv);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.Value().num_rows(), 2u);
  EXPECT_DOUBLE_EQ(parsed.Value().column(0).NumericValue(0), 1.5);
  EXPECT_EQ(parsed.Value().column(1).ValueToString(0), "has, comma");
}

TEST(WriteCsvTest, FileRoundTrip) {
  DataTable table;
  ASSERT_TRUE(table.AddColumn(Column::Numeric("v", {9.0, 8.0, 7.0})).ok());
  const std::string path = ::testing::TempDir() + "/sisd_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(table, path).ok());
  Result<DataTable> parsed = ReadCsvFile(path);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.Value().num_rows(), 3u);
  EXPECT_DOUBLE_EQ(parsed.Value().column(0).NumericValue(2), 7.0);
  std::remove(path.c_str());
}

TEST(ReadCsvFileTest, MissingFileErrors) {
  EXPECT_EQ(ReadCsvFile("/nonexistent/definitely_missing.csv").status().code(),
            StatusCode::kIOError);
}

TEST(MakeDatasetTest, SplitsTargetsFromDescriptions) {
  DataTable table;
  ASSERT_TRUE(table.AddColumn(Column::Numeric("d1", {1.0, 2.0})).ok());
  ASSERT_TRUE(table.AddColumn(Column::Numeric("t1", {5.0, 6.0})).ok());
  ASSERT_TRUE(table.AddColumn(Column::Binary("d2", {true, false})).ok());
  Result<Dataset> ds = MakeDataset(table, {"t1"}, "demo");
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(ds.Value().name, "demo");
  EXPECT_EQ(ds.Value().num_targets(), 1u);
  EXPECT_DOUBLE_EQ(ds.Value().targets(1, 0), 6.0);
  EXPECT_EQ(ds.Value().num_descriptions(), 2u);
  EXPECT_FALSE(ds.Value().descriptions.HasColumn("t1"));
}

TEST(MakeDatasetTest, MultipleTargetsPreserveOrder) {
  DataTable table;
  ASSERT_TRUE(table.AddColumn(Column::Numeric("a", {1.0})).ok());
  ASSERT_TRUE(table.AddColumn(Column::Numeric("b", {2.0})).ok());
  ASSERT_TRUE(table.AddColumn(Column::Numeric("c", {3.0})).ok());
  Result<Dataset> ds = MakeDataset(table, {"c", "a"});
  ASSERT_TRUE(ds.ok());
  EXPECT_DOUBLE_EQ(ds.Value().targets(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(ds.Value().targets(0, 1), 1.0);
}

class CsvRoundTripPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(CsvRoundTripPropertyTest, RandomTablesSurviveRoundTrip) {
  random::Rng rng(GetParam());
  DataTable table;
  const size_t rows = 5 + static_cast<size_t>(rng.UniformInt(0, 40));
  const int num_cols = 2 + static_cast<int>(rng.UniformInt(0, 5));
  for (int j = 0; j < num_cols; ++j) {
    const std::string name = "c" + std::to_string(j);
    switch (rng.UniformInt(0, 2)) {
      case 0: {
        std::vector<double> values(rows);
        // Values with few decimals so the %.6g text form is lossless.
        for (double& v : values) {
          v = double(rng.UniformInt(-10000, 10000)) / 16.0;
        }
        ASSERT_TRUE(table.AddColumn(Column::Numeric(name, values)).ok());
        break;
      }
      case 1: {
        std::vector<bool> bits(rows);
        for (size_t i = 0; i < rows; ++i) bits[i] = rng.Bernoulli(0.5);
        ASSERT_TRUE(table.AddColumn(Column::Binary(name, bits)).ok());
        break;
      }
      default: {
        static const char* kLabels[] = {"alpha", "beta, with comma",
                                        "gamma \"quoted\"", "delta"};
        std::vector<std::string> values(rows);
        for (std::string& v : values) {
          v = kLabels[rng.UniformInt(0, 3)];
        }
        ASSERT_TRUE(table
                        .AddColumn(Column::CategoricalFromStrings(name,
                                                                  values))
                        .ok());
        break;
      }
    }
  }
  const std::string csv = WriteCsvText(table);
  Result<DataTable> parsed = ReadCsvText(csv);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.Value().num_rows(), table.num_rows());
  ASSERT_EQ(parsed.Value().num_columns(), table.num_columns());
  for (size_t j = 0; j < table.num_columns(); ++j) {
    for (size_t i = 0; i < table.num_rows(); ++i) {
      EXPECT_EQ(parsed.Value().column(j).ValueToString(i),
                table.column(j).ValueToString(i))
          << "col " << j << " row " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvRoundTripPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

TEST(MakeDatasetTest, RejectsBadTargetSpecs) {
  DataTable table;
  ASSERT_TRUE(table.AddColumn(Column::Numeric("a", {1.0})).ok());
  ASSERT_TRUE(table.AddColumn(
      Column::CategoricalFromStrings("cat", {"x"})).ok());
  EXPECT_FALSE(MakeDataset(table, {}).ok());
  EXPECT_FALSE(MakeDataset(table, {"missing"}).ok());
  EXPECT_FALSE(MakeDataset(table, {"cat"}).ok());
  EXPECT_FALSE(MakeDataset(table, {"a", "a"}).ok());
}

}  // namespace
}  // namespace sisd::data
