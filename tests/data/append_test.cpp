// Row-append dataset construction (data/append.hpp): children share the
// parent's column chunks instead of copying the prefix, chunked storage
// reads identically to flat storage, cell coercion follows CSV semantics,
// and every malformed input fails loudly with InvalidArgument while the
// parent stays untouched — live appends must never drop rows silently.

#include "data/append.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "data/csv.hpp"
#include "data/table.hpp"

namespace sisd::data {
namespace {

Dataset SmallParent() {
  DataTable desc;
  EXPECT_TRUE(desc.AddColumn(
      Column::Numeric("x", {1.0, 2.0, 3.0, 4.0})).ok());
  EXPECT_TRUE(desc.AddColumn(Column::CategoricalFromStrings(
      "c", {"red", "green", "red", "blue"})).ok());
  EXPECT_TRUE(desc.AddColumn(
      Column::Binary("b", {false, true, true, false})).ok());
  Dataset dataset;
  dataset.descriptions = std::move(desc);
  dataset.targets = linalg::Matrix{{0.1}, {0.2}, {0.3}, {0.4}};
  dataset.target_names = {"t"};
  dataset.name = "small";
  EXPECT_TRUE(dataset.Validate().ok());
  return dataset;
}

std::vector<AppendCell> Row(double x, const std::string& c,
                            const std::string& b, double t) {
  return {AppendCell::Number(x), AppendCell::Text(c), AppendCell::Text(b),
          AppendCell::Number(t)};
}

TEST(AppendRowsTest, ChildSharesParentChunksAndParentIsUntouched) {
  const Dataset parent = SmallParent();
  Result<Dataset> child = AppendRowsFromCells(
      parent, {"x", "c", "b", "t"},
      {Row(5.0, "green", "1", 0.5), Row(6.0, "red", "0", 0.6)});
  ASSERT_TRUE(child.ok()) << child.status().ToString();

  EXPECT_EQ(child.Value().num_rows(), 6u);
  EXPECT_EQ(parent.num_rows(), 4u);
  EXPECT_TRUE(child.Value().Validate().ok());

  // The prefix is shared storage, not a copy: segment 0 of every
  // description column is the parent's own chunk.
  for (size_t j = 0; j < parent.num_descriptions(); ++j) {
    const Column& before = parent.descriptions.column(j);
    const Column& after = child.Value().descriptions.column(j);
    ASSERT_EQ(after.NumSegments(), 2u) << after.name();
    EXPECT_EQ(after.SegmentIdentity(0), before.SegmentIdentity(0))
        << after.name() << " prefix must be shared, not copied";
  }

  // Appended values land where expected, typed correctly.
  EXPECT_EQ(child.Value().descriptions.column(0).NumericValue(4), 5.0);
  EXPECT_EQ(child.Value().descriptions.column(1).Label(
                child.Value().descriptions.column(1).Code(5)),
            "red");
  EXPECT_EQ(child.Value().descriptions.column(2).Label(
                child.Value().descriptions.column(2).Code(4)),
            "1");
  EXPECT_EQ(child.Value().targets(5, 0), 0.6);
}

TEST(AppendRowsTest, ChunkedColumnsReadIdenticallyToFlat) {
  Dataset grown = SmallParent();
  // Three stacked appends -> four chunks per description column.
  for (int step = 0; step < 3; ++step) {
    Result<Dataset> next = AppendRowsFromCells(
        grown, {"x", "c", "b", "t"},
        {Row(10.0 + step, "blue", "0", 0.7 + step)});
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    grown = std::move(next).MoveValue();
  }
  ASSERT_EQ(grown.num_rows(), 7u);
  ASSERT_EQ(grown.descriptions.column(0).NumSegments(), 4u);

  // Flattened reads, per-row reads and chunk-sequential visits agree.
  const Column& x = grown.descriptions.column(0);
  const std::vector<double> flat = x.numeric_values();
  ASSERT_EQ(flat.size(), 7u);
  const std::vector<double> expected = {1, 2, 3, 4, 10, 11, 12};
  for (size_t i = 0; i < flat.size(); ++i) {
    EXPECT_EQ(flat[i], expected[i]) << "row " << i;
    EXPECT_EQ(x.NumericValue(i), expected[i]) << "row " << i;
  }
  std::vector<double> visited;
  x.ForEachNumeric(2, [&](size_t row, double value) {
    EXPECT_EQ(row, 2 + visited.size());
    visited.push_back(value);
  });
  EXPECT_EQ(visited, std::vector<double>(expected.begin() + 2,
                                         expected.end()));

  const Column& c = grown.descriptions.column(1);
  const std::vector<int32_t> codes = c.codes();
  ASSERT_EQ(codes.size(), 7u);
  for (size_t i = 0; i < codes.size(); ++i) {
    EXPECT_EQ(codes[i], c.Code(i)) << "row " << i;
  }
}

TEST(AppendRowsTest, CsvTextAppendsWithReorderedHeader) {
  const Dataset parent = SmallParent();
  // Header in a different order than the parent's columns; numeric text
  // coerces, categorical text matches labels.
  Result<Dataset> child = AppendRowsFromCsvText(
      parent, "t,b,c,x\n0.9,1,blue,7.5\n0.8,0,green,8.5\n");
  ASSERT_TRUE(child.ok()) << child.status().ToString();
  EXPECT_EQ(child.Value().num_rows(), 6u);
  EXPECT_EQ(child.Value().descriptions.column(0).NumericValue(4), 7.5);
  EXPECT_EQ(child.Value().targets(4, 0), 0.9);
  EXPECT_EQ(child.Value().descriptions.column(1).Label(
                child.Value().descriptions.column(1).Code(4)),
            "blue");
}

TEST(AppendRowsTest, NewCategoricalLabelExtendsTheTable) {
  const Dataset parent = SmallParent();
  ASSERT_EQ(parent.descriptions.column(1).NumLevels(), 3u);
  Result<Dataset> child = AppendRowsFromCells(
      parent, {"x", "c", "b", "t"}, {Row(5.0, "violet", "1", 0.5)});
  ASSERT_TRUE(child.ok()) << child.status().ToString();
  const Column& c = child.Value().descriptions.column(1);
  EXPECT_EQ(c.NumLevels(), 4u);
  EXPECT_EQ(c.Label(c.Code(4)), "violet");
  // Existing rows keep their codes (old codes index a prefix of the
  // extended label table).
  EXPECT_EQ(c.Label(c.Code(0)), "red");
  // The parent's label table is untouched.
  EXPECT_EQ(parent.descriptions.column(1).NumLevels(), 3u);
}

TEST(AppendRowsTest, MalformedInputIsLoudAndLeavesParentUntouched) {
  const Dataset parent = SmallParent();
  const auto expect_invalid = [&](Result<Dataset> r, const char* what) {
    ASSERT_FALSE(r.ok()) << what;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << what;
  };
  // Header missing a column.
  expect_invalid(AppendRowsFromCells(parent, {"x", "c", "b"},
                                     {{AppendCell::Number(5),
                                       AppendCell::Text("red"),
                                       AppendCell::Text("1")}}),
                 "missing column");
  // Unknown column in the header.
  expect_invalid(
      AppendRowsFromCells(parent, {"x", "c", "b", "t", "ghost"}, {}),
      "unknown column");
  // Cell-count mismatch.
  expect_invalid(AppendRowsFromCells(parent, {"x", "c", "b", "t"},
                                     {{AppendCell::Number(5)}}),
                 "short row");
  // Missing-looking text in a numeric column (CSV ingest would drop the
  // row silently; append must reject it).
  expect_invalid(AppendRowsFromCells(
                     parent, {"x", "c", "b", "t"},
                     {{AppendCell::Text("NA"), AppendCell::Text("red"),
                       AppendCell::Text("1"), AppendCell::Number(0.5)}}),
                 "NA in numeric");
  // Non-numeric text for a numeric column.
  expect_invalid(AppendRowsFromCells(
                     parent, {"x", "c", "b", "t"},
                     {{AppendCell::Text("many"), AppendCell::Text("red"),
                       AppendCell::Text("1"), AppendCell::Number(0.5)}}),
                 "unparsable numeric");
  // A binary column cannot grow a third level.
  expect_invalid(AppendRowsFromCells(parent, {"x", "c", "b", "t"},
                                     {Row(5.0, "red", "maybe", 0.5)}),
                 "third binary level");
  // The parent never changed.
  EXPECT_EQ(parent.num_rows(), 4u);
  EXPECT_EQ(parent.descriptions.column(1).NumLevels(), 3u);
  EXPECT_TRUE(parent.Validate().ok());
}

TEST(AppendRowsTest, SubnormalCsvCellsAppendOverflowAndUnderflowDoNot) {
  const Dataset parent = SmallParent();
  // A subnormal cell is a finite number: the CSV path takes it (as the JSON
  // cell path does) with the bits strtod produces.
  Result<Dataset> child = AppendRowsFromCsvText(
      parent, "x,c,b,t\n1e-310,red,1,2.2250738585072011e-308\n");
  ASSERT_TRUE(child.ok()) << child.status().ToString();
  EXPECT_EQ(child.Value().descriptions.column(0).NumericValue(4),
            std::strtod("1e-310", nullptr));
  EXPECT_EQ(child.Value().targets(4, 0),
            std::strtod("2.2250738585072011e-308", nullptr));
  Result<Dataset> via_json = AppendRowsFromCells(
      parent, {"x", "c", "b", "t"},
      {Row(std::strtod("1e-310", nullptr), "red", "1",
           std::strtod("2.2250738585072011e-308", nullptr))});
  ASSERT_TRUE(via_json.ok()) << via_json.status().ToString();
  EXPECT_EQ(WriteCsvText(via_json.Value().descriptions),
            WriteCsvText(child.Value().descriptions));
  // Overflow and underflow to zero are still parse errors.
  for (const char* cell : {"1e309", "-1e309", "1e-400"}) {
    Result<Dataset> bad = AppendRowsFromCsvText(
        parent, std::string("x,c,b,t\n") + cell + ",red,1,0.5\n");
    ASSERT_FALSE(bad.ok()) << cell;
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument) << cell;
  }
}

TEST(AppendRowsTest, NonFiniteCellsAreRejectedNamingRowAndColumn) {
  const Dataset parent = SmallParent();
  // Text spelling NaN or +-inf is not a number, in a description column
  // or a target: the append fails naming the row and the column.
  for (const char* cell : {"NAN", "-nan", "inf", "-Infinity"}) {
    for (const bool in_target : {false, true}) {
      const std::string row =
          in_target ? std::string("2.5,red,1,") + cell
                    : std::string(cell) + ",red,1,0.5";
      Result<Dataset> bad = AppendRowsFromCsvText(
          parent, "x,c,b,t\n1.5,red,0,0.1\n" + row + "\n");
      ASSERT_FALSE(bad.ok()) << row;
      EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument) << row;
      const std::string message = bad.status().message();
      EXPECT_NE(message.find("row 1"), std::string::npos) << message;
      EXPECT_NE(message.find(in_target ? "'t'" : "'x'"), std::string::npos)
          << message;
    }
  }
  // Non-finite number cells (a JSON 1e400 reads as inf) are rejected too.
  for (const double value : {std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()}) {
    Result<Dataset> bad = AppendRowsFromCells(
        parent, {"x", "c", "b", "t"}, {Row(value, "red", "1", 0.5)});
    ASSERT_FALSE(bad.ok()) << value;
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
    Result<Dataset> bad_target = AppendRowsFromCells(
        parent, {"x", "c", "b", "t"}, {Row(1.0, "red", "1", value)});
    ASSERT_FALSE(bad_target.ok()) << value;
  }
  // The same spelling is an ordinary label in a categorical column.
  Result<Dataset> label =
      AppendRowsFromCsvText(parent, "x,c,b,t\n1,inf,1,0.5\n");
  ASSERT_TRUE(label.ok()) << label.status().ToString();
}

TEST(AppendSliceTest, TypedFastPathRemapsCodesAndChecksSchema) {
  const Dataset parent = SmallParent();

  // A slice with the same schema but its own label numbering: "green"
  // first, so its codes differ from the parent's and must be remapped.
  DataTable desc;
  ASSERT_TRUE(desc.AddColumn(Column::Numeric("x", {9.0, 10.0})).ok());
  ASSERT_TRUE(desc.AddColumn(Column::CategoricalFromStrings(
      "c", {"green", "red"})).ok());
  ASSERT_TRUE(desc.AddColumn(Column::Binary("b", {true, false})).ok());
  Dataset extra;
  extra.descriptions = std::move(desc);
  extra.targets = linalg::Matrix{{0.8}, {0.9}};
  extra.target_names = {"t"};
  extra.name = "slice";
  ASSERT_TRUE(extra.Validate().ok());

  Result<Dataset> child = AppendDatasetSlice(parent, extra);
  ASSERT_TRUE(child.ok()) << child.status().ToString();
  EXPECT_EQ(child.Value().num_rows(), 6u);
  const Column& c = child.Value().descriptions.column(1);
  EXPECT_EQ(c.Label(c.Code(4)), "green");
  EXPECT_EQ(c.Label(c.Code(5)), "red");
  EXPECT_EQ(c.NumLevels(), 3u) << "no new labels were introduced";

  // Binary labels that disagree with the parent's are a schema error,
  // not an extension.
  Dataset bad = extra;
  DataTable bad_desc;
  ASSERT_TRUE(bad_desc.AddColumn(Column::Numeric("x", {9.0})).ok());
  ASSERT_TRUE(bad_desc.AddColumn(Column::CategoricalFromStrings(
      "c", {"red"})).ok());
  ASSERT_TRUE(bad_desc.AddColumn(
      Column::Binary("b", {true}, "no", "yes")).ok());
  bad.descriptions = std::move(bad_desc);
  bad.targets = linalg::Matrix{{0.8}};
  Result<Dataset> rejected = AppendDatasetSlice(parent, bad);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  // Mismatched target names are rejected too.
  Dataset wrong_targets = extra;
  wrong_targets.target_names = {"u"};
  Result<Dataset> rejected2 = AppendDatasetSlice(parent, wrong_targets);
  ASSERT_FALSE(rejected2.ok());
  EXPECT_EQ(rejected2.status().code(), StatusCode::kInvalidArgument);
}

TEST(AppendRowsTest, CsvRoundTripEqualsSliceAppend) {
  // Appending rows parsed from CSV text equals appending the same rows
  // through the typed fast path, column for column.
  const Dataset parent = SmallParent();
  Result<Dataset> via_csv = AppendRowsFromCsvText(
      parent, "x,c,b,t\n5,green,1,0.5\n6,red,0,0.6\n");
  ASSERT_TRUE(via_csv.ok()) << via_csv.status().ToString();
  Result<Dataset> via_cells = AppendRowsFromCells(
      parent, {"x", "c", "b", "t"},
      {Row(5.0, "green", "1", 0.5), Row(6.0, "red", "0", 0.6)});
  ASSERT_TRUE(via_cells.ok());

  ASSERT_EQ(via_csv.Value().num_rows(), via_cells.Value().num_rows());
  for (size_t j = 0; j < parent.num_descriptions(); ++j) {
    const Column& a = via_csv.Value().descriptions.column(j);
    const Column& b = via_cells.Value().descriptions.column(j);
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.ValueToString(i), b.ValueToString(i))
          << a.name() << " row " << i;
    }
  }
  for (size_t i = 0; i < via_csv.Value().num_rows(); ++i) {
    EXPECT_EQ(via_csv.Value().targets(i, 0), via_cells.Value().targets(i, 0));
  }
}

}  // namespace
}  // namespace sisd::data
