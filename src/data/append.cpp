#include "data/append.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_map>

#include "common/strings.hpp"
#include "data/csv.hpp"

namespace sisd::data {
namespace {

/// Text the CSV reader would treat as a missing value. Appends reject
/// these loudly (unless the text is literally a known categorical label).
bool LooksMissing(const std::string& text) {
  const std::string trimmed(TrimWhitespace(text));
  return trimmed.empty() || trimmed == "NA" || trimmed == "nan" ||
         trimmed == "NaN" || trimmed == "?";
}

/// Renders a numeric cell the way `Column::ValueToString` does, so JSON
/// clients can send binary/categorical levels as numbers (0/1 matches the
/// labels CSV ingest assigns to inferred binary columns).
std::string NumberAsLabelText(double v) { return StrFormat("%.6g", v); }

Result<double> CoerceNumeric(const AppendCell& cell, size_t row,
                             const std::string& column) {
  if (cell.is_number) {
    if (std::isfinite(cell.number)) return cell.number;
    return Status::InvalidArgument(
        StrFormat("append row %zu column '%s': %g is not a finite number",
                  row, column.c_str(), cell.number));
  }
  if (!LooksMissing(cell.text)) {
    std::optional<double> parsed = ParseNumericCell(cell.text);
    if (parsed.has_value()) return *parsed;
  }
  return Status::InvalidArgument(
      StrFormat("append row %zu column '%s': cannot parse '%s' as a number",
                row, column.c_str(), cell.text.c_str()));
}

/// A zero matrix of `parent.rows() + extra_rows` rows whose leading block
/// is a copy of `parent` (row-major, so one contiguous copy).
linalg::Matrix ExtendTargets(const linalg::Matrix& parent,
                             size_t extra_rows) {
  linalg::Matrix out(parent.rows() + extra_rows, parent.cols());
  if (parent.rows() > 0 && parent.cols() > 0) {
    std::copy(parent.RowData(0),
              parent.RowData(0) + parent.rows() * parent.cols(),
              out.RowData(0));
  }
  return out;
}

}  // namespace

Result<Dataset> AppendRowsFromCells(
    const Dataset& parent, const std::vector<std::string>& columns,
    const std::vector<std::vector<AppendCell>>& rows) {
  SISD_RETURN_NOT_OK(parent.Validate());
  const size_t num_desc = parent.num_descriptions();
  const size_t dy = parent.num_targets();
  if (columns.size() != num_desc + dy) {
    return Status::InvalidArgument(StrFormat(
        "append header has %zu columns, dataset has %zu "
        "(%zu descriptions + %zu targets)",
        columns.size(), num_desc + dy, num_desc, dy));
  }
  std::unordered_map<std::string, size_t> header_pos;
  for (size_t c = 0; c < columns.size(); ++c) {
    if (!header_pos.emplace(columns[c], c).second) {
      return Status::InvalidArgument(
          StrFormat("append header repeats column '%s'", columns[c].c_str()));
    }
  }
  std::vector<size_t> desc_pos(num_desc);
  for (size_t j = 0; j < num_desc; ++j) {
    const std::string& name = parent.descriptions.column(j).name();
    auto it = header_pos.find(name);
    if (it == header_pos.end()) {
      return Status::InvalidArgument(StrFormat(
          "append header is missing description column '%s'", name.c_str()));
    }
    desc_pos[j] = it->second;
  }
  std::vector<size_t> target_pos(dy);
  for (size_t t = 0; t < dy; ++t) {
    auto it = header_pos.find(parent.target_names[t]);
    if (it == header_pos.end()) {
      return Status::InvalidArgument(
          StrFormat("append header is missing target column '%s'",
                    parent.target_names[t].c_str()));
    }
    target_pos[t] = it->second;
  }
  for (size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != columns.size()) {
      return Status::InvalidArgument(
          StrFormat("append row %zu has %zu cells, expected %zu", r,
                    rows[r].size(), columns.size()));
    }
  }

  Dataset child;
  child.name = parent.name;
  child.target_names = parent.target_names;
  const size_t n_old = parent.num_rows();
  child.targets = ExtendTargets(parent.targets, rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t t = 0; t < dy; ++t) {
      SISD_ASSIGN_OR_RETURN(
          value, CoerceNumeric(rows[r][target_pos[t]], r,
                               parent.target_names[t]));
      child.targets(n_old + r, t) = value;
    }
  }
  for (size_t j = 0; j < num_desc; ++j) {
    const Column& col = parent.descriptions.column(j);
    if (IsOrderable(col.kind())) {
      std::vector<double> tail;
      tail.reserve(rows.size());
      for (size_t r = 0; r < rows.size(); ++r) {
        SISD_ASSIGN_OR_RETURN(
            value, CoerceNumeric(rows[r][desc_pos[j]], r, col.name()));
        tail.push_back(value);
      }
      SISD_RETURN_NOT_OK(child.descriptions.AddColumn(
          col.WithAppendedNumeric(std::move(tail))));
      continue;
    }
    const std::vector<std::string>& labels = col.labels();
    std::unordered_map<std::string, int32_t> code_of;
    for (size_t l = 0; l < labels.size(); ++l) {
      code_of.emplace(labels[l], static_cast<int32_t>(l));
    }
    std::vector<std::string> new_labels;
    std::vector<int32_t> tail;
    tail.reserve(rows.size());
    for (size_t r = 0; r < rows.size(); ++r) {
      const AppendCell& cell = rows[r][desc_pos[j]];
      const std::string text =
          cell.is_number ? NumberAsLabelText(cell.number) : cell.text;
      auto it = code_of.find(text);
      if (it != code_of.end()) {
        tail.push_back(it->second);
        continue;
      }
      if (!cell.is_number && LooksMissing(cell.text)) {
        return Status::InvalidArgument(
            StrFormat("append row %zu column '%s': missing value '%s'", r,
                      col.name().c_str(), cell.text.c_str()));
      }
      if (col.kind() == AttributeKind::kBinary) {
        return Status::InvalidArgument(StrFormat(
            "append row %zu column '%s': '%s' is not one of the binary "
            "labels ('%s', '%s')",
            r, col.name().c_str(), text.c_str(), labels[0].c_str(),
            labels[1].c_str()));
      }
      const int32_t code =
          static_cast<int32_t>(labels.size() + new_labels.size());
      code_of.emplace(text, code);
      new_labels.push_back(text);
      tail.push_back(code);
    }
    SISD_RETURN_NOT_OK(child.descriptions.AddColumn(
        col.WithAppendedCodes(std::move(tail), std::move(new_labels))));
  }
  SISD_RETURN_NOT_OK(child.Validate());
  return child;
}

Result<Dataset> AppendRowsFromCsvText(const Dataset& parent,
                                      const std::string& csv_text) {
  SISD_ASSIGN_OR_RETURN(raw, ReadCsvRawText(csv_text));
  std::vector<std::vector<AppendCell>> rows;
  rows.reserve(raw.rows.size());
  for (std::vector<std::string>& record : raw.rows) {
    std::vector<AppendCell> row;
    row.reserve(record.size());
    for (std::string& cell : record) {
      row.push_back(AppendCell::Text(std::move(cell)));
    }
    rows.push_back(std::move(row));
  }
  return AppendRowsFromCells(parent, raw.header, rows);
}

Result<Dataset> AppendDatasetSlice(const Dataset& parent,
                                   const Dataset& extra) {
  SISD_RETURN_NOT_OK(parent.Validate());
  SISD_RETURN_NOT_OK(extra.Validate());
  if (extra.target_names != parent.target_names) {
    return Status::InvalidArgument(
        "appended slice target columns do not match the parent dataset");
  }
  if (extra.num_descriptions() != parent.num_descriptions()) {
    return Status::InvalidArgument(StrFormat(
        "appended slice has %zu description columns, parent has %zu",
        extra.num_descriptions(), parent.num_descriptions()));
  }
  for (size_t j = 0; j < parent.num_descriptions(); ++j) {
    const Column& a = parent.descriptions.column(j);
    const Column& b = extra.descriptions.column(j);
    if (a.name() != b.name() || a.kind() != b.kind()) {
      return Status::InvalidArgument(StrFormat(
          "appended slice column %zu is '%s' (%s), parent has '%s' (%s)", j,
          b.name().c_str(), AttributeKindToString(b.kind()),
          a.name().c_str(), AttributeKindToString(a.kind())));
    }
  }

  const size_t n_old = parent.num_rows();
  const size_t extra_rows = extra.num_rows();
  Dataset child;
  child.name = parent.name;
  child.target_names = parent.target_names;
  child.targets = ExtendTargets(parent.targets, extra_rows);
  for (size_t i = 0; i < extra_rows; ++i) {
    for (size_t t = 0; t < parent.num_targets(); ++t) {
      child.targets(n_old + i, t) = extra.targets(i, t);
    }
  }
  for (size_t j = 0; j < parent.num_descriptions(); ++j) {
    const Column& a = parent.descriptions.column(j);
    const Column& b = extra.descriptions.column(j);
    if (IsOrderable(a.kind())) {
      SISD_RETURN_NOT_OK(child.descriptions.AddColumn(
          a.WithAppendedNumeric(b.numeric_values())));
      continue;
    }
    std::unordered_map<std::string, int32_t> code_of;
    for (size_t l = 0; l < a.labels().size(); ++l) {
      code_of.emplace(a.labels()[l], static_cast<int32_t>(l));
    }
    std::vector<std::string> new_labels;
    std::vector<int32_t> remap(b.labels().size());
    for (size_t l = 0; l < b.labels().size(); ++l) {
      auto it = code_of.find(b.labels()[l]);
      if (it != code_of.end()) {
        remap[l] = it->second;
        continue;
      }
      if (a.kind() == AttributeKind::kBinary) {
        return Status::InvalidArgument(StrFormat(
            "appended slice column '%s': label '%s' is not one of the "
            "binary labels ('%s', '%s')",
            a.name().c_str(), b.labels()[l].c_str(), a.labels()[0].c_str(),
            a.labels()[1].c_str()));
      }
      const int32_t code =
          static_cast<int32_t>(a.labels().size() + new_labels.size());
      code_of.emplace(b.labels()[l], code);
      new_labels.push_back(b.labels()[l]);
      remap[l] = code;
    }
    std::vector<int32_t> tail;
    tail.reserve(extra_rows);
    b.ForEachCode(0, [&](size_t, int32_t code) {
      tail.push_back(remap[static_cast<size_t>(code)]);
    });
    SISD_RETURN_NOT_OK(child.descriptions.AddColumn(
        a.WithAppendedCodes(std::move(tail), std::move(new_labels))));
  }
  SISD_RETURN_NOT_OK(child.Validate());
  return child;
}

}  // namespace sisd::data
