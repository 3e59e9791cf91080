/// \file append.hpp
/// \brief Row-append construction of dataset versions.
///
/// The catalog's live-dataset path (ROADMAP "append + incremental
/// refresh") builds a *child* dataset from a parent plus new rows. The
/// child shares every existing column chunk with the parent
/// (`Column::WithAppended*`), so constructing it is O(new rows) for the
/// descriptions; only the target matrix is materialized contiguously
/// (the scoring kernels require contiguous target rows, and dy is small).
///
/// Unlike CSV ingest — which silently drops rows with missing fields —
/// every append entry point rejects bad input loudly with
/// `InvalidArgument` and leaves the parent untouched: an analyst
/// appending live rows must find out when a row was malformed, not lose
/// it silently.

#ifndef SISD_DATA_APPEND_HPP_
#define SISD_DATA_APPEND_HPP_

#include <string>
#include <vector>

#include "common/status.hpp"
#include "data/table.hpp"

namespace sisd::data {

/// \brief One heterogeneous cell of an appended row: a number or text.
///
/// Protocol clients send rows as JSON arrays, so numeric cells arrive as
/// numbers (kept bit-exact) and categorical levels as label strings. Text
/// is accepted for numeric columns when it parses as a double.
struct AppendCell {
  static AppendCell Number(double value) {
    AppendCell cell;
    cell.is_number = true;
    cell.number = value;
    return cell;
  }
  static AppendCell Text(std::string value) {
    AppendCell cell;
    cell.text = std::move(value);
    return cell;
  }

  bool is_number = false;
  double number = 0.0;
  std::string text;
};

/// \brief Appends rows given as per-row cell lists under an explicit
/// column-name header.
///
/// `columns` must name every description and target column of `parent`
/// exactly once (any order). Each row must have one cell per column.
/// Numeric/ordinal/target cells accept numbers or numeric text;
/// categorical cells must match or extend the label table (new labels are
/// appended in first-appearance order); binary cells must match one of
/// the two existing labels. Missing-looking text ("", "NA", "nan", "NaN",
/// "?") is rejected unless it is literally a known label of that column.
Result<Dataset> AppendRowsFromCells(
    const Dataset& parent, const std::vector<std::string>& columns,
    const std::vector<std::vector<AppendCell>>& rows);

/// \brief Appends rows parsed from CSV text (header row required; same
/// quoting rules as ingest, but no silent row dropping).
Result<Dataset> AppendRowsFromCsvText(const Dataset& parent,
                                      const std::string& csv_text);

}  // namespace sisd::data

#endif  // SISD_DATA_APPEND_HPP_
