/// \file csv.hpp
/// \brief CSV reading/writing for DataTable and Dataset.
///
/// The reader supports quoted fields, type inference (numeric vs
/// categorical; low-cardinality 0/1 columns become binary), and explicit
/// per-column overrides. This is the "data handling boilerplate" the
/// reproduction needs so users can point the miner at their own files.
///
/// All read entry points share one line-level parser, so they agree byte
/// for byte: `ReadCsvText` walks an in-memory string, while
/// `ReadCsvStream`/`ReadCsvFile` consume their input in fixed-size chunks
/// (`kCsvChunkBytes`) and never buffer the whole file — large ingests
/// (catalog `--preload`, the `dataset_load` verb) hold only the parsed
/// cells plus one chunk.

#ifndef SISD_DATA_CSV_HPP_
#define SISD_DATA_CSV_HPP_

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "data/table.hpp"

namespace sisd::data {

/// \brief Options controlling CSV parsing and type inference.
struct CsvOptions {
  char separator = ',';           ///< field separator
  bool has_header = true;         ///< first row = column names
  /// Maximum distinct values for a numeric-looking column to still be
  /// classified as categorical when listed in `categorical_overrides`.
  std::unordered_map<std::string, AttributeKind> kind_overrides;
  /// Strings treated as missing values; rows containing missing fields in
  /// any used column are dropped (the paper's datasets are complete; this
  /// keeps the semantics simple and explicit).
  std::vector<std::string> na_values = {"", "NA", "nan", "NaN", "?"};
};

/// \brief Chunk size of the streaming reader (one read(2)-ish unit; the
/// parser holds at most one partial line across chunk boundaries).
inline constexpr size_t kCsvChunkBytes = 64 * 1024;

/// \brief The number a data cell's text spells, if any: `ParseDouble`,
/// except that a non-finite result (`NAN`, `-nan`, `inf`, `-Infinity`,
/// ...) is not a number. Every data-layer entry point types cells through
/// this, so numeric columns and targets only ever hold finite values.
std::optional<double> ParseNumericCell(std::string_view text);

/// \brief Parses CSV text into a DataTable.
///
/// Columns where every non-missing value is a number (`ParseNumericCell`)
/// become numeric (or binary when the distinct values are exactly
/// {0, 1}); everything else becomes categorical. `options.kind_overrides`
/// wins when present.
Result<DataTable> ReadCsvText(const std::string& text,
                              const CsvOptions& options = CsvOptions());

/// \brief Reads CSV from a stream in `kCsvChunkBytes` chunks without
/// buffering the whole input. Result is byte-for-byte identical to
/// `ReadCsvText` over the same bytes.
Result<DataTable> ReadCsvStream(std::istream& in,
                                const CsvOptions& options = CsvOptions());

/// \brief Reads a CSV file into a DataTable (chunked via `ReadCsvStream`).
Result<DataTable> ReadCsvFile(const std::string& path,
                              const CsvOptions& options = CsvOptions());

/// \brief A raw parsed CSV: header plus untyped string cells.
struct RawCsv {
  std::vector<std::string> header;
  /// Data records, each with exactly `header.size()` fields.
  std::vector<std::vector<std::string>> rows;
};

/// \brief Parses CSV text into raw string cells: no type inference and no
/// missing-value row dropping (the append path rejects bad cells loudly
/// instead of skipping rows). Same record grammar as `ReadCsvText`:
/// quoted fields, blank lines skipped, trailing '\r' stripped; the first
/// line is the header.
Result<RawCsv> ReadCsvRawText(const std::string& text, char separator = ',');

/// \brief Serializes a DataTable to CSV text (RFC-4180-style quoting).
std::string WriteCsvText(const DataTable& table, char separator = ',');

/// \brief Writes a DataTable to a CSV file.
Status WriteCsvFile(const DataTable& table, const std::string& path,
                    char separator = ',');

/// \brief Splits a DataTable into a Dataset by naming the target columns.
///
/// Target columns must be numeric; they are removed from the description
/// table and packed into the target matrix in the order given.
Result<Dataset> MakeDataset(const DataTable& table,
                            const std::vector<std::string>& target_columns,
                            std::string dataset_name = "dataset");

}  // namespace sisd::data

#endif  // SISD_DATA_CSV_HPP_
