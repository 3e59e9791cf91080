#include "data/csv.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <istream>
#include <set>
#include <string_view>

#include "common/strings.hpp"

namespace sisd::data {

namespace {

/// Splits one CSV record honoring double-quote escaping into `*fields`.
/// Unquoted fields are views into `line`; a field containing a quote is
/// unescaped into `*unescaped`, which is reserved to `line.size()` first
/// (unescaping never grows a field) so those views stay valid.
Status SplitCsvRecord(std::string_view line, char sep,
                      std::vector<std::string_view>* fields,
                      std::string* unescaped) {
  fields->clear();
  unescaped->clear();
  unescaped->reserve(line.size());
  size_t pos = 0;
  for (;;) {
    const size_t next_sep = std::min(line.find(sep, pos), line.size());
    const std::string_view raw = line.substr(pos, next_sep - pos);
    if (raw.find('"') == std::string_view::npos) {
      fields->push_back(raw);
      if (next_sep == line.size()) return Status::OK();
      pos = next_sep + 1;
      continue;
    }
    // A quote anywhere in the field: quotes toggle, and inside them a
    // doubled quote is a literal one and the separator is plain text.
    const size_t field_begin = unescaped->size();
    bool in_quotes = false;
    size_t i = pos;
    for (; i < line.size(); ++i) {
      const char c = line[i];
      if (in_quotes) {
        if (c != '"') {
          unescaped->push_back(c);
        } else if (i + 1 < line.size() && line[i + 1] == '"') {
          unescaped->push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else if (c == '"') {
        in_quotes = true;
      } else if (c == sep) {
        break;
      } else {
        unescaped->push_back(c);
      }
    }
    if (in_quotes) return Status::IOError("unterminated quoted field");
    fields->push_back(std::string_view(*unescaped).substr(field_begin));
    if (i == line.size()) return Status::OK();
    pos = i + 1;
  }
}

bool IsMissing(std::string_view value, const CsvOptions& options) {
  const std::string_view trimmed = TrimWhitespace(value);
  for (const std::string& na : options.na_values) {
    if (trimmed == na) return true;
  }
  return false;
}

std::string EscapeCsvField(const std::string& field, char sep) {
  const bool needs_quotes =
      field.find(sep) != std::string::npos ||
      field.find('"') != std::string::npos ||
      field.find('\n') != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

/// Calls `consume(line)` for every '\n'-terminated line of `text` (one
/// preceding '\r' stripped), then for a non-empty unterminated last line
/// (kept verbatim: no '\r' strip). Stops at the first error.
template <typename Fn>
Status ForEachCsvLine(std::string_view text, Fn&& consume) {
  size_t pos = 0;
  for (size_t nl; (nl = text.find('\n', pos)) != std::string_view::npos;
       pos = nl + 1) {
    std::string_view line = text.substr(pos, nl - pos);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    SISD_RETURN_NOT_OK(consume(line));
  }
  if (pos < text.size()) SISD_RETURN_NOT_OK(consume(text.substr(pos)));
  return Status::OK();
}

/// One column's accepted cells packed end to end: cell k is
/// `bytes[ends[k-1], ends[k])` (no per-cell allocation).
struct CellColumn {
  std::string bytes;
  std::vector<size_t> ends;

  size_t size() const { return ends.size(); }
  bool empty() const { return ends.empty(); }
  std::string_view operator[](size_t k) const {
    const size_t begin = k == 0 ? 0 : ends[k - 1];
    return std::string_view(bytes).substr(begin, ends[k] - begin);
  }
  void push_back(std::string_view cell) {
    bytes.append(cell);
    ends.push_back(bytes.size());
  }
};

/// Incremental line-fed CSV parser: the single implementation behind
/// `ReadCsvText` (whole string in memory) and `ReadCsvStream` (fixed-size
/// chunks). Feeding it the same line sequence yields the same table, which
/// is what keeps the streaming and whole-file parses byte-for-byte equal.
class CsvLineParser {
 public:
  explicit CsvLineParser(const CsvOptions& options) : options_(options) {}

  /// Consumes one record line (newline and any preceding '\r' already
  /// stripped). The first line carries the header (or, without one, sizes
  /// the synthesized colN names and doubles as the first data row).
  Status ConsumeLine(std::string_view line) {
    ++line_number_;
    if (!have_header_) {
      SISD_RETURN_NOT_OK(
          SplitCsvRecord(line, options_.separator, &fields_, &unescaped_));
      if (options_.has_header) {
        header_.assign(fields_.begin(), fields_.end());
      } else {
        header_.reserve(fields_.size());
        for (size_t j = 0; j < fields_.size(); ++j) {
          header_.push_back(StrFormat("col%zu", j));
        }
      }
      cells_.resize(header_.size());
      have_header_ = true;
      if (options_.has_header) return Status::OK();
    }
    return ConsumeDataLine(line);
  }

  /// Validates completeness and runs type inference over the collected
  /// cells, producing the table.
  Result<DataTable> Finish() const;

 private:
  Status ConsumeDataLine(std::string_view line) {
    if (TrimWhitespace(line).empty()) return Status::OK();  // blank: skip
    SISD_RETURN_NOT_OK(
        SplitCsvRecord(line, options_.separator, &fields_, &unescaped_));
    if (fields_.size() != cells_.size()) {
      return Status::IOError(
          StrFormat("line %zu has %zu fields, expected %zu", line_number_,
                    fields_.size(), cells_.size()));
    }
    for (std::string_view field : fields_) {
      if (IsMissing(field, options_)) return Status::OK();  // complete-case
    }
    for (size_t j = 0; j < cells_.size(); ++j) cells_[j].push_back(fields_[j]);
    return Status::OK();
  }

  const CsvOptions& options_;
  size_t line_number_ = 0;  ///< 1-based, counts every consumed line
  bool have_header_ = false;
  std::vector<std::string> header_;
  std::vector<CellColumn> cells_;
  std::vector<std::string_view> fields_;  ///< scratch: the current record
  std::string unescaped_;                 ///< scratch: its quoted fields
};

Result<DataTable> CsvLineParser::Finish() const {
  if (!have_header_) return Status::IOError("empty CSV input");
  const size_t num_cols = header_.size();
  const std::vector<CellColumn>& cells = cells_;
  const std::vector<std::string>& header = header_;
  const CsvOptions& options = options_;
  if (cells.empty() || cells[0].empty()) {
    return Status::IOError("CSV has no complete data rows");
  }

  DataTable table;
  for (size_t j = 0; j < num_cols; ++j) {
    const std::string& name = header[j];
    // Determine kind: override > inference.
    AttributeKind kind;
    auto override_it = options.kind_overrides.find(name);
    bool overridden = override_it != options.kind_overrides.end();
    std::vector<double> numeric;
    numeric.reserve(cells[j].size());
    bool all_numeric = true;
    std::set<double> distinct;
    for (size_t k = 0; k < cells[j].size(); ++k) {
      std::optional<double> value = ParseNumericCell(cells[j][k]);
      if (!value.has_value()) {
        all_numeric = false;
        break;
      }
      numeric.push_back(*value);
      if (distinct.size() <= 2) distinct.insert(*value);
    }
    if (overridden) {
      kind = override_it->second;
      if (IsOrderable(kind) && !all_numeric) {
        return Status::InvalidArgument(StrFormat(
            "column '%s' declared %s but has non-numeric values",
            name.c_str(), AttributeKindToString(kind)));
      }
    } else if (all_numeric) {
      const bool binary01 =
          distinct.size() <= 2 &&
          std::all_of(distinct.begin(), distinct.end(),
                      [](double v) { return v == 0.0 || v == 1.0; });
      kind = binary01 ? AttributeKind::kBinary : AttributeKind::kNumeric;
    } else {
      kind = AttributeKind::kCategorical;
    }

    Status add_status;
    switch (kind) {
      case AttributeKind::kNumeric:
        add_status = table.AddColumn(Column::Numeric(name, std::move(numeric)));
        break;
      case AttributeKind::kOrdinal:
        add_status = table.AddColumn(Column::Ordinal(name, std::move(numeric)));
        break;
      case AttributeKind::kBinary: {
        std::vector<bool> bits;
        if (all_numeric) {
          bits.reserve(numeric.size());
          for (double v : numeric) bits.push_back(v != 0.0);
        } else {
          return Status::InvalidArgument(StrFormat(
              "column '%s' declared binary but has non-numeric values",
              name.c_str()));
        }
        add_status = table.AddColumn(Column::Binary(name, bits));
        break;
      }
      case AttributeKind::kCategorical: {
        std::vector<std::string> values;
        values.reserve(cells[j].size());
        for (size_t k = 0; k < cells[j].size(); ++k) {
          values.emplace_back(cells[j][k]);
        }
        add_status =
            table.AddColumn(Column::CategoricalFromStrings(name, values));
        break;
      }
    }
    SISD_RETURN_NOT_OK(add_status);
  }
  return table;
}

}  // namespace

std::optional<double> ParseNumericCell(std::string_view text) {
  const std::optional<double> value = ParseDouble(text);
  if (value.has_value() && !std::isfinite(*value)) return std::nullopt;
  return value;
}

Result<DataTable> ReadCsvText(const std::string& text,
                              const CsvOptions& options) {
  CsvLineParser parser(options);
  const auto consume = [&](std::string_view line) {
    return parser.ConsumeLine(line);
  };
  SISD_RETURN_NOT_OK(ForEachCsvLine(text, consume));
  return parser.Finish();
}

Result<DataTable> ReadCsvStream(std::istream& in,
                                const CsvOptions& options) {
  CsvLineParser parser(options);
  std::string pending;  // partial line spanning chunk boundaries
  std::vector<char> chunk(kCsvChunkBytes);
  for (;;) {
    in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    const size_t got = static_cast<size_t>(in.gcount());
    if (got == 0) {
      if (in.bad()) return Status::IOError("CSV stream read failed");
      break;
    }
    // Whole lines inside the chunk are parsed in place; only a line that
    // straddles a chunk boundary is assembled in `pending`.
    const std::string_view data(chunk.data(), got);
    size_t start = 0;
    for (size_t nl; (nl = data.find('\n', start)) != std::string_view::npos;
         start = nl + 1) {
      std::string_view line = data.substr(start, nl - start);
      if (!pending.empty()) {
        pending.append(line);
        line = pending;
      }
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      SISD_RETURN_NOT_OK(parser.ConsumeLine(line));
      pending.clear();
    }
    pending.append(data.substr(start));
    if (in.eof()) break;
    if (in.bad()) return Status::IOError("CSV stream read failed");
  }
  if (!pending.empty()) {
    SISD_RETURN_NOT_OK(parser.ConsumeLine(pending));
  }
  return parser.Finish();
}

Result<DataTable> ReadCsvFile(const std::string& path,
                              const CsvOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError(StrFormat("cannot open '%s'", path.c_str()));
  }
  return ReadCsvStream(in, options);
}

Result<RawCsv> ReadCsvRawText(const std::string& text, char separator) {
  RawCsv raw;
  bool have_header = false;
  size_t line_number = 0;
  std::vector<std::string_view> fields;
  std::string unescaped;
  const auto consume = [&](std::string_view line) -> Status {
    ++line_number;
    if (!have_header) {
      SISD_RETURN_NOT_OK(SplitCsvRecord(line, separator, &fields, &unescaped));
      raw.header.assign(fields.begin(), fields.end());
      have_header = true;
      return Status::OK();
    }
    if (TrimWhitespace(line).empty()) return Status::OK();  // blank: skip
    SISD_RETURN_NOT_OK(SplitCsvRecord(line, separator, &fields, &unescaped));
    if (fields.size() != raw.header.size()) {
      return Status::IOError(StrFormat("line %zu has %zu fields, expected %zu",
                                       line_number, fields.size(),
                                       raw.header.size()));
    }
    raw.rows.emplace_back(fields.begin(), fields.end());
    return Status::OK();
  };
  SISD_RETURN_NOT_OK(ForEachCsvLine(text, consume));
  if (!have_header) return Status::IOError("empty CSV input");
  return raw;
}

std::string WriteCsvText(const DataTable& table, char separator) {
  std::string out;
  const std::vector<std::string> names = table.ColumnNames();
  for (size_t j = 0; j < names.size(); ++j) {
    if (j > 0) out += separator;
    out += EscapeCsvField(names[j], separator);
  }
  out += '\n';
  for (size_t i = 0; i < table.num_rows(); ++i) {
    for (size_t j = 0; j < table.num_columns(); ++j) {
      if (j > 0) out += separator;
      out += EscapeCsvField(table.column(j).ValueToString(i), separator);
    }
    out += '\n';
  }
  return out;
}

Status WriteCsvFile(const DataTable& table, const std::string& path,
                    char separator) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::IOError(StrFormat("cannot open '%s' for writing",
                                     path.c_str()));
  }
  out << WriteCsvText(table, separator);
  if (!out) {
    return Status::IOError(StrFormat("write to '%s' failed", path.c_str()));
  }
  return Status::OK();
}

Result<Dataset> MakeDataset(const DataTable& table,
                            const std::vector<std::string>& target_columns,
                            std::string dataset_name) {
  if (target_columns.empty()) {
    return Status::InvalidArgument("need at least one target column");
  }
  std::set<std::string> target_set(target_columns.begin(),
                                   target_columns.end());
  if (target_set.size() != target_columns.size()) {
    return Status::InvalidArgument("duplicate target column names");
  }

  Dataset dataset;
  dataset.name = std::move(dataset_name);
  dataset.target_names = target_columns;
  dataset.targets =
      linalg::Matrix(table.num_rows(), target_columns.size());
  for (size_t t = 0; t < target_columns.size(); ++t) {
    SISD_ASSIGN_OR_RETURN(col, table.ColumnByName(target_columns[t]));
    if (!IsOrderable(col->kind())) {
      return Status::InvalidArgument(
          StrFormat("target column '%s' must be numeric",
                    target_columns[t].c_str()));
    }
    for (size_t i = 0; i < table.num_rows(); ++i) {
      dataset.targets(i, t) = col->NumericValue(i);
    }
  }
  for (size_t j = 0; j < table.num_columns(); ++j) {
    const Column& col = table.column(j);
    if (target_set.count(col.name()) > 0) continue;
    SISD_RETURN_NOT_OK(dataset.descriptions.AddColumn(col));
  }
  SISD_RETURN_NOT_OK(dataset.Validate());
  return dataset;
}

}  // namespace sisd::data
