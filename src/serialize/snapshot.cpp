#include "serialize/snapshot.hpp"

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/strings.hpp"

namespace sisd::serialize {

namespace {

Result<size_t> GetSizeField(const JsonValue& json, const char* key) {
  SISD_ASSIGN_OR_RETURN(field, json.Get(key));
  return field->GetSize();
}

Result<std::string> GetStringField(const JsonValue& json, const char* key) {
  SISD_ASSIGN_OR_RETURN(field, json.Get(key));
  return field->GetString();
}

}  // namespace

JsonValue EncodeVector(const linalg::Vector& v) {
  JsonValue out = JsonValue::Array();
  for (size_t i = 0; i < v.size(); ++i) out.Append(JsonValue::Double(v[i]));
  return out;
}

Result<linalg::Vector> DecodeVector(const JsonValue& json) {
  if (!json.is_array()) {
    return Status::InvalidArgument("vector must be a JSON array");
  }
  linalg::Vector out(json.size());
  for (size_t i = 0; i < json.size(); ++i) {
    SISD_ASSIGN_OR_RETURN(entry, json.items()[i].GetDouble());
    out[i] = entry;
  }
  return out;
}

JsonValue EncodeMatrix(const linalg::Matrix& m) {
  JsonValue out = JsonValue::Object();
  out.Set("rows", JsonValue::Int(int64_t(m.rows())));
  out.Set("cols", JsonValue::Int(int64_t(m.cols())));
  JsonValue data = JsonValue::Array();
  for (size_t r = 0; r < m.rows(); ++r) {
    const double* row = m.RowData(r);
    for (size_t c = 0; c < m.cols(); ++c) {
      data.Append(JsonValue::Double(row[c]));
    }
  }
  out.Set("data", std::move(data));
  return out;
}

Result<linalg::Matrix> DecodeMatrix(const JsonValue& json) {
  SISD_ASSIGN_OR_RETURN(rows, GetSizeField(json, "rows"));
  SISD_ASSIGN_OR_RETURN(cols, GetSizeField(json, "cols"));
  SISD_ASSIGN_OR_RETURN(data, json.Get("data"));
  // Guard the shape check against size_t overflow in `rows * cols`
  // (hostile shapes like 2^32 x 2^32 must fail cleanly, not wrap to 0 and
  // read out of bounds), and only allocate after the element count is
  // known to match the actual array length.
  if (!data->is_array() ||
      (rows != 0 && (data->size() / rows != cols ||
                     data->size() % rows != 0)) ||
      (rows == 0 && data->size() != 0)) {
    return Status::InvalidArgument("matrix data length disagrees with shape");
  }
  linalg::Matrix out(rows, cols);
  size_t k = 0;
  for (size_t r = 0; r < rows; ++r) {
    double* row = out.RowData(r);
    for (size_t c = 0; c < cols; ++c, ++k) {
      SISD_ASSIGN_OR_RETURN(entry, data->items()[k].GetDouble());
      row[c] = entry;
    }
  }
  return out;
}

JsonValue EncodeExtension(const pattern::Extension& extension) {
  JsonValue out = JsonValue::Object();
  out.Set("n", JsonValue::Int(int64_t(extension.universe_size())));
  std::string hex;
  hex.reserve(extension.blocks().size() * 16);
  char buf[17];
  for (uint64_t block : extension.blocks()) {
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(block));
    hex.append(buf, 16);
  }
  out.Set("blocks", JsonValue::Str(std::move(hex)));
  return out;
}

namespace {

const char* ConditionOpName(pattern::ConditionOp op) {
  switch (op) {
    case pattern::ConditionOp::kLessEqual:
      return "le";
    case pattern::ConditionOp::kGreaterEqual:
      return "ge";
    case pattern::ConditionOp::kEquals:
      return "eq";
    case pattern::ConditionOp::kNotEquals:
      return "ne";
  }
  return "?";
}

Result<pattern::ConditionOp> ConditionOpFromName(const std::string& name) {
  if (name == "le") return pattern::ConditionOp::kLessEqual;
  if (name == "ge") return pattern::ConditionOp::kGreaterEqual;
  if (name == "eq") return pattern::ConditionOp::kEquals;
  if (name == "ne") return pattern::ConditionOp::kNotEquals;
  return Status::InvalidArgument("unknown condition op '" + name + "'");
}

}  // namespace

JsonValue EncodeCondition(const pattern::Condition& condition) {
  JsonValue out = JsonValue::Object();
  out.Set("attribute", JsonValue::Int(int64_t(condition.attribute)));
  out.Set("op", JsonValue::Str(ConditionOpName(condition.op)));
  out.Set("threshold", JsonValue::Double(condition.threshold));
  out.Set("level", JsonValue::Int(condition.level));
  return out;
}

Result<pattern::Condition> DecodeCondition(const JsonValue& json) {
  pattern::Condition out;
  SISD_RETURN_NOT_OK(ReadField(json, "attribute", &out.attribute));
  SISD_ASSIGN_OR_RETURN(op_name, GetStringField(json, "op"));
  SISD_ASSIGN_OR_RETURN(op, ConditionOpFromName(op_name));
  out.op = op;
  SISD_RETURN_NOT_OK(ReadField(json, "threshold", &out.threshold));
  SISD_RETURN_NOT_OK(ReadField(json, "level", &out.level));
  return out;
}

JsonValue EncodeIntention(const pattern::Intention& intention) {
  JsonValue out = JsonValue::Array();
  for (const pattern::Condition& c : intention.conditions()) {
    out.Append(EncodeCondition(c));
  }
  return out;
}

Result<pattern::Intention> DecodeIntention(const JsonValue& json) {
  if (!json.is_array()) {
    return Status::InvalidArgument("intention must be a JSON array");
  }
  std::vector<pattern::Condition> conditions;
  conditions.reserve(json.size());
  for (const JsonValue& entry : json.items()) {
    SISD_ASSIGN_OR_RETURN(condition, DecodeCondition(entry));
    conditions.push_back(condition);
  }
  return pattern::Intention(std::move(conditions));
}

Result<data::Column> DecodeColumn(const JsonValue& json) {
  SISD_ASSIGN_OR_RETURN(name, GetStringField(json, "name"));
  SISD_ASSIGN_OR_RETURN(kind, GetStringField(json, "kind"));
  if (kind == "numeric" || kind == "ordinal") {
    SISD_ASSIGN_OR_RETURN(values_json, json.Get("values"));
    SISD_ASSIGN_OR_RETURN(values, DecodeVector(*values_json));
    std::vector<double> raw(values.values());
    return kind == "numeric"
               ? data::Column::Numeric(std::move(name), std::move(raw))
               : data::Column::Ordinal(std::move(name), std::move(raw));
  }
  if (kind != "categorical" && kind != "binary") {
    return Status::InvalidArgument("unknown column kind '" + kind + "'");
  }
  SISD_ASSIGN_OR_RETURN(codes_json, json.Get("codes"));
  if (!codes_json->is_array()) {
    return Status::InvalidArgument("column codes must be an array");
  }
  std::vector<int32_t> codes;
  codes.reserve(codes_json->size());
  for (const JsonValue& entry : codes_json->items()) {
    SISD_ASSIGN_OR_RETURN(code, entry.GetInt());
    codes.push_back(int32_t(code));
  }
  SISD_ASSIGN_OR_RETURN(labels_json, json.Get("labels"));
  if (!labels_json->is_array()) {
    return Status::InvalidArgument("column labels must be an array");
  }
  std::vector<std::string> labels;
  labels.reserve(labels_json->size());
  for (const JsonValue& entry : labels_json->items()) {
    SISD_ASSIGN_OR_RETURN(label, entry.GetString());
    labels.push_back(std::move(label));
  }
  for (int32_t code : codes) {
    if (code < 0 || size_t(code) >= labels.size()) {
      return Status::InvalidArgument(
          StrFormat("column '%s' has code %d outside its label table",
                    name.c_str(), code));
    }
  }
  if (kind == "binary") {
    if (labels.size() != 2) {
      return Status::InvalidArgument(
          StrFormat("binary column '%s' needs exactly 2 labels, has %zu",
                    name.c_str(), labels.size()));
    }
    std::vector<bool> bools(codes.size());
    for (size_t i = 0; i < codes.size(); ++i) bools[i] = codes[i] != 0;
    return data::Column::Binary(std::move(name), bools, std::move(labels[0]),
                                std::move(labels[1]));
  }
  return data::Column::Categorical(std::move(name), std::move(codes),
                                   std::move(labels));
}

Result<data::DataTable> DecodeDataTable(const JsonValue& json) {
  SISD_ASSIGN_OR_RETURN(columns, json.Get("columns"));
  if (!columns->is_array()) {
    return Status::InvalidArgument("table columns must be an array");
  }
  data::DataTable out;
  for (const JsonValue& entry : columns->items()) {
    SISD_ASSIGN_OR_RETURN(column, DecodeColumn(entry));
    SISD_RETURN_NOT_OK(out.AddColumn(std::move(column)));
  }
  return out;
}

namespace {

const char* ColumnKindName(data::AttributeKind kind) {
  switch (kind) {
    case data::AttributeKind::kNumeric:
      return "numeric";
    case data::AttributeKind::kOrdinal:
      return "ordinal";
    case data::AttributeKind::kCategorical:
      return "categorical";
    case data::AttributeKind::kBinary:
      return "binary";
  }
  return "?";
}

/// Same text under the writer: equal bits, or NaNs of any payload.
bool SameEncodedDouble(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b) ||
         (std::isnan(a) && std::isnan(b));
}

}  // namespace

void StreamDataset(const data::Dataset& dataset, const ChunkSink& sink) {
  JsonChunkWriter out(sink);
  out.Raw("{\"name\":");
  out.String(dataset.name);
  out.Raw(",\"target_names\":[");
  for (size_t t = 0; t < dataset.target_names.size(); ++t) {
    if (t > 0) out.Raw(",");
    out.String(dataset.target_names[t]);
  }
  // The targets matrix, laid out as `EncodeMatrix` lays out any matrix.
  const linalg::Matrix& targets = dataset.targets;
  out.Raw("],\"targets\":{\"rows\":");
  out.Int(int64_t(targets.rows()));
  out.Raw(",\"cols\":");
  out.Int(int64_t(targets.cols()));
  out.Raw(",\"data\":[");
  for (size_t r = 0; r < targets.rows(); ++r) {
    const double* row = targets.RowData(r);
    for (size_t c = 0; c < targets.cols(); ++c) {
      if (r > 0 || c > 0) out.Raw(",");
      out.Double(row[c]);
    }
  }
  out.Raw("]},\"descriptions\":{\"columns\":[");
  for (size_t j = 0; j < dataset.num_descriptions(); ++j) {
    const data::Column& column = dataset.descriptions.column(j);
    out.Raw(j > 0 ? ",{\"name\":" : "{\"name\":");
    out.String(column.name());
    out.Raw(",\"kind\":\"");
    out.Raw(ColumnKindName(column.kind()));
    if (data::IsOrderable(column.kind())) {
      out.Raw("\",\"values\":[");
      column.ForEachNumeric(0, [&out](size_t row, double value) {
        if (row > 0) out.Raw(",");
        out.Double(value);
      });
    } else {
      out.Raw("\",\"codes\":[");
      column.ForEachCode(0, [&out](size_t row, int32_t code) {
        if (row > 0) out.Raw(",");
        out.Int(code);
      });
      out.Raw("],\"labels\":[");
      for (size_t k = 0; k < column.labels().size(); ++k) {
        if (k > 0) out.Raw(",");
        out.String(column.labels()[k]);
      }
    }
    out.Raw("]}");
  }
  out.Raw("]}}");
  out.Flush();
}

std::string EncodeDatasetText(const data::Dataset& dataset) {
  std::string text;
  StreamDataset(dataset,
                [&text](std::string_view chunk) { text.append(chunk); });
  return text;
}

bool SameDatasetEncoding(const data::Dataset& a, const data::Dataset& b) {
  if (a.name != b.name || a.target_names != b.target_names ||
      a.targets.rows() != b.targets.rows() ||
      a.targets.cols() != b.targets.cols() ||
      a.num_descriptions() != b.num_descriptions()) {
    return false;
  }
  for (size_t r = 0; r < a.targets.rows(); ++r) {
    const double* row_a = a.targets.RowData(r);
    const double* row_b = b.targets.RowData(r);
    for (size_t c = 0; c < a.targets.cols(); ++c) {
      if (!SameEncodedDouble(row_a[c], row_b[c])) return false;
    }
  }
  for (size_t j = 0; j < a.num_descriptions(); ++j) {
    const data::Column& ca = a.descriptions.column(j);
    const data::Column& cb = b.descriptions.column(j);
    if (ca.name() != cb.name() || ca.kind() != cb.kind() ||
        ca.size() != cb.size()) {
      return false;
    }
    bool same = true;
    if (data::IsOrderable(ca.kind())) {
      ca.ForEachNumeric(0, [&](size_t row, double value) {
        same = same && SameEncodedDouble(value, cb.NumericValue(row));
      });
    } else {
      ca.ForEachCode(0, [&](size_t row, int32_t code) {
        same = same && code == cb.Code(row);
      });
      same = same && ca.labels() == cb.labels();
    }
    if (!same) return false;
  }
  return true;
}

Result<data::Dataset> DecodeDataset(const JsonValue& json) {
  data::Dataset out;
  SISD_ASSIGN_OR_RETURN(name, GetStringField(json, "name"));
  out.name = std::move(name);
  SISD_ASSIGN_OR_RETURN(target_names, json.Get("target_names"));
  if (!target_names->is_array()) {
    return Status::InvalidArgument("target_names must be an array");
  }
  for (const JsonValue& entry : target_names->items()) {
    SISD_ASSIGN_OR_RETURN(target_name, entry.GetString());
    out.target_names.push_back(std::move(target_name));
  }
  SISD_ASSIGN_OR_RETURN(targets_json, json.Get("targets"));
  SISD_ASSIGN_OR_RETURN(targets, DecodeMatrix(*targets_json));
  out.targets = std::move(targets);
  SISD_ASSIGN_OR_RETURN(descriptions_json, json.Get("descriptions"));
  SISD_ASSIGN_OR_RETURN(descriptions, DecodeDataTable(*descriptions_json));
  out.descriptions = std::move(descriptions);
  SISD_RETURN_NOT_OK(out.Validate());
  return out;
}

namespace {

JsonValue EncodeBackgroundModel(const model::BackgroundModel& m) {
  JsonValue out = JsonValue::Object();
  out.Set("num_rows", JsonValue::Int(int64_t(m.num_rows())));
  out.Set("dim", JsonValue::Int(int64_t(m.dim())));
  JsonValue groups = JsonValue::Array();
  for (size_t g = 0; g < m.num_groups(); ++g) {
    const model::ParameterGroup& group = m.group(g);
    JsonValue entry = JsonValue::Object();
    entry.Set("mu", EncodeVector(group.mu));
    entry.Set("sigma", EncodeMatrix(group.sigma));
    entry.Set("rows", EncodeExtension(group.rows));
    groups.Append(std::move(entry));
  }
  out.Set("groups", std::move(groups));
  return out;
}

JsonValue EncodeConstraint(const model::AssimilatedConstraint& constraint) {
  JsonValue out = JsonValue::Object();
  const bool is_location =
      constraint.kind == model::AssimilatedConstraint::Kind::kLocation;
  out.Set("kind", JsonValue::Str(is_location ? "location" : "spread"));
  out.Set("extension", EncodeExtension(constraint.extension));
  out.Set("mean", EncodeVector(constraint.mean));
  out.Set("direction", is_location ? JsonValue::Null()
                                   : EncodeVector(constraint.direction));
  out.Set("variance", JsonValue::Double(constraint.variance));
  return out;
}

}  // namespace

JsonValue EncodeAssimilator(const model::PatternAssimilator& assimilator) {
  JsonValue out = JsonValue::Object();
  out.Set("initial_model",
          EncodeBackgroundModel(assimilator.initial_model()));
  out.Set("model", EncodeBackgroundModel(assimilator.model()));
  JsonValue constraints = JsonValue::Array();
  for (const model::AssimilatedConstraint& c : assimilator.constraints()) {
    constraints.Append(EncodeConstraint(c));
  }
  out.Set("constraints", std::move(constraints));
  return out;
}

}  // namespace sisd::serialize
