#include "pattern/condition.hpp"

#include <algorithm>

#include "common/strings.hpp"

namespace sisd::pattern {

const char* ConditionOpToString(ConditionOp op) {
  switch (op) {
    case ConditionOp::kLessEqual:
      return "<=";
    case ConditionOp::kGreaterEqual:
      return ">=";
    case ConditionOp::kEquals:
      return "=";
    case ConditionOp::kNotEquals:
      return "!=";
  }
  return "?";
}

Condition Condition::LessEqual(size_t attribute, double threshold) {
  Condition c;
  c.attribute = attribute;
  c.op = ConditionOp::kLessEqual;
  c.threshold = threshold;
  return c;
}

Condition Condition::GreaterEqual(size_t attribute, double threshold) {
  Condition c;
  c.attribute = attribute;
  c.op = ConditionOp::kGreaterEqual;
  c.threshold = threshold;
  return c;
}

Condition Condition::Equals(size_t attribute, int32_t level) {
  Condition c;
  c.attribute = attribute;
  c.op = ConditionOp::kEquals;
  c.level = level;
  return c;
}

Condition Condition::NotEquals(size_t attribute, int32_t level) {
  Condition c;
  c.attribute = attribute;
  c.op = ConditionOp::kNotEquals;
  c.level = level;
  return c;
}

bool Condition::Matches(const data::DataTable& table, size_t i) const {
  const data::Column& col = table.column(attribute);
  switch (op) {
    case ConditionOp::kLessEqual:
      return col.NumericValue(i) <= threshold;
    case ConditionOp::kGreaterEqual:
      return col.NumericValue(i) >= threshold;
    case ConditionOp::kEquals:
      return col.Code(i) == level;
    case ConditionOp::kNotEquals:
      return col.Code(i) != level;
  }
  return false;
}

Extension Condition::Evaluate(const data::DataTable& table) const {
  Extension out(table.num_rows());
  EvaluateInto(table, 0, &out);
  return out;
}

void Condition::EvaluateInto(const data::DataTable& table, size_t from,
                             Extension* out) const {
  SISD_CHECK(out != nullptr);
  SISD_CHECK(out->universe_size() == table.num_rows());
  const data::Column& col = table.column(attribute);
  switch (op) {
    case ConditionOp::kLessEqual:
      col.ForEachNumericRun(from, [&](size_t first, auto run) {
        out->InsertWhere(first, run, [t = threshold](double v) {
          return v <= t;
        });
      });
      break;
    case ConditionOp::kGreaterEqual:
      col.ForEachNumericRun(from, [&](size_t first, auto run) {
        out->InsertWhere(first, run, [t = threshold](double v) {
          return v >= t;
        });
      });
      break;
    case ConditionOp::kEquals:
      col.ForEachCodeRun(from, [&](size_t first, auto run) {
        out->InsertWhere(first, run, [l = level](int32_t code) {
          return code == l;
        });
      });
      break;
    case ConditionOp::kNotEquals:
      col.ForEachCodeRun(from, [&](size_t first, auto run) {
        out->InsertWhere(first, run, [l = level](int32_t code) {
          return code != l;
        });
      });
      break;
  }
  out->DebugCheckTailMasked();
}

std::string Condition::ToString(const data::DataTable& table) const {
  const data::Column& col = table.column(attribute);
  if (op == ConditionOp::kEquals || op == ConditionOp::kNotEquals) {
    return StrFormat("%s %s '%s'", col.name().c_str(),
                     ConditionOpToString(op), col.Label(level).c_str());
  }
  return StrFormat("%s %s %.4g", col.name().c_str(), ConditionOpToString(op),
                   threshold);
}

std::string Condition::Signature() const {
  if (op == ConditionOp::kEquals || op == ConditionOp::kNotEquals) {
    return StrFormat("%zu%s%d", attribute, ConditionOpToString(op), level);
  }
  return StrFormat("%zu%s%.17g", attribute, ConditionOpToString(op),
                   threshold);
}

bool Condition::operator==(const Condition& other) const {
  if (attribute != other.attribute || op != other.op) return false;
  if (op == ConditionOp::kEquals || op == ConditionOp::kNotEquals) {
    return level == other.level;
  }
  return threshold == other.threshold;
}

Intention Intention::Extended(const Condition& condition) const {
  std::vector<Condition> conditions = conditions_;
  conditions.push_back(condition);
  return Intention(std::move(conditions));
}

bool Intention::ConstrainsAttributeOp(size_t attribute,
                                      ConditionOp op) const {
  for (const Condition& c : conditions_) {
    if (c.attribute == attribute && c.op == op) return true;
  }
  return false;
}

bool Intention::ConstrainsAttribute(size_t attribute) const {
  for (const Condition& c : conditions_) {
    if (c.attribute == attribute) return true;
  }
  return false;
}

bool Intention::AllowsRefinementWith(const Condition& condition) const {
  switch (condition.op) {
    case ConditionOp::kLessEqual:
    case ConditionOp::kGreaterEqual:
      return !ConstrainsAttributeOp(condition.attribute, condition.op);
    case ConditionOp::kEquals:
      return !ConstrainsAttribute(condition.attribute);
    case ConditionOp::kNotEquals:
      for (const Condition& c : conditions_) {
        if (c.attribute != condition.attribute) continue;
        if (c.op == ConditionOp::kEquals) return false;  // redundant
        if (c.op == ConditionOp::kNotEquals && c.level == condition.level) {
          return false;  // duplicate exclusion
        }
      }
      return true;
  }
  return false;
}

Extension Intention::Evaluate(const data::DataTable& table) const {
  Extension out(table.num_rows(), /*full=*/true);
  for (const Condition& c : conditions_) {
    out.IntersectWith(c.Evaluate(table));
  }
  return out;
}

std::string Intention::ToString(const data::DataTable& table) const {
  if (conditions_.empty()) return "<all rows>";
  std::vector<std::string> parts;
  parts.reserve(conditions_.size());
  for (const Condition& c : conditions_) {
    parts.push_back(c.ToString(table));
  }
  return JoinStrings(parts, " AND ");
}

std::string Intention::CanonicalSignature() const {
  std::vector<std::string> signatures;
  signatures.reserve(conditions_.size());
  for (const Condition& c : conditions_) signatures.push_back(c.Signature());
  std::sort(signatures.begin(), signatures.end());
  return JoinStrings(signatures, "&");
}

}  // namespace sisd::pattern
