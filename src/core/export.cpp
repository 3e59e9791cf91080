#include "core/export.hpp"

#include <cmath>

#include "common/strings.hpp"
#include "data/csv.hpp"

namespace sisd::core {

namespace {

std::string DirectionToString(const linalg::Vector& w,
                              const std::vector<std::string>& target_names) {
  std::vector<std::string> parts;
  for (size_t t = 0; t < w.size(); ++t) {
    if (std::fabs(w[t]) > 1e-9) {
      parts.push_back(StrFormat("%s:%+.4f",
                                t < target_names.size()
                                    ? target_names[t].c_str()
                                    : StrFormat("y%zu", t).c_str(),
                                w[t]));
    }
  }
  return JoinStrings(parts, " ");
}

}  // namespace

data::DataTable IterationSummaryTable(
    const std::vector<IterationResult>& history,
    const data::DataTable& descriptions,
    const std::vector<std::string>& target_names) {
  std::vector<double> iteration, coverage, ic, dl, si;
  std::vector<double> spread_var, spread_ic, spread_si;
  std::vector<std::string> intention, direction;
  for (size_t k = 0; k < history.size(); ++k) {
    const IterationResult& it = history[k];
    iteration.push_back(double(k + 1));
    intention.push_back(
        it.location.pattern.subgroup.intention.ToString(descriptions));
    coverage.push_back(double(it.location.pattern.subgroup.Coverage()));
    ic.push_back(it.location.score.ic);
    dl.push_back(it.location.score.dl);
    si.push_back(it.location.score.si);
    if (it.spread.has_value()) {
      spread_var.push_back(it.spread->pattern.variance);
      spread_ic.push_back(it.spread->score.ic);
      spread_si.push_back(it.spread->score.si);
      direction.push_back(
          DirectionToString(it.spread->pattern.direction, target_names));
    } else {
      spread_var.push_back(0.0);
      spread_ic.push_back(0.0);
      spread_si.push_back(0.0);
      direction.push_back("");
    }
  }
  data::DataTable table;
  table.AddColumn(data::Column::Numeric("iteration", iteration)).CheckOK();
  table.AddColumn(
           data::Column::CategoricalFromStrings("intention", intention))
      .CheckOK();
  table.AddColumn(data::Column::Numeric("coverage", coverage)).CheckOK();
  table.AddColumn(data::Column::Numeric("location_ic", ic)).CheckOK();
  table.AddColumn(data::Column::Numeric("location_dl", dl)).CheckOK();
  table.AddColumn(data::Column::Numeric("location_si", si)).CheckOK();
  table.AddColumn(data::Column::Numeric("spread_variance", spread_var))
      .CheckOK();
  table.AddColumn(data::Column::Numeric("spread_ic", spread_ic)).CheckOK();
  table.AddColumn(data::Column::Numeric("spread_si", spread_si)).CheckOK();
  table.AddColumn(
           data::Column::CategoricalFromStrings("spread_direction",
                                                direction))
      .CheckOK();
  return table;
}

data::DataTable RankedListTable(const IterationResult& iteration,
                                const data::DataTable& descriptions) {
  std::vector<double> rank, coverage, ic, dl, si;
  std::vector<std::string> intention;
  for (size_t r = 0; r < iteration.ranked.size(); ++r) {
    const ScoredLocationPattern& entry = iteration.ranked[r];
    rank.push_back(double(r + 1));
    intention.push_back(
        entry.pattern.subgroup.intention.ToString(descriptions));
    coverage.push_back(double(entry.pattern.subgroup.Coverage()));
    ic.push_back(entry.score.ic);
    dl.push_back(entry.score.dl);
    si.push_back(entry.score.si);
  }
  data::DataTable table;
  table.AddColumn(data::Column::Numeric("rank", rank)).CheckOK();
  table.AddColumn(
           data::Column::CategoricalFromStrings("intention", intention))
      .CheckOK();
  table.AddColumn(data::Column::Numeric("coverage", coverage)).CheckOK();
  table.AddColumn(data::Column::Numeric("ic", ic)).CheckOK();
  table.AddColumn(data::Column::Numeric("dl", dl)).CheckOK();
  table.AddColumn(data::Column::Numeric("si", si)).CheckOK();
  return table;
}

Status ExportHistoryCsv(const MiningSession& session,
                        const std::string& path) {
  const data::DataTable table = IterationSummaryTable(
      session.history(), session.dataset().descriptions,
      session.dataset().target_names);
  return data::WriteCsvFile(table, path);
}

}  // namespace sisd::core
