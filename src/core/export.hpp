/// \file export.hpp
/// \brief Exporting mining results to tabular form / CSV for external
/// analysis and plotting (the paper's figures were produced by plotting
/// exactly these series).

#ifndef SISD_CORE_EXPORT_HPP_
#define SISD_CORE_EXPORT_HPP_

#include <string>
#include <vector>

#include "common/status.hpp"
#include "core/session.hpp"
#include "data/table.hpp"

namespace sisd::core {

/// \brief Flattens a sequence of iteration results into a table with one
/// row per iteration: intention text, coverage, location IC/DL/SI, and
/// (when present) spread variance/IC/SI plus the direction rendered as
/// text. Ready for `data::WriteCsvFile`.
data::DataTable IterationSummaryTable(
    const std::vector<IterationResult>& history,
    const data::DataTable& descriptions,
    const std::vector<std::string>& target_names);

/// \brief Flattens one iteration's full ranked list (top-k subgroups by
/// SI) into a table: rank, intention, coverage, IC, DL, SI.
data::DataTable RankedListTable(const IterationResult& iteration,
                                const data::DataTable& descriptions);

/// \brief Writes the session's history (one row per completed iteration)
/// to a CSV file.
Status ExportHistoryCsv(const MiningSession& session,
                        const std::string& path);

}  // namespace sisd::core

#endif  // SISD_CORE_EXPORT_HPP_
