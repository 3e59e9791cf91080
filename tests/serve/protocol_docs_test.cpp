// docs/PROTOCOL.md stays in sync with the code: its verb headings are the
// verb table's names, and its `open` config table lists exactly the
// config table's protocol keys with their type, range and default. The
// document's path is injected by CMake via SISD_PROTOCOL_MD.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "core/config_table.hpp"
#include "serve/service.hpp"

#ifndef SISD_PROTOCOL_MD
#error "SISD_PROTOCOL_MD must be defined by the build system"
#endif

namespace sisd {
namespace {

std::vector<std::string> ReadLines() {
  std::ifstream in(SISD_PROTOCOL_MD);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// The text between the first pair of backticks in `text`.
std::string Quoted(const std::string& text) {
  const size_t open = text.find('`');
  const size_t close = text.find('`', open + 1);
  if (open == std::string::npos || close == std::string::npos) return "";
  return text.substr(open + 1, close - open - 1);
}

TEST(ProtocolDocsTest, VerbHeadingsMatchTheVerbTable) {
  const std::vector<std::string> lines = ReadLines();
  ASSERT_FALSE(lines.empty()) << "cannot read " << SISD_PROTOCOL_MD;
  std::vector<std::string> documented;
  bool in_verbs = false;
  for (const std::string& line : lines) {
    if (StartsWith(line, "## ")) in_verbs = line == "## Verbs";
    if (in_verbs && StartsWith(line, "### `")) {
      documented.push_back(Quoted(line));
    }
  }
  std::vector<std::string> verbs;
  for (std::string_view verb : serve::VerbNames()) verbs.emplace_back(verb);
  std::sort(documented.begin(), documented.end());
  std::sort(verbs.begin(), verbs.end());
  EXPECT_EQ(documented, verbs);
}

TEST(ProtocolDocsTest, OpenConfigTableMatchesTheConfigTable) {
  const std::vector<std::string> lines = ReadLines();
  ASSERT_FALSE(lines.empty()) << "cannot read " << SISD_PROTOCOL_MD;
  // Rows of the first table after the "**`config` keys.**" paragraph:
  // key, type, valid values, default (the meaning column is prose).
  std::vector<std::string> documented;
  bool in_section = false;
  bool in_table = false;
  for (const std::string& line : lines) {
    if (StartsWith(line, "**`config` keys.**")) in_section = true;
    if (!in_section) continue;
    if (!StartsWith(line, "|")) {
      if (in_table) break;
      continue;
    }
    in_table = true;
    const std::vector<std::string> cells = SplitString(line, '|');
    if (cells.size() < 5 || Quoted(cells[1]).empty()) continue;  // header
    documented.push_back(Quoted(cells[1]) + " | " +
                         std::string(TrimWhitespace(cells[2])) + " | " +
                         std::string(TrimWhitespace(cells[3])) + " | " +
                         std::string(TrimWhitespace(cells[4])));
  }
  std::vector<std::string> expected;
  for (const core::ConfigKey& key : core::ConfigKeys()) {
    if ((key.surfaces & core::kProtocolConfig) == 0) continue;
    expected.push_back(std::string(key.name) + " | " +
                       std::string(core::ConfigTypeName(key)) + " | " +
                       core::DescribeConfigRange(key) + " | " +
                       core::DescribeConfigDefault(key));
  }
  std::sort(documented.begin(), documented.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(documented, expected);
}

}  // namespace
}  // namespace sisd
