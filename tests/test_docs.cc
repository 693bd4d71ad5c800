/**
 * @file
 * EXPERIMENTS.md quotes the checked-in bench baselines: every cell of
 * its Figure 2 table must equal BENCH_fig2_client_latency.json's value
 * rounded to the cell's own printed precision. Editing a cell, or
 * refreshing the baseline without the doc, fails here.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"

namespace remora {
namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** The fields of a Markdown table row, trimmed: "| a | b |" -> a, b. */
std::vector<std::string>
rowFields(const std::string &line)
{
    std::vector<std::string> fields;
    size_t start = line.find('|');
    while (start != std::string::npos) {
        size_t end = line.find('|', start + 1);
        if (end == std::string::npos) {
            break;
        }
        std::string f = line.substr(start + 1, end - start - 1);
        size_t lo = f.find_first_not_of(' ');
        size_t hi = f.find_last_not_of(' ');
        fields.push_back(lo == std::string::npos ? ""
                                                 : f.substr(lo, hi - lo + 1));
        start = end;
    }
    return fields;
}

/** One number in the Figure 2 table, as the doc prints it. */
struct Fig2Cell
{
    /** Baseline metric name, e.g. "GetAttribute.hy_ms". */
    std::string metric;
    std::string printed;
};

/**
 * The cells of the table under the "## Figure 2" heading: each row is
 * `| Operation | HY (ms) | DX (ms) | HY/DX |`.
 */
std::vector<Fig2Cell>
fig2Cells(std::string_view doc)
{
    static const char *const kColumns[] = {"hy_ms", "dx_ms", "hy_over_dx"};
    std::vector<Fig2Cell> cells;
    size_t at = doc.find("\n## Figure 2");
    if (at == std::string_view::npos) {
        return cells;
    }
    std::istringstream lines{std::string(doc.substr(at + 1))};
    std::string line;
    std::getline(lines, line); // the heading itself
    bool inTable = false;
    while (std::getline(lines, line)) {
        if (line.rfind("## ", 0) == 0) {
            break;
        }
        if (line.rfind("|", 0) != 0) {
            if (inTable) {
                break;
            }
            continue;
        }
        inTable = true;
        std::vector<std::string> fields = rowFields(line);
        if (fields.size() != 4 || fields[0] == "Operation" ||
            fields[0].rfind("---", 0) == 0) {
            continue;
        }
        for (size_t c = 0; c < 3; ++c) {
            cells.push_back({fields[0] + "." + kColumns[c], fields[1 + c]});
        }
    }
    return cells;
}

/** @p value printed with as many decimals as @p like shows. */
std::string
printedLike(double value, const std::string &like)
{
    size_t dot = like.find('.');
    int decimals =
        dot == std::string::npos ? 0 : static_cast<int>(like.size() - dot - 1);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    return buf;
}

/** "metric: doc X, baseline Y" for each cell that disagrees. */
std::vector<std::string>
fig2Mismatches(const std::vector<Fig2Cell> &cells,
               const util::JsonValue &report)
{
    std::vector<std::string> out;
    const util::JsonValue *metrics = report.find("metrics");
    for (const Fig2Cell &cell : cells) {
        const util::JsonValue *value = nullptr;
        for (const util::JsonValue &m : metrics->items()) {
            const util::JsonValue *name = m.find("name");
            if (name != nullptr && name->asString() == cell.metric) {
                value = m.find("value");
            }
        }
        if (value == nullptr) {
            out.push_back(cell.metric + ": not in the baseline");
            continue;
        }
        std::string want = printedLike(value->asNumber(), cell.printed);
        if (want != cell.printed) {
            out.push_back(cell.metric + ": doc " + cell.printed +
                          ", baseline " + want);
        }
    }
    return out;
}

struct Fig2Docs
{
    std::string doc = readFile(std::string(REMORA_SOURCE_DIR) +
                               "/EXPERIMENTS.md");
    util::JsonValue baseline =
        util::JsonValue::parse(
            readFile(std::string(REMORA_SOURCE_DIR) +
                     "/bench/baselines/BENCH_fig2_client_latency.json"))
            .value();
};

TEST(DocsFigure2, TableMatchesBaselineAtPrintedPrecision)
{
    Fig2Docs d;
    std::vector<Fig2Cell> cells = fig2Cells(d.doc);
    // Every metric of the bench has its cell: 12 operations x 3.
    EXPECT_EQ(cells.size(), d.baseline.find("metrics")->size());
    EXPECT_EQ(cells.size(), 36u);
    for (const std::string &m : fig2Mismatches(cells, d.baseline)) {
        ADD_FAILURE() << m;
    }
}

TEST(DocsFigure2, DriftedCellIsCaught)
{
    Fig2Docs d;
    std::string row = "| GetAttribute | 0.566 |";
    size_t at = d.doc.find(row);
    ASSERT_NE(at, std::string::npos);
    std::string drifted = d.doc;
    drifted.replace(at, row.size(), "| GetAttribute | 0.534 |");
    std::vector<std::string> bad =
        fig2Mismatches(fig2Cells(drifted), d.baseline);
    ASSERT_EQ(bad.size(), 1u);
    EXPECT_EQ(bad[0], "GetAttribute.hy_ms: doc 0.534, baseline 0.566");
}

} // namespace
} // namespace remora
