#include "util/strings.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/panic.h"
#include "util/status.h"

namespace remora::util {

const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
      case ErrorCode::kOk: return "ok";
      case ErrorCode::kBadDescriptor: return "bad_descriptor";
      case ErrorCode::kStaleGeneration: return "stale_generation";
      case ErrorCode::kOutOfBounds: return "out_of_bounds";
      case ErrorCode::kAccessDenied: return "access_denied";
      case ErrorCode::kNotFound: return "not_found";
      case ErrorCode::kAlreadyExists: return "already_exists";
      case ErrorCode::kMalformed: return "malformed";
      case ErrorCode::kTimeout: return "timeout";
      case ErrorCode::kResource: return "resource";
      case ErrorCode::kInvalidArgument: return "invalid_argument";
      case ErrorCode::kInternal: return "internal";
    }
    return "unknown";
}

std::string
Status::toString() const
{
    if (ok()) {
        return "ok";
    }
    std::string s = errorCodeName(code_);
    if (!message_.empty()) {
        s += ": ";
        s += message_;
    }
    return s;
}

std::string
formatDuration(int64_t nanos)
{
    char buf[64];
    double v = static_cast<double>(nanos);
    if (nanos < 1000) {
        std::snprintf(buf, sizeof(buf), "%lld ns", static_cast<long long>(nanos));
    } else if (nanos < 1000 * 1000) {
        std::snprintf(buf, sizeof(buf), "%.1f us", v / 1e3);
    } else if (nanos < 1000ll * 1000 * 1000) {
        std::snprintf(buf, sizeof(buf), "%.2f ms", v / 1e6);
    } else {
        std::snprintf(buf, sizeof(buf), "%.3f s", v / 1e9);
    }
    return buf;
}

std::string
formatCount(uint64_t count)
{
    std::string digits = std::to_string(count);
    std::string out;
    int pos = 0;
    for (auto it = digits.rbegin(); it != digits.rend(); ++it, ++pos) {
        if (pos > 0 && pos % 3 == 0) {
            out.push_back(',');
        }
        out.push_back(*it);
    }
    std::reverse(out.begin(), out.end());
    return out;
}

namespace {

/**
 * parseNumber's shared rules around one strto* call. Leading space is
 * refused here because strto* would skip it.
 */
template <typename T, typename Parse>
bool
parseWhole(const char *text, T &out, Parse parse)
{
    if (text == nullptr || *text == '\0' ||
        std::isspace(static_cast<unsigned char>(*text)) != 0) {
        return false;
    }
    char *end = nullptr;
    errno = 0;
    T value = parse(text, &end);
    if (*end != '\0' || errno == ERANGE) {
        return false;
    }
    out = value;
    return true;
}

} // namespace

bool
parseNumber(const char *text, uint64_t &out)
{
    // strtoull would negate a leading '-', turning "-1" into 2^64 - 1.
    if (text != nullptr &&
        std::isdigit(static_cast<unsigned char>(*text)) == 0) {
        return false;
    }
    return parseWhole(text, out, [](const char *s, char **end) {
        return std::strtoull(s, end, 0);
    });
}

bool
parseNumber(const char *text, double &out)
{
    return parseWhole(text, out, [](const char *s, char **end) {
        return std::strtod(s, end);
    });
}

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header))
{}

void
TextTable::addRow(std::vector<std::string> row)
{
    REMORA_ASSERT(row.size() == header_.size());
    rows_.push_back(std::move(row));
}

void
TextTable::addSeparator()
{
    rows_.emplace_back(); // empty row marks a separator
}

namespace {

/** Heuristic: treat a cell as numeric if it starts with digit/sign/dot. */
bool
looksNumeric(const std::string &s)
{
    if (s.empty()) {
        return false;
    }
    char c = s[0];
    return std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
           c == '+' || c == '.';
}

} // namespace

std::string
TextTable::render() const
{
    std::vector<size_t> widths(header_.size());
    std::vector<bool> numeric(header_.size(), true);
    for (size_t i = 0; i < header_.size(); ++i) {
        widths[i] = header_[i].size();
    }
    for (const auto &row : rows_) {
        if (row.empty()) {
            continue;
        }
        for (size_t i = 0; i < row.size(); ++i) {
            widths[i] = std::max(widths[i], row[i].size());
            if (!row[i].empty() && !looksNumeric(row[i])) {
                numeric[i] = false;
            }
        }
    }

    std::ostringstream out;
    auto emitRow = [&](const std::vector<std::string> &row, bool is_header) {
        for (size_t i = 0; i < row.size(); ++i) {
            if (i > 0) {
                out << "  ";
            }
            const std::string &cell = row[i];
            size_t pad = widths[i] - cell.size();
            bool right = numeric[i] && !is_header;
            if (right) {
                out << std::string(pad, ' ') << cell;
            } else {
                out << cell << std::string(pad, ' ');
            }
        }
        out << '\n';
    };

    emitRow(header_, true);
    size_t total = 0;
    for (size_t w : widths) {
        total += w;
    }
    total += 2 * (widths.size() - 1);
    out << std::string(total, '-') << '\n';
    for (const auto &row : rows_) {
        if (row.empty()) {
            out << std::string(total, '-') << '\n';
        } else {
            emitRow(row, false);
        }
    }
    return out.str();
}

} // namespace remora::util
