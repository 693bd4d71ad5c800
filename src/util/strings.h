/**
 * @file
 * Small string/formatting helpers shared by benches and reports.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace remora::util {

/** Render nanoseconds as a human-friendly "12.3 us" style string. */
std::string formatDuration(int64_t nanos);

/** Render a count with thousands separators, e.g. 28,860,744. */
std::string formatCount(uint64_t count);

/**
 * Parse all of @p text as a number from outside the program: unsigned
 * the way strtoull(text, _, 0) reads it (decimal, 0x hex, 0 octal),
 * floating point the way strtod does. Returns false, leaving @p out
 * untouched, when @p text is null or empty, starts with a space, has
 * anything after the number, or is out of range. An unsigned number
 * must start with a digit, so "-1" and "+1" are refused.
 */
bool parseNumber(const char *text, uint64_t &out);

/** @copydoc parseNumber(const char *, uint64_t &) */
bool parseNumber(const char *text, double &out);

/**
 * Fixed-width plain-text table builder for bench output.
 *
 * Collect rows with addRow(); render() right-aligns numeric-looking
 * columns and left-aligns the rest, matching the row/column layout the
 * paper's tables use.
 */
class TextTable
{
  public:
    /** Define the header row. */
    explicit TextTable(std::vector<std::string> header);

    /** Append a data row; must have the same arity as the header. */
    void addRow(std::vector<std::string> row);

    /** Append a horizontal separator before the next row. */
    void addSeparator();

    /** Render the table to a string, one row per line. */
    std::string render() const;

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_; // empty row == separator
};

} // namespace remora::util
