#include "source_model.h"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace remora::lint {

namespace {

/** clang-tidy check names accepted as NOLINT aliases for each rule. */
const char *const kRefParamAliases[] = {
    "cppcoreguidelines-avoid-reference-coroutine-parameters",
};
const char *const kNondetAliases[] = {
    "cert-msc50-cpp",
    "cert-msc51-cpp",
};
const char *const kRefCaptureAliases[] = {
    "cppcoreguidelines-avoid-capturing-lambda-coroutines",
};
const char *const kDetachedAliases[] = {
    "bugprone-unused-return-value",
};
const char *const kVectorStatusAliases[] = {
    "bugprone-unused-return-value",
};

/** Parse one NOLINT/NOLINTNEXTLINE occurrence inside a comment. */
void
harvestNolint(std::string_view comment, int line, SourceModel &out)
{
    size_t pos = 0;
    while ((pos = comment.find("NOLINT", pos)) != std::string_view::npos) {
        size_t cur = pos + 6;
        int target = line;
        if (comment.compare(pos, 14, "NOLINTNEXTLINE") == 0) {
            cur = pos + 14;
            target = line + 1;
        }
        std::set<std::string> checks; // empty == suppress everything
        if (cur < comment.size() && comment[cur] == '(') {
            size_t close = comment.find(')', cur);
            if (close != std::string_view::npos) {
                std::string list(comment.substr(cur + 1, close - cur - 1));
                std::string item;
                std::istringstream ss(list);
                while (std::getline(ss, item, ',')) {
                    item.erase(std::remove_if(item.begin(), item.end(),
                                              [](char c) {
                                                  return std::isspace(
                                                      static_cast<
                                                          unsigned char>(c));
                                              }),
                               item.end());
                    if (!item.empty()) {
                        checks.insert(item);
                    }
                }
                cur = close + 1;
            }
        }
        auto &slot = out.lineSupp[target];
        if (checks.empty()) {
            slot.clear();
            slot.insert("*");
        } else if (slot.find("*") == slot.end()) {
            slot.insert(checks.begin(), checks.end());
        }
        pos = cur;
    }
}

/** True when the text of @p line so far is just "#include" (plus space). */
bool
lineIsIncludeDirective(const std::string &text, size_t stringStart)
{
    size_t lineStart = text.rfind('\n', stringStart);
    lineStart = lineStart == std::string::npos ? 0 : lineStart + 1;
    std::string prefix = text.substr(lineStart, stringStart - lineStart);
    prefix.erase(std::remove_if(prefix.begin(), prefix.end(),
                                [](char c) {
                                    return std::isspace(
                                        static_cast<unsigned char>(c));
                                }),
                 prefix.end());
    return prefix == "#include" || prefix == "#include_next";
}

void
scrub(std::string_view src, SourceModel &out)
{
    out.text.assign(src.begin(), src.end());
    std::string &t = out.text;
    int line = 1;
    size_t i = 0;
    auto blank = [&t](size_t from, size_t to) {
        for (size_t k = from; k < to && k < t.size(); ++k) {
            if (t[k] != '\n') {
                t[k] = ' ';
            }
        }
    };
    while (i < t.size()) {
        char c = t[i];
        if (c == '\n') {
            ++line;
            ++i;
        } else if (c == '/' && i + 1 < t.size() && t[i + 1] == '/') {
            size_t end = t.find('\n', i);
            end = end == std::string::npos ? t.size() : end;
            harvestNolint(std::string_view(t).substr(i, end - i), line, out);
            blank(i, end);
            i = end;
        } else if (c == '/' && i + 1 < t.size() && t[i + 1] == '*') {
            size_t end = t.find("*/", i + 2);
            end = end == std::string::npos ? t.size() : end + 2;
            // Block comments suppress relative to their starting line.
            harvestNolint(std::string_view(t).substr(i, end - i), line, out);
            for (size_t k = i; k < end; ++k) {
                if (t[k] == '\n') {
                    ++line;
                }
            }
            blank(i, end);
            i = end;
        } else if (c == 'R' && i + 1 < t.size() && t[i + 1] == '"') {
            // Raw string literal: R"delim( ... )delim".
            size_t open = t.find('(', i + 2);
            if (open == std::string::npos) {
                ++i;
                continue;
            }
            std::string delim = ")" + t.substr(i + 2, open - i - 2) + "\"";
            size_t end = t.find(delim, open + 1);
            end = end == std::string::npos ? t.size() : end + delim.size();
            for (size_t k = i; k < end; ++k) {
                if (t[k] == '\n') {
                    ++line;
                }
            }
            blank(i, end);
            i = end;
        } else if (c == '"') {
            size_t start = i;
            size_t j = i + 1;
            while (j < t.size() && t[j] != '"' && t[j] != '\n') {
                if (t[j] == '\\') {
                    ++j;
                }
                ++j;
            }
            j = j < t.size() ? j + 1 : j;
            if (!lineIsIncludeDirective(t, start)) {
                blank(start + 1, j - 1);
            }
            i = j;
        } else if (c == '\'') {
            size_t j = i + 1;
            while (j < t.size() && t[j] != '\'' && t[j] != '\n') {
                if (t[j] == '\\') {
                    ++j;
                }
                ++j;
            }
            j = j < t.size() ? j + 1 : j;
            blank(i + 1, j - 1);
            i = j;
        } else {
            ++i;
        }
    }
}

std::vector<Token>
tokenize(const std::string &text)
{
    std::vector<Token> toks;
    int line = 1;
    size_t i = 0;
    while (i < text.size()) {
        char c = text[i];
        if (c == '\n') {
            ++line;
            ++i;
        } else if (std::isspace(static_cast<unsigned char>(c)) != 0) {
            ++i;
        } else if (isIdentChar(c) &&
                   std::isdigit(static_cast<unsigned char>(c)) == 0) {
            size_t j = i;
            while (j < text.size() && isIdentChar(text[j])) {
                ++j;
            }
            toks.push_back({Token::Kind::kIdent, text.substr(i, j - i), line});
            i = j;
        } else if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
            // Numbers (incl. hex/suffixes) collapse to one token.
            size_t j = i;
            while (j < text.size() &&
                   (isIdentChar(text[j]) || text[j] == '.' ||
                    ((text[j] == '+' || text[j] == '-') && j > i &&
                     (text[j - 1] == 'e' || text[j - 1] == 'E')))) {
                ++j;
            }
            toks.push_back({Token::Kind::kIdent, text.substr(i, j - i), line});
            i = j;
        } else {
            // Multi-char puncts that matter to the passes; the rest lex
            // as single characters.
            static const char *const kCompound[] = {"::", "->", "<<", ">>"};
            std::string tok(1, c);
            for (const char *p : kCompound) {
                if (text.compare(i, 2, p) == 0) {
                    tok = p;
                    break;
                }
            }
            toks.push_back({Token::Kind::kPunct, tok, line});
            i += tok.size();
        }
    }
    return toks;
}

} // namespace

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

SourceModel
buildSourceModel(std::string_view src)
{
    SourceModel model;
    scrub(src, model);
    model.tokens = tokenize(model.text);
    return model;
}

bool
suppressedAt(const SourceModel &model, int line, Rule rule)
{
    auto it = model.lineSupp.find(line);
    if (it == model.lineSupp.end()) {
        return false;
    }
    const std::set<std::string> &checks = it->second;
    if (checks.count("*") != 0 || checks.count(ruleName(rule)) != 0) {
        return true;
    }
    auto any = [&checks](const char *const *aliases, size_t n) {
        for (size_t i = 0; i < n; ++i) {
            if (checks.count(aliases[i]) != 0) {
                return true;
            }
        }
        return false;
    };
    if (rule == Rule::kCoroutineRefParam ||
        rule == Rule::kCoroutinePtrParam) {
        return any(kRefParamAliases, std::size(kRefParamAliases));
    }
    if (rule == Rule::kNondeterminism) {
        return any(kNondetAliases, std::size(kNondetAliases));
    }
    if (rule == Rule::kRefCaptureDeferred) {
        return any(kRefCaptureAliases, std::size(kRefCaptureAliases));
    }
    if (rule == Rule::kDetachedCoroutine ||
        rule == Rule::kDetachedCoroutineDetach) {
        return any(kDetachedAliases, std::size(kDetachedAliases));
    }
    if (rule == Rule::kUncheckedVectorStatus) {
        return any(kVectorStatusAliases, std::size(kVectorStatusAliases));
    }
    return false;
}

size_t
matchTok(const std::vector<Token> &toks, size_t open, const char *o,
         const char *c)
{
    int depth = 0;
    for (size_t i = open; i < toks.size(); ++i) {
        if (toks[i].is(o)) {
            ++depth;
        } else if (toks[i].is(c)) {
            if (--depth == 0) {
                return i;
            }
        }
    }
    return toks.size();
}

} // namespace remora::lint
