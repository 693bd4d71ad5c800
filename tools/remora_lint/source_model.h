/**
 * @file
 * The shared front end of remora-lint: one scrubbing + tokenizing pass
 * whose output every rule family consumes.
 *
 * Three passes share this model:
 *
 *  - the line-local rules in lint.cc (coroutine params, captures,
 *    detached starts, nondeterminism, include hygiene);
 *  - the flow-sensitive rules in flow.cc (CFG + dataflow over
 *    suspension points);
 *  - the whole-tree include-layer checker in layers.cc (which only
 *    needs the scrubbed text, so include paths survive scrubbing).
 *
 * Scrubbing blanks comment bodies and string/char-literal contents
 * in place (same length, newlines kept) so later passes never match
 * inside them, and harvests NOLINT/NOLINTNEXTLINE suppressions from
 * the comments before they vanish. Include-path strings survive
 * because the include rules need them.
 */
#pragma once

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint.h"

namespace remora::lint {

/** One lexed token of the scrubbed source. */
struct Token
{
    enum class Kind
    {
        kIdent,
        kPunct,
    };
    Kind kind;
    std::string text;
    int line;

    bool is(const char *s) const { return text == s; }
    bool ident() const { return kind == Kind::kIdent; }
};

/** Scrubbed text + harvested suppressions + token stream for one TU. */
struct SourceModel
{
    /** Source with comments and literal bodies blanked (same length). */
    std::string text;
    /** line -> suppressed check names; {"*"} means "all checks". */
    std::map<int, std::set<std::string>> lineSupp;
    /** Tokens of the scrubbed text, in source order. */
    std::vector<Token> tokens;
};

/** Build the model: scrub, harvest NOLINTs, tokenize. */
SourceModel buildSourceModel(std::string_view src);

/**
 * True when findings of @p rule are suppressed at @p line, either by
 * the rule's own name, a bare NOLINT, or a clang-tidy alias mapped to
 * the rule (so one comment silences both tools).
 */
bool suppressedAt(const SourceModel &model, int line, Rule rule);

/** True for identifier characters ([A-Za-z0-9_]). */
bool isIdentChar(char c);

/**
 * Index of the token matching the opener @p o at @p open ((), {}, []),
 * closed by @p c; toks.size() when it never closes.
 */
size_t matchTok(const std::vector<Token> &toks, size_t open, const char *o,
                const char *c);

} // namespace remora::lint
