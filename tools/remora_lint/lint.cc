#include "lint.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "flow.h"
#include "source_model.h"

namespace remora::lint {

namespace {

// ----------------------------------------------------------------------
// Line-local rule passes
// ----------------------------------------------------------------------

void
addFinding(std::vector<Finding> &out, const SourceModel &s, Rule rule,
           std::string_view path, int line, std::string msg)
{
    if (suppressedAt(s, line, rule)) {
        return;
    }
    out.push_back(Finding{rule, std::string(path), line, std::move(msg)});
}

/** Include-style checks, run on the scrubbed text line by line. */
void
checkIncludes(std::string_view path, const SourceModel &s,
              const Options &opts, std::vector<Finding> &out)
{
    std::istringstream ss(s.text);
    std::string rawLine;
    int line = 0;
    while (std::getline(ss, rawLine)) {
        ++line;
        size_t hash = rawLine.find_first_not_of(" \t");
        if (hash == std::string::npos || rawLine[hash] != '#') {
            continue;
        }
        size_t kw = rawLine.find_first_not_of(" \t", hash + 1);
        if (kw == std::string::npos ||
            rawLine.compare(kw, 7, "include") != 0) {
            continue;
        }
        size_t open = rawLine.find('"', kw + 7);
        if (open == std::string::npos) {
            continue; // angle includes are system headers; out of scope
        }
        size_t close = rawLine.find('"', open + 1);
        if (close == std::string::npos) {
            continue;
        }
        std::string inc = rawLine.substr(open + 1, close - open - 1);
        if (inc.rfind("../", 0) == 0 || inc.rfind("./", 0) == 0 ||
            inc.find("/../") != std::string::npos) {
            addFinding(out, s, Rule::kIncludeHygiene, path, line,
                       "relative include \"" + inc +
                           "\"; include from the source root instead");
        } else if (opts.requireModulePrefix &&
                   inc.find('/') == std::string::npos) {
            addFinding(out, s, Rule::kIncludeHygiene, path, line,
                       "include \"" + inc +
                           "\" lacks its module prefix (write "
                           "\"<module>/" +
                           inc + "\")");
        }
    }
}

/** Banned-nondeterminism pass over the token stream. */
void
checkNondeterminism(std::string_view path, const SourceModel &s,
                    const std::vector<Token> &toks, const Options &opts,
                    std::vector<Finding> &out)
{
    for (size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (!t.ident()) {
            continue;
        }
        // Member accesses (x.rand(), p->time()) are project API, not libc.
        bool member = i > 0 && (toks[i - 1].is(".") || toks[i - 1].is("->"));
        if (member) {
            continue;
        }
        auto nextIs = [&](size_t k, const char *txt) {
            return i + k < toks.size() && toks[i + k].is(txt);
        };
        if ((t.is("rand") || t.is("srand")) && nextIs(1, "(")) {
            addFinding(out, s, Rule::kNondeterminism, path, t.line,
                       t.text + "() is nondeterministic; use sim::Random");
        } else if (t.is("time") && nextIs(1, "(") &&
                   (nextIs(2, "nullptr") || nextIs(2, "NULL") ||
                    nextIs(2, "0"))) {
            addFinding(out, s, Rule::kNondeterminism, path, t.line,
                       "time(" + toks[i + 2].text +
                           ") reads the wall clock; use Simulator::now()");
        } else if (t.is("system_clock") || t.is("high_resolution_clock")) {
            addFinding(out, s, Rule::kNondeterminism, path, t.line,
                       "std::chrono::" + t.text +
                           " reads the wall clock; use Simulator::now()");
        } else if (t.is("gettimeofday") || t.is("clock_gettime")) {
            addFinding(out, s, Rule::kNondeterminism, path, t.line,
                       t.text + "() reads the wall clock; use "
                                "Simulator::now()");
        } else if (t.is("random_device") && !opts.allowRandomDevice) {
            addFinding(out, s, Rule::kNondeterminism, path, t.line,
                       "std::random_device is nondeterministic; seed "
                       "sim::Random explicitly (sanctioned only in "
                       "sim/random)");
        }
    }
}

/**
 * One parameter's token span, classified. Depth tracking: parens and
 * brackets nest normally; '<' opens an angle scope, '>' closes one, and
 * '>>' closes two when an angle scope is open (otherwise it is a shift
 * in a default argument and ignored, as is '<<').
 */
struct ParamScan
{
    bool topLevelRef = false;
    bool topLevelPtr = false;
    bool stringView = false;
    int firstLine = 0;
    std::string text;
};

/** Scan params between '(' at @p open and its match; return one entry per
 *  comma-separated parameter and the index of the closing ')'. */
std::vector<ParamScan>
scanParams(const std::vector<Token> &toks, size_t open, size_t *closeOut)
{
    std::vector<ParamScan> params;
    ParamScan cur;
    int paren = 0;
    int angle = 0;
    int bracket = 0;
    size_t i = open;
    for (; i < toks.size(); ++i) {
        const Token &t = toks[i];
        bool top = paren == 1 && angle == 0 && bracket == 0;
        if (t.is("(")) {
            ++paren;
            if (paren == 1) {
                continue;
            }
        } else if (t.is(")")) {
            --paren;
            if (paren == 0) {
                break;
            }
        } else if (t.is("[")) {
            ++bracket;
        } else if (t.is("]")) {
            --bracket;
        } else if (t.is("<")) {
            ++angle;
        } else if (t.is(">") && angle > 0) {
            --angle;
        } else if (t.is(">>") && angle > 0) {
            angle -= 2;
            angle = angle < 0 ? 0 : angle;
        } else if (t.is(",") && top) {
            params.push_back(cur);
            cur = ParamScan{};
            continue;
        }
        if (cur.firstLine == 0) {
            cur.firstLine = t.line;
        }
        if (top && (t.is("&") || t.is("&&"))) {
            cur.topLevelRef = true;
        }
        if (top && t.is("*")) {
            cur.topLevelPtr = true;
        }
        if (t.ident() && t.is("string_view")) {
            cur.stringView = true;
        }
        if (t.ident() || t.is("::") || t.is("&") || t.is("&&") ||
            t.is("*") || t.is("<") || t.is(">") || t.is(">>")) {
            if (!cur.text.empty() && t.ident() &&
                isIdentChar(cur.text.back())) {
                cur.text += ' ';
            }
            cur.text += t.text;
        }
    }
    if (cur.firstLine != 0) {
        params.push_back(cur);
    }
    if (closeOut != nullptr) {
        *closeOut = i;
    }
    return params;
}

/**
 * The coroutine-parameter pass.
 *
 * Recognizes two shapes around every `Task<...>` return type:
 *
 *   [qual ::] Task < args > name [:: name]* ( params )     named function
 *   ( params ) [mutable noexcept]* -> [qual ::] Task < args >   lambda
 *
 * `std::function<Task<...>( ... )>` signature types — '(' directly after
 * the closing '>' — are types, not coroutine declarations, and skipped.
 */
void
checkCoroutineParams(std::string_view path, const SourceModel &s,
                     const std::vector<Token> &toks,
                     std::vector<Finding> &out)
{
    for (size_t i = 0; i < toks.size(); ++i) {
        if (!toks[i].ident() || !toks[i].is("Task") ||
            i + 1 >= toks.size() || !toks[i + 1].is("<")) {
            continue;
        }
        // Skip the template machinery's own mentions (template<> class
        // Task; using/typedef aliases are still scanned downstream).
        if (i > 0 && (toks[i - 1].is("class") || toks[i - 1].is("struct"))) {
            continue;
        }
        // Skip the Task<...> template argument list.
        size_t j = i + 2;
        int depth = 1;
        while (j < toks.size() && depth > 0) {
            if (toks[j].is("<")) {
                ++depth;
            } else if (toks[j].is(">")) {
                --depth;
            } else if (toks[j].is(">>")) {
                depth -= 2;
            }
            ++j;
        }
        if (j >= toks.size()) {
            continue;
        }

        bool isLambda = false;
        std::string declName;
        std::vector<ParamScan> params;
        int declLine = toks[i].line;

        // Lambda shape: walk back over the return-type qualifiers to
        // `->`, then over the specifier list to ')', then match '('.
        size_t back = i;
        while (back >= 2 && toks[back - 1].is("::") &&
               toks[back - 2].ident()) {
            back -= 2;
        }
        if (back >= 1 && toks[back - 1].is("->")) {
            size_t r = back - 1;
            while (r > 0 && toks[r - 1].ident()) {
                --r; // mutable / noexcept / constexpr
            }
            if (r > 0 && toks[r - 1].is(")")) {
                // Walk back to the matching '('.
                int d = 0;
                size_t p = r - 1;
                while (true) {
                    if (toks[p].is(")")) {
                        ++d;
                    } else if (toks[p].is("(")) {
                        --d;
                        if (d == 0) {
                            break;
                        }
                    }
                    if (p == 0) {
                        break;
                    }
                    --p;
                }
                if (d == 0 && toks[p].is("(")) {
                    isLambda = true;
                    declName = "lambda coroutine";
                    params = scanParams(toks, p, nullptr);
                    declLine = toks[p].line;
                }
            }
        }

        if (!isLambda) {
            // Named-function shape: identifier chain then '('.
            size_t k = j;
            while (k + 1 < toks.size() && toks[k].ident() &&
                   toks[k + 1].is("::")) {
                declName += toks[k].text + "::";
                k += 2;
            }
            if (k >= toks.size() || !toks[k].ident()) {
                continue; // function type, alias, or expression
            }
            declName += toks[k].text;
            if (declName == "operator" || toks[k].is("operator")) {
                continue;
            }
            if (k + 1 >= toks.size() || !toks[k + 1].is("(")) {
                continue; // variable of Task type, using-alias, etc.
            }
            params = scanParams(toks, k + 1, nullptr);
            declLine = toks[k].line;
        }

        for (const ParamScan &p : params) {
            int line = p.firstLine != 0 ? p.firstLine : declLine;
            if (p.topLevelRef || p.stringView) {
                const char *why =
                    p.stringView
                        ? "string_view views caller storage that can die at "
                          "the first suspension point"
                        : "references bind caller temporaries that die at "
                          "the first suspension point";
                if (!suppressedAt(s, declLine, Rule::kCoroutineRefParam)) {
                    addFinding(out, s, Rule::kCoroutineRefParam, path, line,
                               "coroutine " + declName + " parameter '" +
                                   p.text + "' is not safe to suspend over: " +
                                   why + "; pass by value");
                }
            } else if (p.topLevelPtr && !isLambda) {
                if (!suppressedAt(s, declLine, Rule::kCoroutinePtrParam)) {
                    addFinding(out, s, Rule::kCoroutinePtrParam, path, line,
                               "coroutine " + declName +
                                   " takes raw pointer '" + p.text +
                                   "'; ensure the pointee outlives every "
                                   "suspension (advisory)");
                }
            }
        }
    }
}

/**
 * True when the '[' at @p idx opens a lambda capture list rather than a
 * subscript: subscripts follow a value expression (identifier, ')', ']'),
 * lambda introducers follow punctuation that starts an expression.
 */
bool
isLambdaIntro(const std::vector<Token> &toks, size_t idx)
{
    if (!toks[idx].is("[")) {
        return false;
    }
    if (idx == 0) {
        return true;
    }
    const Token &p = toks[idx - 1];
    return p.is("(") || p.is(",") || p.is("=") || p.is("{") || p.is(";") ||
           p.is("return") || p.is("&&") || p.is("||") || p.is("?") ||
           p.is(":");
}

/**
 * Scan the capture list opened by '[' at @p open. Returns the first
 * by-reference capture ("&", "&x") or empty when all captures are by
 * value; `[p = &obj]` init-captures of pointers do not count. Sets
 * @p closeOut to the matching ']'.
 */
std::string
refCaptureIn(const std::vector<Token> &toks, size_t open, size_t *closeOut)
{
    std::string found;
    int depth = 0;
    size_t k = open;
    for (; k < toks.size(); ++k) {
        if (toks[k].is("[")) {
            ++depth;
        } else if (toks[k].is("]")) {
            --depth;
            if (depth == 0) {
                break;
            }
        } else if (depth == 1 && found.empty() && toks[k].is("&") &&
                   (toks[k - 1].is("[") || toks[k - 1].is(","))) {
            found = "&";
            if (k + 1 < toks.size() && toks[k + 1].ident()) {
                found += toks[k + 1].text;
            }
        }
    }
    if (closeOut != nullptr) {
        *closeOut = k;
    }
    return found;
}

/**
 * The deferred-lambda capture pass (kRefCaptureDeferred).
 *
 * Two shapes of lambda outlive the scope that created them, so their
 * by-reference captures dangle exactly like reference coroutine
 * parameters:
 *
 *  - arguments to `Simulator::schedule(...)`, `scheduleAt(...)` and
 *    `scheduleTimer(...)`: the callback runs from the event queue after
 *    the caller returned;
 *  - coroutine lambdas (`[...](...) -> Task<...>`): the frame suspends
 *    past the enclosing scope (the spawned-task case).
 */
void
checkRefCaptures(std::string_view path, const SourceModel &s,
                 const std::vector<Token> &toks, std::vector<Finding> &out)
{
    // Shape 1: lambdas in schedule/scheduleAt/scheduleTimer argument
    // lists.
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!toks[i].ident() ||
            (!toks[i].is("schedule") && !toks[i].is("scheduleAt") &&
             !toks[i].is("scheduleTimer")) ||
            !toks[i + 1].is("(")) {
            continue;
        }
        int paren = 0;
        for (size_t k = i + 1; k < toks.size(); ++k) {
            if (toks[k].is("(")) {
                ++paren;
            } else if (toks[k].is(")")) {
                if (--paren == 0) {
                    break;
                }
            } else if (isLambdaIntro(toks, k)) {
                size_t close = k;
                std::string ref = refCaptureIn(toks, k, &close);
                if (!ref.empty()) {
                    addFinding(out, s, Rule::kRefCaptureDeferred, path,
                               toks[k].line,
                               "lambda handed to Simulator::" + toks[i].text +
                                   " captures '" + ref +
                                   "' by reference; the callback runs after "
                                   "the enclosing scope unwound — capture by "
                                   "value");
                }
                k = close;
            }
        }
    }

    // Shape 2: coroutine lambdas — '[caps] ( params ) specifiers -> Task<'.
    for (size_t i = 0; i < toks.size(); ++i) {
        if (!isLambdaIntro(toks, i)) {
            continue;
        }
        size_t close = i;
        std::string ref = refCaptureIn(toks, i, &close);
        if (ref.empty() || close + 1 >= toks.size() ||
            !toks[close + 1].is("(")) {
            continue;
        }
        // Match the parameter list's ')'.
        int paren = 0;
        size_t k = close + 1;
        for (; k < toks.size(); ++k) {
            if (toks[k].is("(")) {
                ++paren;
            } else if (toks[k].is(")")) {
                if (--paren == 0) {
                    break;
                }
            }
        }
        // Skip specifiers (mutable/noexcept/constexpr), expect '->'.
        size_t r = k + 1;
        while (r < toks.size() && toks[r].ident() && !toks[r].is("Task")) {
            ++r;
        }
        if (r >= toks.size() || !toks[r].is("->")) {
            continue;
        }
        // Return type: optionally qualified Task<...>.
        size_t q = r + 1;
        while (q + 1 < toks.size() && toks[q].ident() &&
               toks[q + 1].is("::")) {
            q += 2;
        }
        if (q + 1 < toks.size() && toks[q].is("Task") &&
            toks[q + 1].is("<")) {
            addFinding(out, s, Rule::kRefCaptureDeferred, path, toks[i].line,
                       "coroutine lambda captures '" + ref +
                           "' by reference; the frame suspends past the "
                           "enclosing scope — capture by value or pass as "
                           "a parameter");
        }
    }
}

/**
 * The detached-coroutine pass (kDetachedCoroutine family).
 *
 * Task<...> is eager: calling a coroutine starts it, and discarding the
 * returned Task detaches the running frame via the destructor with
 * nothing owning it. That is sometimes intended (server loops), but the
 * intent must be visible: `start().detach();` reads as fire-and-forget,
 * a bare `start();` or `(void)start();` reads as a forgotten await.
 *
 * Phase A collects the names of every Task-returning function declared
 * in this translation unit (the same declarator shape the
 * coroutine-param pass recognizes). Phase B classifies each
 * *unqualified* call of a collected name — member calls through `.` or
 * `->` are skipped, since another class may reuse the name with a
 * non-coroutine signature:
 *
 *  - `name(...);` as a whole statement, or `(void)name(...);`  -> error
 *  - `name(...).detach();`                                     -> advisory
 *  - awaited, assigned, or passed as an argument                -> clean
 */
void
checkDetachedCoroutines(std::string_view path, const SourceModel &s,
                        const std::vector<Token> &toks,
                        std::vector<Finding> &out)
{
    // Phase A: TU-local coroutine names (last declarator identifier of
    // each `Task<...> [chain::]name (` declaration or definition).
    std::set<std::string> coros;
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!toks[i].is("Task") || !toks[i].ident() ||
            !toks[i + 1].is("<")) {
            continue;
        }
        if (i > 0 && (toks[i - 1].is("class") || toks[i - 1].is("struct"))) {
            continue;
        }
        size_t j = i + 2;
        int depth = 1;
        while (j < toks.size() && depth > 0) {
            if (toks[j].is("<")) {
                ++depth;
            } else if (toks[j].is(">")) {
                --depth;
            } else if (toks[j].is(">>")) {
                depth -= 2;
            }
            ++j;
        }
        size_t k = j;
        while (k + 1 < toks.size() && toks[k].ident() &&
               toks[k + 1].is("::")) {
            k += 2;
        }
        if (k + 1 < toks.size() && toks[k].ident() && toks[k + 1].is("(") &&
            !toks[k].is("operator")) {
            coros.insert(toks[k].text);
        }
    }
    if (coros.empty()) {
        return;
    }

    // Phase B: classify call sites.
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!toks[i].ident() || coros.count(toks[i].text) == 0 ||
            !toks[i + 1].is("(")) {
            continue;
        }
        // Walk back over namespace/class qualification (`ns::name`).
        size_t start = i;
        while (start >= 2 && toks[start - 1].is("::") &&
               toks[start - 2].ident()) {
            start -= 2;
        }
        const Token *prev = start > 0 ? &toks[start - 1] : nullptr;
        // A declaration, not a call: the return type's '>' (or a type
        // name) directly precedes the declarator.
        if (prev != nullptr && (prev->is(">") || prev->is(">>"))) {
            continue;
        }
        // Member call on some object: its class may reuse the name with
        // a non-coroutine signature, so only the detach advisory below
        // could apply — and detached member temporaries are spelled
        // through the same unqualified shape everywhere in this tree.
        if (prev != nullptr && (prev->is(".") || prev->is("->"))) {
            continue;
        }
        // Find the matching ')'.
        int paren = 0;
        size_t close = i + 1;
        for (; close < toks.size(); ++close) {
            if (toks[close].is("(")) {
                ++paren;
            } else if (toks[close].is(")") && --paren == 0) {
                break;
            }
        }
        if (close + 1 >= toks.size()) {
            continue;
        }
        if (toks[close + 1].is(".") && close + 2 < toks.size() &&
            toks[close + 2].is("detach")) {
            addFinding(out, s, Rule::kDetachedCoroutineDetach, path,
                       toks[i].line,
                       "coroutine " + toks[i].text +
                           "() detached at start; fire-and-forget intent "
                           "noted (advisory)");
            continue;
        }
        bool stmtStart = prev == nullptr || prev->is(";") || prev->is("{") ||
                         prev->is("}");
        bool voidCast = start >= 3 && toks[start - 1].is(")") &&
                        toks[start - 2].is("void") && toks[start - 3].is("(");
        if ((stmtStart || voidCast) && toks[close + 1].is(";")) {
            addFinding(out, s, Rule::kDetachedCoroutine, path, toks[i].line,
                       "coroutine " + toks[i].text +
                           "() started and discarded: the eager frame "
                           "detaches silently — co_await it, keep the "
                           "Task, or write .detach() to make "
                           "fire-and-forget explicit");
        }
    }
}

/**
 * The scalar-op-in-loop pass (kScalarOpLoop, advisory).
 *
 * A `co_await <obj>.write(...)` / `<obj>->read(...)` inside a `for` or
 * `while` body pays one trap + validation + wire frame per iteration;
 * when the iterations target the same node, a vectored
 * `writev()`/`readv()` batch pays them once. Only awaited calls are
 * considered — synchronous `space().write(...)` local-memory accesses
 * return a plain Status and never match. Each await site is reported
 * once even when loops nest.
 */
void
checkScalarOpLoops(std::string_view path, const SourceModel &s,
                   const std::vector<Token> &toks, std::vector<Finding> &out)
{
    std::set<size_t> reported; // token index of the co_await
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!toks[i].ident() ||
            (!toks[i].is("for") && !toks[i].is("while")) ||
            !toks[i + 1].is("(")) {
            continue;
        }
        // Match the loop header's closing ')'.
        int paren = 0;
        size_t k = i + 1;
        for (; k < toks.size(); ++k) {
            if (toks[k].is("(")) {
                ++paren;
            } else if (toks[k].is(")") && --paren == 0) {
                break;
            }
        }
        if (k + 1 >= toks.size()) {
            continue;
        }
        // Body span: braced block, or single statement up to ';'.
        size_t body = k + 1;
        size_t bodyEnd = body;
        if (toks[body].is("{")) {
            int brace = 0;
            for (; bodyEnd < toks.size(); ++bodyEnd) {
                if (toks[bodyEnd].is("{")) {
                    ++brace;
                } else if (toks[bodyEnd].is("}") && --brace == 0) {
                    break;
                }
            }
        } else {
            while (bodyEnd < toks.size() && !toks[bodyEnd].is(";")) {
                ++bodyEnd;
            }
        }
        for (size_t t = body; t < bodyEnd; ++t) {
            if (!toks[t].is("co_await") || reported.count(t) != 0) {
                continue;
            }
            // Scan the awaited expression (up to the statement end) for
            // a member call of write( or read(.
            for (size_t u = t + 1; u + 2 < bodyEnd; ++u) {
                if (toks[u].is(";")) {
                    break;
                }
                if ((toks[u].is(".") || toks[u].is("->")) &&
                    toks[u + 1].ident() &&
                    (toks[u + 1].is("write") || toks[u + 1].is("read")) &&
                    toks[u + 2].is("(")) {
                    bool isWrite = toks[u + 1].is("write");
                    reported.insert(t);
                    addFinding(out, s, Rule::kScalarOpLoop, path,
                               toks[t].line,
                               std::string("scalar ") + toks[u + 1].text +
                                   "() awaited inside a loop: each "
                                   "iteration pays a full trap and frame; "
                                   "consider batching with " +
                                   (isWrite ? "writev()" : "readv()") +
                                   " (advisory)");
                    break;
                }
            }
        }
    }
}

/**
 * The qualified type name ending just before the `{` at @p brace, as
 * its first token's index, or npos when that `{` opens no braced
 * temporary: a block, a lambda body (after `]`, `)`, a specifier or a
 * trailing return type) or an initializer list with no type.
 */
size_t
bracedTypeStart(const std::vector<Token> &toks, size_t brace)
{
    static const std::set<std::string> kNotAType = {
        "return", "co_return", "else",  "do",       "try",
        "mutable", "noexcept", "const", "override", "final"};
    if (brace == 0) {
        return std::string::npos;
    }
    size_t k = brace - 1;
    if (toks[k].is(">")) {
        // Skip a template argument list back to its '<'.
        int angle = 0;
        for (;; --k) {
            if (toks[k].is(">")) {
                ++angle;
            } else if (toks[k].is(">>")) {
                angle += 2;
            } else if (toks[k].is("<") && --angle == 0) {
                break;
            }
            if (k == 0) {
                return std::string::npos;
            }
        }
        if (k == 0) {
            return std::string::npos;
        }
        --k;
    }
    if (!toks[k].ident() || kNotAType.count(toks[k].text) != 0) {
        return std::string::npos;
    }
    while (k >= 2 && toks[k - 1].is("::") && toks[k - 2].ident()) {
        k -= 2;
    }
    if (k > 0 && toks[k - 1].is("->")) {
        return std::string::npos; // a lambda's trailing return type
    }
    return k;
}

/**
 * True when the braced temporary whose type starts at @p type and
 * whose initializer spans [@p open, @p close] visibly owns memory: an
 * owning std type, or an initializer that moves something in.
 */
bool
ownsMemory(const std::vector<Token> &toks, size_t type, size_t open,
           size_t close)
{
    static const std::set<std::string> kOwningTypes = {
        "vector", "string",        "basic_string", "unique_ptr",
        "shared_ptr", "function",  "map",          "unordered_map",
        "set",    "unordered_set", "deque",        "list"};
    for (size_t k = type; k < open; ++k) {
        if (toks[k].ident() && kOwningTypes.count(toks[k].text) != 0 &&
            (toks[k + 1].is("<") || toks[k + 1].is("{"))) {
            return true;
        }
    }
    for (size_t k = open + 1; k + 1 < close; ++k) {
        if ((toks[k].is("move") || toks[k].is("make_unique") ||
             toks[k].is("make_shared")) &&
            (toks[k + 1].is("(") || toks[k + 1].is("<"))) {
            return true;
        }
    }
    return false;
}

/**
 * GCC 12.2 destroys a temporary built with braces inside a `co_await`
 * operand twice: `co_await call(WriteArgs{fh, off, std::move(data)})`
 * frees `data`'s buffer twice. Scan each co_await's operand (to the
 * end of its statement or enclosing expression) for braced temporaries
 * that own memory; lambda bodies inside it are separate functions and
 * are skipped. Each co_await is reported once.
 */
void
checkCoawaitBracedTemporaries(std::string_view path, const SourceModel &s,
                              const std::vector<Token> &toks,
                              std::vector<Finding> &out)
{
    for (size_t i = 0; i < toks.size(); ++i) {
        if (!toks[i].is("co_await")) {
            continue;
        }
        int depth = 0;
        for (size_t k = i + 1; k < toks.size(); ++k) {
            const Token &t = toks[k];
            if (t.is("(") || t.is("[")) {
                ++depth;
            } else if (t.is(")") || t.is("]") || t.is("}")) {
                if (--depth < 0) {
                    break;
                }
            } else if (depth == 0 && (t.is(";") || t.is(","))) {
                break;
            } else if (t.is("{")) {
                size_t close = matchTok(toks, k, "{", "}");
                size_t type = bracedTypeStart(toks, k);
                if (type == std::string::npos) {
                    k = close; // a lambda body or block: not the operand
                    continue;
                }
                if (ownsMemory(toks, type, k, close)) {
                    std::string name;
                    for (size_t n = type; n < k; ++n) {
                        name += toks[n].text;
                    }
                    addFinding(out, s, Rule::kCoawaitBracedTemporary, path,
                               toks[type].line,
                               "braced temporary " + name +
                                   "{...} owns memory inside a co_await "
                                   "operand, and GCC 12 destroys it twice; "
                                   "name it in a local before the "
                                   "co_await");
                    break;
                }
                ++depth;
            }
        }
    }
}

/** Minimal JSON string escaping (control chars, quotes, backslash). */
std::string
jsonEscape(std::string_view in)
{
    std::string out;
    out.reserve(in.size() + 8);
    for (char c : in) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        case '\r':
            out += "\\r";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

// ----------------------------------------------------------------------
// Rule metadata
//
// The switches below have no default case and no fallback return:
// remora_lint_core builds with -Werror=switch -Werror=return-type, so
// adding a Rule enumerator without wiring its name, severity, and
// description here is a compile error.
// ----------------------------------------------------------------------

const char *
ruleName(Rule rule)
{
    switch (rule) {
    case Rule::kCoroutineRefParam:
        return "remora-coroutine-ref-param";
    case Rule::kCoroutinePtrParam:
        return "remora-coroutine-ptr-param";
    case Rule::kRefCaptureDeferred:
        return "remora-ref-capture-deferred";
    case Rule::kDetachedCoroutine:
    case Rule::kDetachedCoroutineDetach:
        return "remora-detached-coroutine";
    case Rule::kScalarOpLoop:
        return "remora-scalar-op-loop";
    case Rule::kNondeterminism:
        return "remora-nondeterminism";
    case Rule::kIncludeHygiene:
        return "remora-include-hygiene";
    case Rule::kLockAcrossSuspension:
        return "remora-lock-across-suspension";
    case Rule::kUseAfterSuspension:
        return "remora-use-after-suspension";
    case Rule::kReleaseOnAllPaths:
        return "remora-release-on-all-paths";
    case Rule::kUncheckedVectorStatus:
        return "remora-unchecked-vector-status";
    case Rule::kIncludeLayer:
        return "remora-include-layer";
    case Rule::kCoawaitBracedTemporary:
        return "remora-coawait-braced-temporary";
    }
    // Unreachable: the switch is exhaustive (-Werror=switch) and every
    // case returns (-Werror=return-type).
    __builtin_unreachable();
}

bool
ruleIsError(Rule rule)
{
    switch (rule) {
    case Rule::kCoroutineRefParam:
    case Rule::kRefCaptureDeferred:
    case Rule::kDetachedCoroutine:
    case Rule::kNondeterminism:
    case Rule::kIncludeHygiene:
    case Rule::kLockAcrossSuspension:
    case Rule::kUseAfterSuspension:
    case Rule::kIncludeLayer:
    case Rule::kCoawaitBracedTemporary:
        return true;
    case Rule::kCoroutinePtrParam:
    case Rule::kDetachedCoroutineDetach:
    case Rule::kScalarOpLoop:
    case Rule::kReleaseOnAllPaths:
    case Rule::kUncheckedVectorStatus:
        return false;
    }
    __builtin_unreachable();
}

const char *
ruleDescription(Rule rule)
{
    switch (rule) {
    case Rule::kCoroutineRefParam:
        return "coroutine takes a reference/string_view parameter that "
               "dangles at the first suspension point";
    case Rule::kCoroutinePtrParam:
        return "named coroutine takes a raw pointer; pointee must outlive "
               "every suspension";
    case Rule::kRefCaptureDeferred:
        return "[&] capture on a deferred or coroutine lambda outlives its "
               "scope";
    case Rule::kDetachedCoroutine:
        return "eager Task started and silently discarded; spell "
               "fire-and-forget as .detach()";
    case Rule::kDetachedCoroutineDetach:
        return "sanctioned .detach() fire-and-forget site, kept auditable";
    case Rule::kScalarOpLoop:
        return "scalar write()/read() awaited per loop iteration; consider "
               "writev()/readv() batching";
    case Rule::kNondeterminism:
        return "wall-clock or platform randomness breaks bit-identical "
               "replay";
    case Rule::kIncludeHygiene:
        return "relative or module-prefix-less project include";
    case Rule::kLockAcrossSuspension:
        return "lock still held at a suspension that acquires another lock "
               "(cross-order deadlock), or thread guard live at co_await";
    case Rule::kUseAfterSuspension:
        return "pointer/reference/view into borrowed state used after a "
               "suspension point that may invalidate it";
    case Rule::kReleaseOnAllPaths:
        return "acquire/release or begin/end pair where an early-exit path "
               "skips the release";
    case Rule::kUncheckedVectorStatus:
        return "vectored op result whose per-sub-op statuses are never "
               "inspected";
    case Rule::kIncludeLayer:
        return "include edge climbs the module layer diagram upward, or "
               "the include DAG has a cycle";
    case Rule::kCoawaitBracedTemporary:
        return "memory-owning braced temporary inside a co_await operand, "
               "which GCC 12 destroys twice; name it first";
    }
    __builtin_unreachable();
}

bool
ruleIsFlow(Rule rule)
{
    switch (rule) {
    case Rule::kLockAcrossSuspension:
    case Rule::kUseAfterSuspension:
    case Rule::kReleaseOnAllPaths:
    case Rule::kUncheckedVectorStatus:
        return true;
    case Rule::kCoroutineRefParam:
    case Rule::kCoroutinePtrParam:
    case Rule::kRefCaptureDeferred:
    case Rule::kDetachedCoroutine:
    case Rule::kDetachedCoroutineDetach:
    case Rule::kScalarOpLoop:
    case Rule::kNondeterminism:
    case Rule::kIncludeHygiene:
    case Rule::kIncludeLayer:
    case Rule::kCoawaitBracedTemporary:
        return false;
    }
    __builtin_unreachable();
}

std::string
Finding::format() const
{
    std::ostringstream ss;
    ss << file << ":" << line << ": [" << ruleName(rule) << "] " << message;
    return ss.str();
}

std::string
findingsToJson(const std::vector<Finding> &findings)
{
    std::ostringstream ss;
    ss << "[";
    bool first = true;
    for (const Finding &f : findings) {
        ss << (first ? "" : ",") << "\n  {\"file\":\"" << jsonEscape(f.file)
           << "\",\"line\":" << f.line << ",\"rule\":\"" << ruleName(f.rule)
           << "\",\"severity\":\""
           << (ruleIsError(f.rule) ? "error" : "advisory")
           << "\",\"message\":\"" << jsonEscape(f.message) << "\"}";
        first = false;
    }
    ss << (first ? "]" : "\n]");
    return ss.str();
}

// ----------------------------------------------------------------------
// Public interface
// ----------------------------------------------------------------------

std::vector<Finding>
lintSource(std::string_view path, std::string_view text, const Options &opts)
{
    std::vector<Finding> out;
    SourceModel s = buildSourceModel(text);
    if (opts.checkIncludes) {
        checkIncludes(path, s, opts, out);
    }
    const std::vector<Token> &toks = s.tokens;
    if (opts.checkNondeterminism) {
        checkNondeterminism(path, s, toks, opts, out);
    }
    if (opts.checkCoroutineParams) {
        checkCoroutineParams(path, s, toks, out);
    }
    if (opts.checkRefCaptures) {
        checkRefCaptures(path, s, toks, out);
    }
    if (opts.checkDetachedCoroutines) {
        checkDetachedCoroutines(path, s, toks, out);
    }
    if (opts.checkScalarOpLoops) {
        checkScalarOpLoops(path, s, toks, out);
    }
    checkCoawaitBracedTemporaries(path, s, toks, out);
    if (opts.checkFlowRules) {
        checkFlowRules(path, s, opts, out);
    }
    std::sort(out.begin(), out.end(),
              [](const Finding &a, const Finding &b) {
                  return a.line < b.line;
              });
    return out;
}

Options
optionsForPath(std::string_view relPath)
{
    Options opts;
    std::string p(relPath);
    std::replace(p.begin(), p.end(), '\\', '/');
    bool testLike = p.rfind("tests/", 0) == 0 ||
                    p.find("/tests/") != std::string::npos;
    bool driverLike = p.rfind("tools/", 0) == 0 ||
                      p.rfind("bench/", 0) == 0;
    if (testLike || driverLike) {
        // Tests include sibling fixtures ("cluster_fixture.h") and the
        // tools/benches their own local headers ("lint.h",
        // "bench_common.h") directly.
        opts.requireModulePrefix = false;
        // Test bodies and bench/tool drivers pump the simulator with
        // run() inside the capturing scope, so their locals outlive
        // every queued callback and `[&]` is the idiomatic way to
        // collect results. In src/, a scheduled callback escapes the
        // scheduling scope.
        opts.checkRefCaptures = false;
    }
    if (p.find("sim/random.") != std::string::npos) {
        opts.allowRandomDevice = true;
    }
    return opts;
}

bool
shouldLint(std::string_view relPath)
{
    auto ends = [&](const char *suffix) {
        std::string_view sv(suffix);
        return relPath.size() >= sv.size() &&
               relPath.compare(relPath.size() - sv.size(), sv.size(), sv) ==
                   0;
    };
    return ends(".h") || ends(".cc") || ends(".cpp") || ends(".hpp");
}

} // namespace remora::lint
