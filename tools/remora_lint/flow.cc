#include "flow.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "source_model.h"

namespace remora::lint {

namespace {

// ----------------------------------------------------------------------
// Token utilities
// ----------------------------------------------------------------------

using Toks = std::vector<Token>;

bool
isKeyword(const std::string &t)
{
    static const std::set<std::string> kw = {
        "if",       "for",     "while",    "switch",   "catch",
        "return",   "co_return", "co_await", "co_yield", "sizeof",
        "alignof",  "decltype", "new",      "delete",   "throw",
        "static_assert", "alignas", "noexcept", "else", "do",
    };
    return kw.count(t) != 0;
}

/** True when '[' at @p idx starts a lambda introducer (vs. subscript). */
bool
lambdaIntroAt(const Toks &toks, size_t idx)
{
    if (!toks[idx].is("[")) {
        return false;
    }
    if (idx == 0) {
        return true;
    }
    const Token &p = toks[idx - 1];
    if (p.is("[")) {
        return false; // second bracket of an [[attribute]]
    }
    if (p.ident()) {
        return isKeyword(p.text); // `return [..]`, `co_await [..]`…
    }
    return !(p.is(")") || p.is("]"));
}

/**
 * If a lambda introducer starts at @p idx, return the index of its
 * body's '{' (and the body's '}' via @p rbraceOut); otherwise npos.
 * Shape: `[caps]` `(params)`? specifiers* (`-> type-tokens`)? `{`.
 */
size_t
lambdaBodyAt(const Toks &toks, size_t idx, size_t *rbraceOut)
{
    if (!lambdaIntroAt(toks, idx)) {
        return std::string::npos;
    }
    size_t close = matchTok(toks, idx, "[", "]");
    if (close >= toks.size()) {
        return std::string::npos;
    }
    size_t j = close + 1;
    if (j < toks.size() && toks[j].is("(")) {
        j = matchTok(toks, j, "(", ")");
        if (j >= toks.size()) {
            return std::string::npos;
        }
        ++j;
    }
    // Specifiers and an optional trailing return type. Give up at any
    // token that cannot belong to either (then it was an attribute or
    // a plain subscript after all).
    bool sawArrow = false;
    while (j < toks.size() && !toks[j].is("{")) {
        const Token &t = toks[j];
        if (t.is("->")) {
            sawArrow = true;
            ++j;
        } else if (t.ident() || t.is("::") || t.is("&") || t.is("*")) {
            ++j;
        } else if (sawArrow && (t.is("<") || t.is(">") || t.is(">>") ||
                                t.is("(") || t.is(")") || t.is(","))) {
            ++j; // template args / function-type pieces of the return
        } else {
            return std::string::npos;
        }
    }
    if (j >= toks.size()) {
        return std::string::npos;
    }
    size_t rb = matchTok(toks, j, "{", "}");
    if (rb >= toks.size()) {
        return std::string::npos;
    }
    if (rbraceOut != nullptr) {
        *rbraceOut = rb;
    }
    return j;
}

/** Concatenated text of [lo, hi), single-space separated idents. */
std::string
spanText(const Toks &toks, size_t lo, size_t hi)
{
    std::string out;
    for (size_t i = lo; i < hi && i < toks.size(); ++i) {
        if (!out.empty() && toks[i].ident() && isIdentChar(out.back())) {
            out += ' ';
        }
        out += toks[i].text;
    }
    return out;
}

// ----------------------------------------------------------------------
// Function extraction
// ----------------------------------------------------------------------

struct FnRange
{
    std::string name;
    size_t lbrace; // '{'
    size_t rbrace; // matching '}'
};

/**
 * Scan for function definitions: `name ( params ) [specifiers |
 * -> type | : init-list] {`. Bodies are skipped once found, so only
 * outermost definitions (including class-inline methods) are returned;
 * lambdas inside them become nested analysis units later.
 */
std::vector<FnRange>
extractFunctions(const Toks &toks)
{
    std::vector<FnRange> fns;
    for (size_t i = 0; i < toks.size(); ++i) {
        if (!toks[i].ident() || isKeyword(toks[i].text) ||
            i + 1 >= toks.size() || !toks[i + 1].is("(")) {
            continue;
        }
        if (i > 0 && (toks[i - 1].is(".") || toks[i - 1].is("->"))) {
            continue; // member call, not a definition
        }
        size_t close = matchTok(toks, i + 1, "(", ")");
        if (close >= toks.size()) {
            continue;
        }
        size_t j = close + 1;
        // Specifiers / trailing return type.
        bool bad = false;
        while (j < toks.size() && !toks[j].is("{") && !toks[j].is(":")) {
            const Token &t = toks[j];
            if (t.ident() &&
                (t.is("const") || t.is("noexcept") || t.is("override") ||
                 t.is("final") || t.is("mutable") || t.is("try"))) {
                ++j;
            } else if (t.is("->")) {
                // Skip the trailing type up to '{' or something odd.
                ++j;
                while (j < toks.size() &&
                       (toks[j].ident() || toks[j].is("::") ||
                        toks[j].is("<") || toks[j].is(">") ||
                        toks[j].is(">>") || toks[j].is("&") ||
                        toks[j].is("*"))) {
                    ++j;
                }
            } else if (t.is("(")) {
                // noexcept(...) etc.
                j = matchTok(toks, j, "(", ")");
                if (j >= toks.size()) {
                    bad = true;
                    break;
                }
                ++j;
            } else {
                bad = true;
                break;
            }
        }
        if (bad || j >= toks.size()) {
            continue;
        }
        if (toks[j].is(":")) {
            // Constructor init list: `: entry (args|{args}) , ...`.
            ++j;
            while (j < toks.size()) {
                while (j < toks.size() &&
                       (toks[j].ident() || toks[j].is("::"))) {
                    ++j;
                }
                if (j < toks.size() && toks[j].is("<")) {
                    j = matchTok(toks, j, "<", ">");
                    j = j < toks.size() ? j + 1 : j;
                }
                if (j >= toks.size()) {
                    break;
                }
                if (toks[j].is("(")) {
                    j = matchTok(toks, j, "(", ")") + 1;
                } else if (toks[j].is("{")) {
                    j = matchTok(toks, j, "{", "}") + 1;
                } else {
                    break;
                }
                if (j < toks.size() && toks[j].is(",")) {
                    ++j;
                    continue;
                }
                break;
            }
        }
        if (j >= toks.size() || !toks[j].is("{")) {
            continue;
        }
        size_t rb = matchTok(toks, j, "{", "}");
        if (rb >= toks.size()) {
            continue;
        }
        fns.push_back(FnRange{toks[i].text, j, rb});
        i = rb; // don't re-find constructs inside the body
    }
    return fns;
}

// ----------------------------------------------------------------------
// Statement tree
// ----------------------------------------------------------------------

struct Stmt
{
    enum class K
    {
        kBlock,    // kids
        kIf,       // cond + kids[0]=then, kids[1]=else (optional)
        kLoop,     // cond (header) + kids[0]=body; while/for
        kDoWhile,  // kids[0]=body + cond
        kSwitch,   // cond + kids[0]=body block (with kCase markers)
        kCase,     // case/default label inside a switch body
        kReturn,   // tokens of `return|co_return expr`
        kBreak,
        kContinue,
        kSimple,   // tokens up to and incl. ';'
    };
    K k = K::kSimple;
    size_t lo = 0, hi = 0;         // kSimple / kReturn token range
    size_t condLo = 0, condHi = 0; // header range for if/loops/switch
    bool rangeFor = false;         // kLoop from `for (decl : range)`
    std::vector<Stmt> kids;
};

Stmt parseOne(const Toks &toks, size_t &pos, size_t hi);

std::vector<Stmt>
parseStmts(const Toks &toks, size_t pos, size_t hi)
{
    std::vector<Stmt> out;
    while (pos < hi) {
        out.push_back(parseOne(toks, pos, hi));
    }
    return out;
}

/** Advance past one simple statement: to ';' at bracket depth 0. */
size_t
simpleEnd(const Toks &toks, size_t pos, size_t hi)
{
    int depth = 0;
    for (size_t i = pos; i < hi; ++i) {
        if (toks[i].is("(") || toks[i].is("{") || toks[i].is("[")) {
            ++depth;
        } else if (toks[i].is(")") || toks[i].is("}") || toks[i].is("]")) {
            --depth;
        } else if (toks[i].is(";") && depth <= 0) {
            return i + 1;
        }
    }
    return hi;
}

Stmt
parseOne(const Toks &toks, size_t &pos, size_t hi)
{
    Stmt s;
    const Token &t = toks[pos];
    auto condOf = [&](size_t kwEnd) {
        // kwEnd: first token after the keyword; expects '('.
        size_t open = kwEnd;
        while (open < hi && !toks[open].is("(")) {
            ++open; // `if constexpr`, `while (…` with attribute, …
        }
        size_t close = matchTok(toks, open, "(", ")");
        s.condLo = open + 1;
        s.condHi = close < hi ? close : hi;
        return close < hi ? close + 1 : hi;
    };

    if (t.is("{")) {
        size_t rb = matchTok(toks, pos, "{", "}");
        rb = rb < hi ? rb : hi;
        s.k = Stmt::K::kBlock;
        s.kids = parseStmts(toks, pos + 1, rb);
        pos = rb + 1;
        return s;
    }
    if (t.ident() && t.is("if")) {
        s.k = Stmt::K::kIf;
        size_t body = condOf(pos + 1);
        pos = body;
        s.kids.push_back(parseOne(toks, pos, hi));
        if (pos < hi && toks[pos].is("else")) {
            ++pos;
            s.kids.push_back(parseOne(toks, pos, hi));
        }
        return s;
    }
    if (t.ident() && (t.is("while") || t.is("for"))) {
        s.k = Stmt::K::kLoop;
        size_t body = condOf(pos + 1);
        if (t.is("for")) {
            // Range-for: a top-level ':' in the header.
            int d = 0;
            for (size_t i = s.condLo; i < s.condHi; ++i) {
                if (toks[i].is("(") || toks[i].is("[") || toks[i].is("{")) {
                    ++d;
                } else if (toks[i].is(")") || toks[i].is("]") ||
                           toks[i].is("}")) {
                    --d;
                } else if (toks[i].is(":") && d == 0) {
                    s.rangeFor = true;
                    break;
                } else if (toks[i].is(";") && d == 0) {
                    break; // classic for
                }
            }
        }
        pos = body;
        s.kids.push_back(parseOne(toks, pos, hi));
        return s;
    }
    if (t.ident() && t.is("do")) {
        s.k = Stmt::K::kDoWhile;
        ++pos;
        s.kids.push_back(parseOne(toks, pos, hi));
        if (pos < hi && toks[pos].is("while")) {
            pos = condOf(pos + 1);
            if (pos < hi && toks[pos].is(";")) {
                ++pos;
            }
        }
        return s;
    }
    if (t.ident() && t.is("switch")) {
        s.k = Stmt::K::kSwitch;
        size_t body = condOf(pos + 1);
        pos = body;
        s.kids.push_back(parseOne(toks, pos, hi));
        return s;
    }
    if (t.ident() && (t.is("case") || t.is("default"))) {
        s.k = Stmt::K::kCase;
        // Skip to the label's ':' (not '::').
        while (pos < hi && !toks[pos].is(":")) {
            ++pos;
        }
        pos = pos < hi ? pos + 1 : hi;
        return s;
    }
    if (t.ident() && (t.is("return") || t.is("co_return"))) {
        s.k = Stmt::K::kReturn;
        s.lo = pos;
        s.hi = simpleEnd(toks, pos, hi);
        pos = s.hi;
        return s;
    }
    if (t.ident() && (t.is("break") || t.is("continue"))) {
        s.k = t.is("break") ? Stmt::K::kBreak : Stmt::K::kContinue;
        pos = simpleEnd(toks, pos, hi);
        return s;
    }
    if (t.ident() && t.is("try")) {
        // try-block inline; each catch is a may-execute branch.
        ++pos;
        Stmt block = parseOne(toks, pos, hi);
        s.k = Stmt::K::kBlock;
        s.kids.push_back(std::move(block));
        while (pos < hi && toks[pos].is("catch")) {
            size_t body = condOf(pos + 1);
            pos = body;
            Stmt branch;
            branch.k = Stmt::K::kIf;
            branch.kids.push_back(parseOne(toks, pos, hi));
            s.kids.push_back(std::move(branch));
        }
        return s;
    }
    if (t.is(";")) {
        s.k = Stmt::K::kSimple;
        s.lo = s.hi = pos;
        ++pos;
        return s;
    }
    s.k = Stmt::K::kSimple;
    s.lo = pos;
    s.hi = simpleEnd(toks, pos, hi);
    pos = s.hi;
    return s;
}

// ----------------------------------------------------------------------
// Events
// ----------------------------------------------------------------------

struct Ev
{
    enum class K
    {
        kSuspend,   // co_await; spinId non-empty when awaiting acquire()
        kAcquire,   // id held from here (spin lock / beginUse / try)
        kRelease,   // id released
        kGuard,     // host-thread guard declared (id = var name)
        kGuardKill, // guard scope ended
        kBind,      // borrow (re)bound: id = var
        kKill,      // borrow killed (reassigned to non-borrow)
        kUse,       // borrowed var used
    };
    K k;
    std::string id;
    int line = 0;
    /** kSuspend: identity being acquired by the awaited acquire(). */
    std::string spinId;
    /** kAcquire: 0 = awaited spin acquire, 1 = beginUse busy-mark. */
    int lockKind = 0;
};

/** Callees whose member-call result borrows from the callee chain. */
bool
isViewCallee(const std::string &t)
{
    static const std::set<std::string> v = {
        "data", "c_str", "bytes", "viewBytes", "frame",  "payload",
        "view", "span",  "find",  "begin",     "cbegin", "end",
        "at",   "front", "back",
    };
    return v.count(t) != 0;
}

bool
isVecCallee(const std::string &t)
{
    return t == "readv" || t == "writev" || t == "casv" ||
           t == "issueVector";
}

struct VecBind
{
    std::string var;
    int line = 0;
    std::string callee;
};

/** Per-function context threaded through eventization. */
struct FnCtx
{
    const Toks *toks = nullptr;
    /** Borrow vars currently known external (from the bind pre-pass). */
    std::set<std::string> tracked;
    /** Bound vectored-op outcomes (global per-function post-pass). */
    std::vector<VecBind> vecBinds;
    /** vars with a `.results` / `.status` / `.ok` access. */
    std::set<std::string> vecResultsSeen;
    std::set<std::string> vecStatusSeen;
    /** Discarded awaited vector ops: line -> callee. */
    std::vector<std::pair<int, std::string>> vecDiscards;
    /** Nested lambda bodies to analyze separately: [lbrace+1, rbrace). */
    std::vector<std::pair<size_t, size_t>> lambdas;
    bool collectLambdas = false;
};

/**
 * Chain externality: borrowed-from state reachable by other coroutines.
 * Roots: `this`, idents with the `_` member suffix anywhere in the
 * chain, or a var already tracked as an external borrow (transitivity:
 * `it = peers_.find(..)` then `peer = it->second`).
 */
bool
chainExternal(const Toks &toks, size_t lo, size_t hi, const FnCtx &ctx)
{
    for (size_t i = lo; i < hi; ++i) {
        const Token &t = toks[i];
        if (!t.ident()) {
            continue;
        }
        if (t.is("this") || (!t.text.empty() && t.text.back() == '_') ||
            ctx.tracked.count(t.text) != 0) {
            return true;
        }
    }
    return false;
}

/**
 * RHS borrow classification for [lo, hi). Returns true when the
 * initializer expression yields a pointer/iterator/reference into
 * external state:
 *  (a) a view/iterator member call (`.find(`, `.data(`, …) whose chain
 *      prefix is external — any LHS (the result itself points in);
 *  (b) a subscript on an external chain — only when @p refLike (a copy
 *      of the element is safe);
 *  (c) a plain chain rooted at an already-tracked borrow var — only
 *      when @p refLike (`const Peer &peer = it->second`).
 */
bool
rhsBorrows(const Toks &toks, size_t lo, size_t hi, bool refLike,
           const FnCtx &ctx)
{
    size_t start = lo;
    while (start < hi && (toks[start].is("&") || toks[start].is("*") ||
                          toks[start].is("("))) {
        ++start; // address-of / deref / parens change depth, not target
    }
    int depth = 0;
    for (size_t i = start; i < hi; ++i) {
        const Token &t = toks[i];
        if (t.is("(") || t.is("[") || t.is("{")) {
            // (a) view call?
            if (t.is("(") && i > start && toks[i - 1].ident() &&
                isViewCallee(toks[i - 1].text) && i >= 2 &&
                (toks[i - 2].is(".") || toks[i - 2].is("->")) &&
                depth == 0) {
                if (chainExternal(toks, start, i - 1, ctx)) {
                    return true;
                }
            }
            // (b) subscript on the chain so far?
            if (t.is("[") && depth == 0 && refLike && i > start &&
                (toks[i - 1].ident() || toks[i - 1].is(")")) &&
                chainExternal(toks, start, i, ctx)) {
                return true;
            }
            ++depth;
        } else if (t.is(")") || t.is("]") || t.is("}")) {
            --depth;
        }
    }
    // (c) pure chain rooted at a tracked var.
    if (refLike && start < hi && toks[start].ident() &&
        ctx.tracked.count(toks[start].text) != 0) {
        return true;
    }
    return false;
}

/**
 * Declaration shape in [lo, hi): `type-tokens name = init;` or a
 * range-for header `type-tokens name : range`. Returns the index of
 * the name token and the init range, or npos when not a declaration
 * with initializer.
 */
struct DeclShape
{
    size_t nameIdx = std::string::npos;
    size_t rhsLo = 0, rhsHi = 0;
    bool refLike = false;   // type mentions & * string_view span
    bool isDecl = false;    // ≥2 LHS tokens (vs. plain `x = …`)
};

DeclShape
declShapeIn(const Toks &toks, size_t lo, size_t hi, bool rangeFor)
{
    DeclShape d;
    int depth = 0;
    size_t split = std::string::npos;
    for (size_t i = lo; i < hi; ++i) {
        const Token &t = toks[i];
        if (t.is("(") || t.is("[") || t.is("{")) {
            ++depth;
        } else if (t.is(")") || t.is("]") || t.is("}")) {
            --depth;
        } else if (depth == 0 && !rangeFor && t.is("=") &&
                   (i + 1 >= hi || !toks[i + 1].is("=")) &&
                   (i == lo ||
                    !(toks[i - 1].is("=") || toks[i - 1].is("!") ||
                      toks[i - 1].is("<") || toks[i - 1].is(">") ||
                      toks[i - 1].is("+") || toks[i - 1].is("-") ||
                      toks[i - 1].is("*") || toks[i - 1].is("/") ||
                      toks[i - 1].is("%") || toks[i - 1].is("&") ||
                      toks[i - 1].is("|") || toks[i - 1].is("^")))) {
            split = i;
            break;
        } else if (depth == 0 && rangeFor && t.is(":")) {
            split = i;
            break;
        }
    }
    if (split == std::string::npos || split == lo || split + 1 >= hi) {
        return d;
    }
    if (!toks[split - 1].ident() || isKeyword(toks[split - 1].text)) {
        return d;
    }
    d.nameIdx = split - 1;
    d.rhsLo = split + 1;
    d.rhsHi = hi;
    // LHS classification: declaration when the name follows type
    // tokens; `x = …` (one LHS token) and `x.y = …` chains are not.
    size_t lhsCount = split - lo;
    if (lhsCount >= 2) {
        const Token &prev = toks[split - 2];
        d.isDecl = prev.ident() || prev.is("*") || prev.is("&") ||
                   prev.is(">") || prev.is(">>") || prev.is("&&");
        if (prev.is(".") || prev.is("->")) {
            d.isDecl = false;
        }
    }
    for (size_t i = lo; i < split - 1; ++i) {
        if (toks[i].is("&") || toks[i].is("*") || toks[i].is("&&") ||
            toks[i].is("string_view") || toks[i].is("span") ||
            toks[i].is("ConstSpan")) {
            d.refLike = true;
        }
    }
    return d;
}

/**
 * Eventize one statement-level token range. Nested lambda bodies are
 * recorded (for separate analysis) and skipped. Two modes share the
 * walk: the bind pre-pass (emit == nullptr) only grows ctx.tracked /
 * ctx.vecBinds; the emit pass appends ordered events.
 */
void
scanRange(FnCtx &ctx, size_t lo, size_t hi, bool rangeFor,
          std::vector<Ev> *emit)
{
    const Toks &toks = *ctx.toks;
    DeclShape decl = declShapeIn(toks, lo, hi, rangeFor);
    bool declBorrows = false;
    std::string declVar;
    if (decl.nameIdx != std::string::npos) {
        declVar = toks[decl.nameIdx].text;
        bool refLike = decl.refLike;
        if (decl.isDecl || rangeFor ||
            ctx.tracked.count(declVar) != 0) {
            declBorrows =
                rhsBorrows(toks, decl.rhsLo, decl.rhsHi,
                           refLike || rangeFor, ctx);
        }
        // Vectored-op bind: `var = co_await …readv(…)`.
        for (size_t i = decl.rhsLo; i + 2 < decl.rhsHi; ++i) {
            if (toks[i].ident() && isVecCallee(toks[i].text) &&
                toks[i + 1].is("(")) {
                bool awaited = false;
                for (size_t q = decl.rhsLo; q < i; ++q) {
                    if (toks[q].is("co_await")) {
                        awaited = true;
                    }
                }
                if (awaited && emit == nullptr) {
                    ctx.vecBinds.push_back(
                        VecBind{declVar, toks[i].line, toks[i].text});
                }
            }
        }
        if (declBorrows && emit == nullptr) {
            ctx.tracked.insert(declVar);
        }
    }

    // Discarded awaited vector op: statement starts with co_await and
    // has no binding.
    if (emit == nullptr && decl.nameIdx == std::string::npos && lo < hi &&
        toks[lo].is("co_await")) {
        for (size_t i = lo; i + 1 < hi; ++i) {
            if (toks[i].ident() && isVecCallee(toks[i].text) &&
                toks[i + 1].is("(")) {
                ctx.vecDiscards.emplace_back(toks[i].line, toks[i].text);
                break;
            }
        }
    }

    // `co_await` suspends after its operand is evaluated, so the
    // suspend event is deferred to the operand's last token.
    std::map<size_t, Ev> pendingSusp;

    for (size_t i = lo; i < hi; ++i) {
        const Token &t = toks[i];

        // Nested lambda: separate analysis unit; skip its body.
        size_t rb = 0;
        size_t lb = lambdaBodyAt(toks, i, &rb);
        if (lb != std::string::npos && rb < hi) {
            if (emit == nullptr && ctx.collectLambdas) {
                ctx.lambdas.emplace_back(lb + 1, rb);
            }
            i = rb;
            continue;
        }

        if (t.is("co_await")) {
            // Find the awaited member call (if any) to classify it.
            Ev susp{Ev::K::kSuspend, "", t.line, "", 0};
            size_t at = i; // emit right here unless a call is found
            for (size_t q = i + 1; q < hi; ++q) {
                if (toks[q].is(";") || toks[q].is("co_await")) {
                    break;
                }
                if (toks[q].ident() && q + 1 < hi && toks[q + 1].is("(") &&
                    !(toks[q - 1].is(".") || toks[q - 1].is("->"))) {
                    // Free-function await (sim::delay(…), helper(…)):
                    // suspend after the argument list is evaluated.
                    at = std::min(matchTok(toks, q + 1, "(", ")"), hi - 1);
                    pendingSusp[at] = susp;
                    break;
                }
                if (toks[q].ident() && q + 1 < hi && toks[q + 1].is("(") &&
                    q > i + 1 &&
                    (toks[q - 1].is(".") || toks[q - 1].is("->"))) {
                    size_t close = matchTok(toks, q + 1, "(", ")");
                    std::string chain = spanText(toks, i + 1, q - 1);
                    std::string args =
                        spanText(toks, q + 2, std::min(close, hi));
                    std::string id = chain + "|" + args;
                    at = std::min(close, hi - 1);
                    if (toks[q].is("acquire")) {
                        susp.spinId = id;
                        pendingSusp[at] = susp;
                    } else if (toks[q].is("tryAcquire")) {
                        pendingSusp[at] = susp;
                        pendingSusp[at].id = id;
                        pendingSusp[at].lockKind = 2; // try marker
                    } else if (toks[q].is("release")) {
                        pendingSusp[at] = susp;
                        pendingSusp[at].id = id;
                        pendingSusp[at].lockKind = 3; // release marker
                    } else {
                        pendingSusp[at] = susp;
                    }
                    break;
                }
            }
            if (pendingSusp.count(at) == 0) {
                pendingSusp[at] = susp; // plain `co_await expr`
            }
            if (at == i && emit != nullptr) {
                // No operand call: emit immediately.
                auto it = pendingSusp.find(at);
                emit->push_back(it->second);
                pendingSusp.erase(it);
            }
            continue;
        }

        // Plain (non-awaited) release / beginUse / endUse member calls.
        if (t.ident() && i + 1 < hi && toks[i + 1].is("(") && i > lo &&
            (toks[i - 1].is(".") || toks[i - 1].is("->")) &&
            (t.is("release") || t.is("unlock") || t.is("endUse") ||
             t.is("beginUse"))) {
            // Chain start: walk back over ident/::/./-> tokens.
            size_t cs = i - 1;
            while (cs > lo &&
                   (toks[cs - 1].ident() || toks[cs - 1].is("::") ||
                    toks[cs - 1].is(".") || toks[cs - 1].is("->"))) {
                --cs;
            }
            size_t close = matchTok(toks, i + 1, "(", ")");
            std::string id = spanText(toks, cs, i - 1) + "|" +
                             spanText(toks, i + 2, std::min(close, hi));
            if (emit != nullptr) {
                if (t.is("beginUse")) {
                    emit->push_back(
                        Ev{Ev::K::kAcquire, id, t.line, "", 1});
                } else {
                    emit->push_back(Ev{Ev::K::kRelease, id, t.line, "", 0});
                }
            }
        }

        // Host-thread guard declaration.
        if (t.ident() &&
            (t.is("lock_guard") || t.is("unique_lock") ||
             t.is("scoped_lock"))) {
            size_t j = i + 1;
            if (j < hi && toks[j].is("<")) {
                j = matchTok(toks, j, "<", ">");
                j = j < hi ? j + 1 : j;
            }
            if (j < hi && toks[j].ident() && j + 1 < hi &&
                (toks[j + 1].is("(") || toks[j + 1].is("{"))) {
                if (emit != nullptr) {
                    emit->push_back(Ev{Ev::K::kGuard,
                                       toks[j].text + "|", t.line, "", 0});
                }
            }
        }

        // Vector-outcome inspection: `var . results` / `.status` /
        // `.ok(`.
        if (t.ident() && i + 2 < hi &&
            (toks[i + 1].is(".") || toks[i + 1].is("->")) &&
            toks[i + 2].ident() && emit == nullptr) {
            if (toks[i + 2].is("results")) {
                ctx.vecResultsSeen.insert(t.text);
            } else if (toks[i + 2].is("status") || toks[i + 2].is("ok")) {
                ctx.vecStatusSeen.insert(t.text);
            }
        }

        // Returning the whole outcome (`co_return out;`) escapes it:
        // the caller inherits the inspection obligation (forwarding
        // wrappers stay clean). Returning a projection of it
        // (`co_return out.status;`) does not — that is exactly the
        // results-dropped shape the rule exists for.
        if (t.ident() && i > lo && emit == nullptr &&
            (toks[i - 1].is("return") || toks[i - 1].is("co_return")) &&
            i + 1 < hi && toks[i + 1].is(";")) {
            ctx.vecResultsSeen.insert(t.text);
        }

        // Tracked-borrow uses / rebinds.
        if (emit != nullptr && t.ident() &&
            ctx.tracked.count(t.text) != 0 &&
            (i == lo || (!toks[i - 1].is(".") && !toks[i - 1].is("->") &&
                         !toks[i - 1].is("::")))) {
            if (i == decl.nameIdx) {
                if (declBorrows) {
                    emit->push_back(Ev{Ev::K::kBind, t.text, t.line, "", 0});
                } else if (!decl.isDecl) {
                    // Reassigned to a non-borrow: kill.
                    emit->push_back(Ev{Ev::K::kKill, t.text, t.line, "", 0});
                }
            } else {
                emit->push_back(Ev{Ev::K::kUse, t.text, t.line, "", 0});
            }
        }

        // Flush any suspend whose operand ends here.
        auto ps = pendingSusp.find(i);
        if (ps != pendingSusp.end()) {
            if (emit != nullptr) {
                Ev &ev = ps->second;
                if (ev.lockKind == 2) {
                    // tryAcquire: suspend (non-spinning), then held.
                    emit->push_back(
                        Ev{Ev::K::kSuspend, "", ev.line, "", 0});
                    emit->push_back(
                        Ev{Ev::K::kAcquire, ev.id, ev.line, "", 0});
                } else if (ev.lockKind == 3) {
                    emit->push_back(
                        Ev{Ev::K::kSuspend, "", ev.line, "", 0});
                    emit->push_back(
                        Ev{Ev::K::kRelease, ev.id, ev.line, "", 0});
                } else if (!ev.spinId.empty()) {
                    emit->push_back(Ev{Ev::K::kSuspend, "", ev.line,
                                       ev.spinId, 0});
                    emit->push_back(
                        Ev{Ev::K::kAcquire, ev.spinId, ev.line, "", 0});
                } else {
                    emit->push_back(Ev{Ev::K::kSuspend, "", ev.line, "", 0});
                }
            }
            pendingSusp.erase(ps);
        }
    }
    if (emit != nullptr) {
        for (auto &[at, ev] : pendingSusp) {
            (void)at;
            if (!ev.spinId.empty()) {
                emit->push_back(
                    Ev{Ev::K::kSuspend, "", ev.line, ev.spinId, 0});
                emit->push_back(
                    Ev{Ev::K::kAcquire, ev.spinId, ev.line, "", 0});
            } else if (ev.lockKind == 2) {
                emit->push_back(Ev{Ev::K::kSuspend, "", ev.line, "", 0});
                emit->push_back(Ev{Ev::K::kAcquire, ev.id, ev.line, "", 0});
            } else if (ev.lockKind == 3) {
                emit->push_back(Ev{Ev::K::kSuspend, "", ev.line, "", 0});
                emit->push_back(Ev{Ev::K::kRelease, ev.id, ev.line, "", 0});
            } else {
                emit->push_back(Ev{Ev::K::kSuspend, "", ev.line, "", 0});
            }
        }
    }
}

// ----------------------------------------------------------------------
// CFG
// ----------------------------------------------------------------------

struct BB
{
    std::vector<Ev> evs;
    std::vector<int> succ;
};

struct Cfg
{
    std::vector<BB> bbs;
    int exit = 1; // bbs[0] = entry, bbs[1] = exit
};

struct Lowerer
{
    FnCtx &ctx;
    Cfg &cfg;

    int
    fresh()
    {
        cfg.bbs.emplace_back();
        return static_cast<int>(cfg.bbs.size()) - 1;
    }

    void
    edge(int from, int to)
    {
        cfg.bbs[from].succ.push_back(to);
    }

    void
    emitRange(int bb, size_t lo, size_t hi, bool rangeFor)
    {
        scanRange(ctx, lo, hi, rangeFor, &cfg.bbs[bb].evs);
    }

    /** Lower @p stmts starting in @p cur; returns the block after. */
    int
    lower(const std::vector<Stmt> &stmts, int cur, int breakTo,
          int continueTo)
    {
        std::vector<std::string> scopeGuards;
        for (const Stmt &s : stmts) {
            cur = lowerOne(s, cur, breakTo, continueTo, &scopeGuards);
        }
        for (const std::string &g : scopeGuards) {
            cfg.bbs[cur].evs.push_back(Ev{Ev::K::kGuardKill, g, 0, "", 0});
        }
        return cur;
    }

    int
    lowerOne(const Stmt &s, int cur, int breakTo, int continueTo,
             std::vector<std::string> *scopeGuards)
    {
        switch (s.k) {
        case Stmt::K::kSimple:
        case Stmt::K::kReturn: {
            size_t before = cfg.bbs[cur].evs.size();
            emitRange(cur, s.lo, s.hi, false);
            if (scopeGuards != nullptr) {
                for (size_t i = before; i < cfg.bbs[cur].evs.size(); ++i) {
                    if (cfg.bbs[cur].evs[i].k == Ev::K::kGuard) {
                        scopeGuards->push_back(cfg.bbs[cur].evs[i].id);
                    }
                }
            }
            if (s.k == Stmt::K::kReturn) {
                edge(cur, cfg.exit);
                return fresh(); // unreachable continuation
            }
            return cur;
        }
        case Stmt::K::kBlock: {
            return lower(s.kids, cur, breakTo, continueTo);
        }
        case Stmt::K::kIf: {
            emitRange(cur, s.condLo, s.condHi, false);
            int join = fresh();
            int thenB = fresh();
            edge(cur, thenB);
            int thenEnd =
                lowerOne(s.kids[0], thenB, breakTo, continueTo, nullptr);
            edge(thenEnd, join);
            if (s.kids.size() > 1) {
                int elseB = fresh();
                edge(cur, elseB);
                int elseEnd = lowerOne(s.kids[1], elseB, breakTo,
                                       continueTo, nullptr);
                edge(elseEnd, join);
            } else {
                edge(cur, join);
            }
            return join;
        }
        case Stmt::K::kLoop: {
            int head = fresh();
            edge(cur, head);
            emitRange(head, s.condLo, s.condHi, s.rangeFor);
            int after = fresh();
            int body = fresh();
            edge(head, body);
            edge(head, after);
            int bodyEnd = lowerOne(s.kids[0], body, after, head, nullptr);
            edge(bodyEnd, head);
            return after;
        }
        case Stmt::K::kDoWhile: {
            int body = fresh();
            edge(cur, body);
            int after = fresh();
            int head = fresh();
            int bodyEnd = lowerOne(s.kids[0], body, after, head, nullptr);
            edge(bodyEnd, head);
            emitRange(head, s.condLo, s.condHi, false);
            edge(head, body);
            edge(head, after);
            return after;
        }
        case Stmt::K::kSwitch: {
            emitRange(cur, s.condLo, s.condHi, false);
            int after = fresh();
            edge(cur, after); // no-case / no-default fallthrough
            // Each kCase marker starts a new block with an edge from
            // the switch head; consecutive blocks keep the real
            // fallthrough edge.
            const std::vector<Stmt> &body =
                s.kids[0].k == Stmt::K::kBlock ? s.kids[0].kids
                                               : s.kids;
            int caseB = fresh();
            edge(cur, caseB);
            int run = caseB;
            for (const Stmt &k : body) {
                if (k.k == Stmt::K::kCase) {
                    int next = fresh();
                    edge(run, next); // fallthrough
                    edge(cur, next); // direct dispatch
                    run = next;
                    continue;
                }
                run = lowerOne(k, run, after, continueTo, nullptr);
            }
            edge(run, after);
            return after;
        }
        case Stmt::K::kCase:
            return cur; // only meaningful inside kSwitch handling
        case Stmt::K::kBreak:
            if (breakTo >= 0) {
                edge(cur, breakTo);
            }
            return fresh();
        case Stmt::K::kContinue:
            if (continueTo >= 0) {
                edge(cur, continueTo);
            }
            return fresh();
        }
        return cur;
    }
};

// ----------------------------------------------------------------------
// Dataflow
// ----------------------------------------------------------------------

struct LockSt
{
    int line = 0;
    int kind = 0; // 0 spin/try, 1 beginUse, 2 guard

    bool
    operator==(const LockSt &o) const
    {
        return line == o.line && kind == o.kind;
    }
};

struct BorrowSt
{
    int bindLine = 0;
    bool stale = false;

    bool
    operator==(const BorrowSt &o) const
    {
        return bindLine == o.bindLine && stale == o.stale;
    }
};

struct St
{
    bool reachable = false;
    std::map<std::string, LockSt> held;
    std::map<std::string, BorrowSt> borrows;

    bool
    operator==(const St &o) const
    {
        return reachable == o.reachable && held == o.held &&
               borrows == o.borrows;
    }
};

void
joinInto(St &into, const St &from)
{
    if (!from.reachable) {
        return;
    }
    into.reachable = true;
    for (const auto &[id, l] : from.held) {
        auto it = into.held.find(id);
        if (it == into.held.end()) {
            into.held[id] = l;
        } else if (l.line < it->second.line) {
            it->second.line = l.line;
        }
    }
    for (const auto &[v, b] : from.borrows) {
        auto it = into.borrows.find(v);
        if (it == into.borrows.end()) {
            into.borrows[v] = b;
        } else {
            if (b.stale && !it->second.stale) {
                it->second = b; // keep the stale binding's line
            }
        }
    }
}

struct Reporter
{
    std::string_view path;
    const SourceModel *model = nullptr;
    std::vector<Finding> *out = nullptr;
    std::set<std::string> emitted;

    void
    report(Rule rule, int line, int originLine, const std::string &key,
           std::string msg)
    {
        std::string dedup =
            std::to_string(static_cast<int>(rule)) + ":" +
            std::to_string(line) + ":" + key;
        if (emitted.count(dedup) != 0) {
            return;
        }
        emitted.insert(dedup);
        if (suppressedAt(*model, line, rule) ||
            (originLine != 0 && suppressedAt(*model, originLine, rule))) {
            return;
        }
        out->push_back(
            Finding{rule, std::string(path), line, std::move(msg)});
    }
};

/** Human-readable lock identity: "chain(args)" from "chain|args". */
std::string
prettyId(const std::string &id)
{
    size_t bar = id.find('|');
    if (bar == std::string::npos) {
        return id;
    }
    return id.substr(0, bar) + "(" + id.substr(bar + 1) + ")";
}

void
transfer(const BB &bb, St &st, Reporter *rep)
{
    for (const Ev &ev : bb.evs) {
        switch (ev.k) {
        case Ev::K::kSuspend: {
            if (!ev.spinId.empty() && rep != nullptr) {
                for (const auto &[id, l] : st.held) {
                    if (id != ev.spinId && l.kind != 1) {
                        rep->report(
                            Rule::kLockAcrossSuspension, ev.line, l.line,
                            id,
                            "suspending on " + prettyId(ev.spinId) +
                                ".acquire() while still holding " +
                                prettyId(id) + " (acquired line " +
                                std::to_string(l.line) +
                                "): cross-order deadlock if another "
                                "coroutine acquires in the opposite "
                                "order — release first, or merge into "
                                "one ordered acquisition");
                    }
                }
            }
            if (rep != nullptr) {
                for (const auto &[id, l] : st.held) {
                    if (l.kind == 2) {
                        rep->report(
                            Rule::kLockAcrossSuspension, ev.line, l.line,
                            id,
                            "co_await while host-thread guard " +
                                prettyId(id) + " (line " +
                                std::to_string(l.line) +
                                ") is live: the guard blocks the OS "
                                "thread across the suspension — use the "
                                "awaited SpinLock protocol instead");
                    }
                }
            }
            for (auto &[v, b] : st.borrows) {
                (void)v;
                b.stale = true;
            }
            break;
        }
        case Ev::K::kAcquire:
            st.held[ev.id] = LockSt{ev.line, ev.lockKind};
            break;
        case Ev::K::kRelease:
            st.held.erase(ev.id);
            break;
        case Ev::K::kGuard:
            st.held[ev.id] = LockSt{ev.line, 2};
            break;
        case Ev::K::kGuardKill:
            st.held.erase(ev.id);
            break;
        case Ev::K::kBind:
            st.borrows[ev.id] = BorrowSt{ev.line, false};
            break;
        case Ev::K::kKill:
            st.borrows.erase(ev.id);
            break;
        case Ev::K::kUse: {
            auto it = st.borrows.find(ev.id);
            if (it != st.borrows.end() && it->second.stale &&
                rep != nullptr) {
                rep->report(
                    Rule::kUseAfterSuspension, ev.line,
                    it->second.bindLine, ev.id,
                    "'" + ev.id + "' borrows external state (bound line " +
                        std::to_string(it->second.bindLine) +
                        ") and is used after a suspension point that may "
                        "have invalidated it — rebind after the co_await "
                        "or copy the value before suspending");
            }
            break;
        }
        }
    }
}

// ----------------------------------------------------------------------
// Per-function analysis
// ----------------------------------------------------------------------

void analyzeRange(std::string_view path, const SourceModel &s, size_t lo,
                  size_t hi, std::vector<Finding> &out);

void
analyzeFunction(std::string_view path, const SourceModel &s, size_t lo,
                size_t hi, std::vector<Finding> &out)
{
    const Toks &toks = s.tokens;
    std::vector<Stmt> stmts = parseStmts(toks, lo, hi);

    FnCtx ctx;
    ctx.toks = &toks;
    ctx.collectLambdas = true;

    // Bind pre-pass, in textual order, so uses textually before a
    // loop-carried bind still resolve. Transitive externality needs
    // binds processed in order; the tree walk below is textual.
    struct PrePass
    {
        FnCtx &ctx;
        void
        walk(const std::vector<Stmt> &ss)
        {
            for (const Stmt &st : ss) {
                if (st.k == Stmt::K::kSimple ||
                    st.k == Stmt::K::kReturn) {
                    scanRange(ctx, st.lo, st.hi, false, nullptr);
                } else {
                    if (st.condHi > st.condLo) {
                        scanRange(ctx, st.condLo, st.condHi, st.rangeFor,
                                  nullptr);
                    }
                    walk(st.kids);
                }
            }
        }
    } pre{ctx};
    pre.walk(stmts);
    ctx.collectLambdas = false;

    // CFG lowering (emit pass).
    Cfg cfg;
    cfg.bbs.resize(2); // entry, exit
    Lowerer low{ctx, cfg};
    int end = low.lower(stmts, 0, -1, -1);
    low.edge(end, cfg.exit);

    // Forward may-dataflow to fixpoint, reporting as states grow
    // (states are monotone under union joins, so every early report is
    // valid at the fixpoint; the dedup set absorbs revisits).
    Reporter rep{path, &s, &out, {}};
    size_t n = cfg.bbs.size();
    std::vector<St> in(n), outSt(n);
    in[0].reachable = true;
    std::vector<int> work;
    work.push_back(0);
    std::vector<bool> queued(n, false);
    queued[0] = true;
    int iterations = 0;
    while (!work.empty() && iterations < 10000) {
        ++iterations;
        int b = work.back();
        work.pop_back();
        queued[b] = false;
        St st = in[b];
        if (!st.reachable) {
            continue;
        }
        transfer(cfg.bbs[b], st, &rep);
        if (st == outSt[b]) {
            continue;
        }
        outSt[b] = st;
        for (int succ : cfg.bbs[b].succ) {
            St merged = in[succ];
            joinInto(merged, st);
            if (!(merged == in[succ])) {
                in[succ] = merged;
                if (!queued[succ]) {
                    work.push_back(succ);
                    queued[succ] = true;
                }
            }
        }
    }

    // remora-release-on-all-paths: may-held at exit, for identities the
    // function does release somewhere (a paired shape; acquire-only
    // helpers stay silent). Guards are RAII and exempt.
    std::set<std::string> releasedSomewhere;
    for (const BB &bb : cfg.bbs) {
        for (const Ev &ev : bb.evs) {
            if (ev.k == Ev::K::kRelease) {
                releasedSomewhere.insert(ev.id);
            }
        }
    }
    for (const auto &[id, l] : in[cfg.exit].held) {
        if (l.kind == 2 || releasedSomewhere.count(id) == 0) {
            continue;
        }
        rep.report(Rule::kReleaseOnAllPaths, l.line, 0, id,
                   prettyId(id) +
                       " is released on some paths but an early exit "
                       "can leave it held — release before every "
                       "return, or hold it in a scoped owner "
                       "(advisory)");
    }

    // remora-unchecked-vector-status: function-global inspection check.
    for (const VecBind &vb : ctx.vecBinds) {
        bool inspected =
            ctx.vecResultsSeen.count(vb.var) != 0 ||
            (vb.callee == "writev" &&
             ctx.vecStatusSeen.count(vb.var) != 0);
        if (!inspected) {
            rep.report(
                Rule::kUncheckedVectorStatus, vb.line, 0, vb.var,
                "outcome of " + vb.callee + "() bound to '" + vb.var +
                    "' but its per-sub-op .results are never "
                    "inspected: a stale generation fails the sub-op, "
                    "not the batch (advisory)");
        }
    }
    for (const auto &[line, callee] : ctx.vecDiscards) {
        rep.report(Rule::kUncheckedVectorStatus, line, 0, callee,
                   "result of awaited " + callee +
                       "() discarded: per-sub-op statuses are the only "
                       "way to observe partial failure (advisory)");
    }

    // Nested lambdas: independent analysis units.
    for (const auto &[llo, lhi] : ctx.lambdas) {
        analyzeRange(path, s, llo, lhi, out);
    }
}

void
analyzeRange(std::string_view path, const SourceModel &s, size_t lo,
             size_t hi, std::vector<Finding> &out)
{
    analyzeFunction(path, s, lo, hi, out);
}

} // namespace

void
checkFlowRules(std::string_view path, const SourceModel &s,
               const Options &opts, std::vector<Finding> &out)
{
    (void)opts;
    for (const FnRange &fn : extractFunctions(s.tokens)) {
        analyzeFunction(path, s, fn.lbrace + 1, fn.rbrace, out);
    }
}

} // namespace remora::lint
