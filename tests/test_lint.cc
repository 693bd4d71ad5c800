/**
 * @file
 * Unit tests for the remora-lint rule engine, driven on fixture sources.
 *
 * Every fixture lives in a raw string so the linter's own scrubbing pass
 * keeps the clean-tree gate (test_lint_clean.cc) from tripping on the
 * deliberately hazardous code below.
 */
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "layers.h"
#include "lint.h"

namespace remora::lint {
namespace {

/** Findings of one rule only, to keep assertions focused. */
std::vector<Finding>
only(const std::vector<Finding> &all, Rule rule)
{
    std::vector<Finding> out;
    for (const Finding &f : all) {
        if (f.rule == rule) {
            out.push_back(f);
        }
    }
    return out;
}

/** Options with the include rules off, for coroutine-only fixtures. */
Options
coroutineOnly()
{
    Options o;
    o.checkIncludes = false;
    o.checkNondeterminism = false;
    return o;
}

// ----------------------------------------------------------------------
// Coroutine parameter hazards
// ----------------------------------------------------------------------

TEST(LintCoroutine, SeededReferenceParameterFixtureIsDetected)
{
    // The canonical PR 1 bug shape: a clerk coroutine taking the name by
    // const reference. The caller's temporary dies at the first
    // co_await, leaving the frame with a dangling reference.
    constexpr std::string_view kFixture = R"cc(
namespace remora::names {

sim::Task<rmem::ImportedSegment>
NameClerk::import(const std::string &name, net::NodeId serverHint)
{
    co_await probe(serverHint);
    co_return lookup(name);
}

} // namespace remora::names
)cc";
    auto findings = lintSource("fixture.cc", kFixture, coroutineOnly());
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, Rule::kCoroutineRefParam);
    EXPECT_TRUE(ruleIsError(findings[0].rule));
    // Reported at the parameter, with the fix spelled out.
    EXPECT_EQ(findings[0].line, 5);
    EXPECT_NE(findings[0].message.find("NameClerk::import"),
              std::string::npos);
    EXPECT_NE(findings[0].message.find("pass by value"), std::string::npos);
    // The by-value NodeId parameter is not implicated.
    EXPECT_EQ(findings[0].message.find("serverHint"), std::string::npos);
}

TEST(LintCoroutine, ValueParametersAreClean)
{
    constexpr std::string_view kFixture = R"cc(
sim::Task<void>
publish(std::string name, std::vector<uint8_t> payload, uint32_t flags)
{
    co_return;
}
)cc";
    EXPECT_TRUE(lintSource("fixture.cc", kFixture, coroutineOnly()).empty());
}

TEST(LintCoroutine, StringViewParameterIsError)
{
    // string_view is a reference in a trench coat: it views caller
    // storage even when passed "by value".
    constexpr std::string_view kFixture = R"cc(
sim::Task<Status> resolve(std::string_view name);
)cc";
    auto findings = lintSource("fixture.cc", kFixture, coroutineOnly());
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, Rule::kCoroutineRefParam);
    EXPECT_NE(findings[0].message.find("string_view"), std::string::npos);
}

TEST(LintCoroutine, RvalueReferenceParameterIsError)
{
    constexpr std::string_view kFixture = R"cc(
sim::Task<void> consume(std::vector<uint8_t> &&data);
)cc";
    auto findings = lintSource("fixture.cc", kFixture, coroutineOnly());
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, Rule::kCoroutineRefParam);
}

TEST(LintCoroutine, NamedFunctionPointerParameterIsAdvisory)
{
    constexpr std::string_view kFixture = R"cc(
sim::Task<Result<Handle>> exportByName(mem::Process *owner, uint32_t len);
)cc";
    auto findings = lintSource("fixture.cc", kFixture, coroutineOnly());
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, Rule::kCoroutinePtrParam);
    // Advisory, not an error: pointers cannot bind temporaries.
    EXPECT_FALSE(ruleIsError(findings[0].rule));
}

TEST(LintCoroutine, LambdaPointerParametersAreExempt)
{
    // The tree's sanctioned idiom for detached coroutine lambdas: the
    // caller must write &object, which cannot name a temporary.
    constexpr std::string_view kFixture = R"cc(
auto drive = [](names::NameClerk *self, rmem::RmemEngine *eng,
                int rounds) -> sim::Task<void> {
    co_await self->refresh(*eng, rounds);
};
)cc";
    EXPECT_TRUE(lintSource("fixture.cc", kFixture, coroutineOnly()).empty());
}

TEST(LintCoroutine, LambdaReferenceParameterIsError)
{
    constexpr std::string_view kFixture = R"cc(
auto echo = [](const std::vector<uint8_t> &args) -> sim::Task<void> {
    co_return;
};
)cc";
    auto findings = lintSource("fixture.cc", kFixture, coroutineOnly());
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, Rule::kCoroutineRefParam);
    EXPECT_NE(findings[0].message.find("lambda coroutine"),
              std::string::npos);
}

TEST(LintCoroutine, LambdaWithSpecifiersStillMatches)
{
    constexpr std::string_view kFixture = R"cc(
auto f = [](std::string &s) mutable noexcept -> sim::Task<int> {
    co_return 0;
};
)cc";
    auto findings = lintSource("fixture.cc", kFixture, coroutineOnly());
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, Rule::kCoroutineRefParam);
}

TEST(LintCoroutine, FunctionTypesAreNotDeclarations)
{
    // std::function<Task<...>(...)> spells a signature, not a coroutine;
    // the handler it stores is checked where it is defined.
    constexpr std::string_view kFixture = R"cc(
using Handler =
    std::function<sim::Task<std::vector<uint8_t>>(net::NodeId,
                                                  std::vector<uint8_t>)>;
std::function<sim::Task<void>(const std::string &)> onEvent;
)cc";
    EXPECT_TRUE(lintSource("fixture.cc", kFixture, coroutineOnly()).empty());
}

TEST(LintCoroutine, TaskTemplateItselfIsNotFlagged)
{
    constexpr std::string_view kFixture = R"cc(
template <typename T>
class Task
{
  public:
    Task(Task &&other) noexcept;
};
struct Task;
sim::Task<void> pending;
)cc";
    EXPECT_TRUE(lintSource("fixture.cc", kFixture, coroutineOnly()).empty());
}

TEST(LintCoroutine, MultiLineParameterReportsItsOwnLine)
{
    constexpr std::string_view kFixture = R"cc(
sim::Task<void>
process(uint64_t id,
        const std::string &name)
{
    co_return;
}
)cc";
    auto findings = lintSource("fixture.cc", kFixture, coroutineOnly());
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 4);
}

TEST(LintCoroutine, DefaultArgumentShiftsDoNotConfuseAngleDepth)
{
    // The '<<' in the default argument must not open an angle scope and
    // swallow the rest of the parameter list.
    constexpr std::string_view kFixture = R"cc(
sim::Task<void> grow(uint32_t len = 1 << 12, const Config &cfg = {});
)cc";
    auto findings = lintSource("fixture.cc", kFixture, coroutineOnly());
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, Rule::kCoroutineRefParam);
}

// ----------------------------------------------------------------------
// NOLINT suppression
// ----------------------------------------------------------------------

TEST(LintSuppression, SameLineNolintWithRuleName)
{
    constexpr std::string_view kFixture = R"cc(
sim::Task<void> f(int &x); // NOLINT(remora-coroutine-ref-param)
)cc";
    EXPECT_TRUE(lintSource("fixture.cc", kFixture, coroutineOnly()).empty());
}

TEST(LintSuppression, NolintNextLine)
{
    constexpr std::string_view kFixture = R"cc(
// NOLINTNEXTLINE(remora-coroutine-ref-param)
sim::Task<void> f(int &x);
)cc";
    EXPECT_TRUE(lintSource("fixture.cc", kFixture, coroutineOnly()).empty());
}

TEST(LintSuppression, ClangTidyAliasIsAccepted)
{
    // One comment must silence both remora-lint and clang-tidy.
    constexpr std::string_view kFixture = R"cc(
// NOLINTNEXTLINE(cppcoreguidelines-avoid-reference-coroutine-parameters)
sim::Task<void> f(int &x);
)cc";
    EXPECT_TRUE(lintSource("fixture.cc", kFixture, coroutineOnly()).empty());
}

TEST(LintSuppression, BareNolintSilencesEverything)
{
    constexpr std::string_view kFixture = R"cc(
sim::Task<void> f(int &x); // NOLINT
)cc";
    EXPECT_TRUE(lintSource("fixture.cc", kFixture, coroutineOnly()).empty());
}

TEST(LintSuppression, UnrelatedRuleNameDoesNotSuppress)
{
    constexpr std::string_view kFixture = R"cc(
sim::Task<void> f(int &x); // NOLINT(remora-nondeterminism)
)cc";
    auto findings = lintSource("fixture.cc", kFixture, coroutineOnly());
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, Rule::kCoroutineRefParam);
}

TEST(LintSuppression, CertAliasSuppressesNondeterminism)
{
    constexpr std::string_view kFixture = R"cc(
int seed() { return std::rand(); } // NOLINT(cert-msc50-cpp)
)cc";
    Options o;
    o.checkIncludes = false;
    EXPECT_TRUE(lintSource("fixture.cc", kFixture, o).empty());
}

// ----------------------------------------------------------------------
// Nondeterminism sources
// ----------------------------------------------------------------------

TEST(LintNondeterminism, BannedSourcesAreFlagged)
{
    constexpr std::string_view kFixture = R"cc(
void jitter()
{
    std::srand(42);
    int x = std::rand();
    time_t t = time(nullptr);
    auto n = std::chrono::system_clock::now();
    auto h = std::chrono::high_resolution_clock::now();
    std::random_device rd;
    gettimeofday(&tv, nullptr);
}
)cc";
    Options o;
    o.checkIncludes = false;
    auto findings = only(lintSource("fixture.cc", kFixture, o),
                         Rule::kNondeterminism);
    EXPECT_EQ(findings.size(), 7u);
    for (const Finding &f : findings) {
        EXPECT_TRUE(ruleIsError(f.rule));
    }
}

TEST(LintNondeterminism, RandomDeviceAllowedInSanctionedFile)
{
    constexpr std::string_view kFixture = R"cc(
uint64_t entropySeed()
{
    std::random_device rd;
    return rd();
}
)cc";
    Options o;
    o.checkIncludes = false;
    ASSERT_EQ(lintSource("fixture.cc", kFixture, o).size(), 1u);
    o.allowRandomDevice = true;
    EXPECT_TRUE(lintSource("fixture.cc", kFixture, o).empty());
}

TEST(LintNondeterminism, ProjectApiNamesAreNotLibcCalls)
{
    // Member access and non-call uses must not trip the token matcher.
    constexpr std::string_view kFixture = R"cc(
void ok(Rng &rng, Clock *clock)
{
    rng.rand();
    clock->time(nullptr);
    int rand = 5;
    auto t = file.time();
}
)cc";
    Options o;
    o.checkIncludes = false;
    EXPECT_TRUE(lintSource("fixture.cc", kFixture, o).empty());
}

TEST(LintNondeterminism, TimeWithRealArgumentIsNotWallClockIdiom)
{
    constexpr std::string_view kFixture = R"cc(
void ok(Event e) { schedule(e.time(deadline)); }
)cc";
    Options o;
    o.checkIncludes = false;
    EXPECT_TRUE(lintSource("fixture.cc", kFixture, o).empty());
}

// ----------------------------------------------------------------------
// Include hygiene
// ----------------------------------------------------------------------

TEST(LintIncludes, RelativeAndUnprefixedIncludesAreFlagged)
{
    constexpr std::string_view kFixture = R"cc(
#include "../util/panic.h"
#include "./local.h"
#include "sim/../util/hash.h"
#include "panic.h"
#include "sim/task.h"
#include <vector>
)cc";
    auto findings = only(lintSource("fixture.cc", kFixture),
                         Rule::kIncludeHygiene);
    ASSERT_EQ(findings.size(), 4u);
    EXPECT_NE(findings[0].message.find("relative include"),
              std::string::npos);
    EXPECT_NE(findings[3].message.find("module prefix"), std::string::npos);
}

TEST(LintIncludes, ModulePrefixRequirementCanBeWaived)
{
    constexpr std::string_view kFixture = R"cc(
#include "cluster_fixture.h"
)cc";
    Options o;
    o.requireModulePrefix = false;
    EXPECT_TRUE(lintSource("fixture.cc", kFixture, o).empty());
    ASSERT_EQ(lintSource("fixture.cc", kFixture).size(), 1u);
}

// ----------------------------------------------------------------------
// Per-path policy and plumbing
// ----------------------------------------------------------------------

TEST(LintPolicy, OptionsForPathAppliesLocationExemptions)
{
    EXPECT_TRUE(optionsForPath("src/rmem/engine.cc").requireModulePrefix);
    EXPECT_FALSE(optionsForPath("src/rmem/engine.cc").allowRandomDevice);
    EXPECT_FALSE(optionsForPath("tests/test_names.cc").requireModulePrefix);
    EXPECT_TRUE(optionsForPath("src/sim/random.cc").allowRandomDevice);
    EXPECT_TRUE(optionsForPath("src/sim/random.h").allowRandomDevice);
}

TEST(LintPolicy, ShouldLintSelectsCxxSources)
{
    EXPECT_TRUE(shouldLint("src/sim/task.h"));
    EXPECT_TRUE(shouldLint("src/rmem/engine.cc"));
    EXPECT_TRUE(shouldLint("examples/quickstart.cpp"));
    EXPECT_FALSE(shouldLint("README.md"));
    EXPECT_FALSE(shouldLint("tests/CMakeLists.txt"));
    EXPECT_FALSE(shouldLint("scripts/check.sh"));
}

TEST(LintPolicy, FindingFormatIsFileLineRuleMessage)
{
    Finding f{Rule::kCoroutineRefParam, "src/x.cc", 12, "boom"};
    EXPECT_EQ(f.format(), "src/x.cc:12: [remora-coroutine-ref-param] boom");
}

TEST(LintPolicy, EveryRuleHasAStableName)
{
    EXPECT_STREQ(ruleName(Rule::kCoroutineRefParam),
                 "remora-coroutine-ref-param");
    EXPECT_STREQ(ruleName(Rule::kCoroutinePtrParam),
                 "remora-coroutine-ptr-param");
    EXPECT_STREQ(ruleName(Rule::kNondeterminism), "remora-nondeterminism");
    EXPECT_STREQ(ruleName(Rule::kIncludeHygiene), "remora-include-hygiene");
    EXPECT_STREQ(ruleName(Rule::kRefCaptureDeferred),
                 "remora-ref-capture-deferred");
    // Both severities of the detached-coroutine family share one NOLINT
    // name, so one suppression comment covers either diagnosis.
    EXPECT_STREQ(ruleName(Rule::kDetachedCoroutine),
                 "remora-detached-coroutine");
    EXPECT_STREQ(ruleName(Rule::kDetachedCoroutineDetach),
                 "remora-detached-coroutine");
    EXPECT_TRUE(ruleIsError(Rule::kDetachedCoroutine));
    EXPECT_FALSE(ruleIsError(Rule::kDetachedCoroutineDetach));
    EXPECT_STREQ(ruleName(Rule::kScalarOpLoop), "remora-scalar-op-loop");
    EXPECT_FALSE(ruleIsError(Rule::kScalarOpLoop));
}

// ----------------------------------------------------------------------
// Deferred-lambda by-reference captures
// ----------------------------------------------------------------------

TEST(LintRefCapture, DefaultRefCaptureHandedToScheduleIsError)
{
    constexpr std::string_view kFixture = R"cc(
void arm(sim::Simulator &sim, int &hits)
{
    sim.schedule(10, [&] { ++hits; });
}
)cc";
    auto findings = only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                         Rule::kRefCaptureDeferred);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_TRUE(ruleIsError(findings[0].rule));
    EXPECT_NE(findings[0].message.find("schedule"), std::string::npos);
}

TEST(LintRefCapture, NamedRefCaptureInScheduleAtNamesTheCapture)
{
    constexpr std::string_view kFixture = R"cc(
void arm(sim::Simulator &sim, Counter &c)
{
    sim.scheduleAt(100, [&c] { c.inc(); });
}
)cc";
    auto findings = only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                         Rule::kRefCaptureDeferred);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("'&c'"), std::string::npos);
    EXPECT_NE(findings[0].message.find("scheduleAt"), std::string::npos);
}

TEST(LintRefCapture, RefCaptureHandedToScheduleTimerIsError)
{
    constexpr std::string_view kFixture = R"cc(
void arm(sim::Simulator &sim, Counter &c)
{
    sim.scheduleTimer(100, [&c] { c.inc(); });
}
)cc";
    auto findings = only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                         Rule::kRefCaptureDeferred);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("scheduleTimer"), std::string::npos);
}

TEST(LintRefCapture, ValueCapturesHandedToScheduleAreClean)
{
    constexpr std::string_view kFixture = R"cc(
void arm(sim::Simulator &sim, Engine *eng, int seq)
{
    sim.schedule(10, [eng, seq] { eng->kick(seq); });
    sim.schedule(20, [this] { tick(); });
}
)cc";
    EXPECT_TRUE(only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                     Rule::kRefCaptureDeferred)
                    .empty());
}

TEST(LintRefCapture, PointerInitCaptureIsNotAReferenceCapture)
{
    constexpr std::string_view kFixture = R"cc(
void arm(sim::Simulator &sim, Node &node)
{
    sim.schedule(10, [n = &node] { n->tick(); });
}
)cc";
    EXPECT_TRUE(only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                     Rule::kRefCaptureDeferred)
                    .empty());
}

TEST(LintRefCapture, CoroutineLambdaWithRefCaptureIsError)
{
    constexpr std::string_view kFixture = R"cc(
void spawn(Engine &eng)
{
    [&eng]() -> sim::Task<void> {
        co_await eng.drain();
    }().detach();
}
)cc";
    auto findings = only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                         Rule::kRefCaptureDeferred);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("coroutine lambda"),
              std::string::npos);
    EXPECT_NE(findings[0].message.find("'&eng'"), std::string::npos);
}

TEST(LintRefCapture, ValueCaptureCoroutineLambdaIsClean)
{
    // The tree's documented idiom: captureless or pointer-value capture.
    constexpr std::string_view kFixture = R"cc(
void spawn(Engine &eng)
{
    [](Engine *e) -> sim::Task<void> { co_await e->drain(); }(&eng)
        .detach();
}
)cc";
    EXPECT_TRUE(only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                     Rule::kRefCaptureDeferred)
                    .empty());
}

TEST(LintRefCapture, SubscriptsAreNotCaptureLists)
{
    constexpr std::string_view kFixture = R"cc(
void arm(sim::Simulator &sim, std::vector<int> &v, int i)
{
    sim.schedule(10, [v, i] { use(v[i] & 0xff); });
}
)cc";
    EXPECT_TRUE(only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                     Rule::kRefCaptureDeferred)
                    .empty());
}

TEST(LintRefCapture, NolintAndClangTidyAliasSuppress)
{
    constexpr std::string_view kFixture = R"cc(
void arm(sim::Simulator &sim, int &hits)
{
    // NOLINTNEXTLINE(remora-ref-capture-deferred)
    sim.schedule(10, [&] { ++hits; });
    sim.schedule(20, [&] { ++hits; }); // NOLINT(cppcoreguidelines-avoid-capturing-lambda-coroutines)
}
)cc";
    EXPECT_TRUE(only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                     Rule::kRefCaptureDeferred)
                    .empty());
}

// ----------------------------------------------------------------------
// Detached coroutines
// ----------------------------------------------------------------------

/** A TU with one local coroutine and one call site spliced in. */
std::string
detachedFixture(std::string_view callSite)
{
    std::string out = R"cc(
namespace remora::rpc {

sim::Task<void>
ping(sim::Simulator *sim)
{
    co_await sim::delay(*sim, sim::usec(10));
}

void
driver(sim::Simulator *sim)
{
)cc";
    out += callSite;
    out += R"cc(
}

} // namespace remora::rpc
)cc";
    return out;
}

TEST(LintDetached, BareStatementCallIsError)
{
    auto findings = only(
        lintSource("fixture.cc", detachedFixture("    ping(sim);\n"),
                   coroutineOnly()),
        Rule::kDetachedCoroutine);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_TRUE(ruleIsError(findings[0].rule));
    EXPECT_NE(findings[0].message.find("ping"), std::string::npos);
    EXPECT_NE(findings[0].message.find(".detach()"), std::string::npos);
}

TEST(LintDetached, VoidCastDiscardIsError)
{
    // (void) makes the discard explicit to the compiler but still loses
    // the frame; the fix is .detach(), not a cast.
    auto findings = only(
        lintSource("fixture.cc", detachedFixture("    (void) ping(sim);\n"),
                   coroutineOnly()),
        Rule::kDetachedCoroutine);
    ASSERT_EQ(findings.size(), 1u);
}

TEST(LintDetached, ExplicitDetachIsAdvisoryOnly)
{
    auto all = lintSource(
        "fixture.cc", detachedFixture("    ping(sim).detach();\n"),
        coroutineOnly());
    EXPECT_TRUE(only(all, Rule::kDetachedCoroutine).empty());
    auto advisories = only(all, Rule::kDetachedCoroutineDetach);
    ASSERT_EQ(advisories.size(), 1u);
    EXPECT_FALSE(ruleIsError(advisories[0].rule));
    EXPECT_NE(advisories[0].message.find("fire-and-forget"),
              std::string::npos);
}

TEST(LintDetached, OwnedAndAwaitedStartsAreClean)
{
    // Binding the Task or awaiting it keeps an owner for the frame, and
    // passing the result onward hands ownership to the callee.
    for (std::string_view site :
         {"    auto t = ping(sim);\n", "    co_await ping(sim);\n",
          "    run(ping(sim));\n"}) {
        auto all = lintSource("fixture.cc", detachedFixture(site),
                              coroutineOnly());
        EXPECT_TRUE(only(all, Rule::kDetachedCoroutine).empty())
            << "site: " << site;
        EXPECT_TRUE(only(all, Rule::kDetachedCoroutineDetach).empty())
            << "site: " << site;
    }
}

TEST(LintDetached, MemberCallsOfUnrelatedClassesAreNotImplicated)
{
    // `sim.run()` shares a name with a hypothetical local coroutine
    // `run`; the lexer cannot see sim's type, so member calls are out
    // of scope for the error form.
    constexpr std::string_view kFixture = R"cc(
sim::Task<void>
run(sim::Simulator *sim)
{
    co_await sim::delay(*sim, sim::usec(10));
}

void
pump(sim::Simulator &sim)
{
    sim.run();
}
)cc";
    EXPECT_TRUE(only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                     Rule::kDetachedCoroutine)
                    .empty());
}

TEST(LintDetached, UnknownNamesAndDeclarationsAreClean)
{
    // `helper` is not declared Task-returning in this TU, and the
    // declaration of `ping` itself is not a call.
    constexpr std::string_view kFixture = R"cc(
sim::Task<void> ping(sim::Simulator *sim);

void
driver(sim::Simulator *sim)
{
    helper(sim);
}
)cc";
    auto all = lintSource("fixture.cc", kFixture, coroutineOnly());
    EXPECT_TRUE(only(all, Rule::kDetachedCoroutine).empty());
    EXPECT_TRUE(only(all, Rule::kDetachedCoroutineDetach).empty());
}

TEST(LintDetached, NolintAndClangTidyAliasSuppress)
{
    for (std::string_view site :
         {"    ping(sim); // NOLINT(remora-detached-coroutine)\n",
          "    ping(sim); // NOLINT(bugprone-unused-return-value)\n"}) {
        auto all = lintSource("fixture.cc", detachedFixture(site),
                              coroutineOnly());
        EXPECT_TRUE(only(all, Rule::kDetachedCoroutine).empty())
            << "site: " << site;
    }
}

TEST(LintDetached, RuleCanBeDisabledPerFile)
{
    Options o = coroutineOnly();
    o.checkDetachedCoroutines = false;
    EXPECT_TRUE(only(lintSource("fixture.cc",
                                detachedFixture("    ping(sim);\n"), o),
                     Rule::kDetachedCoroutine)
                    .empty());
}

// ----------------------------------------------------------------------
// Scalar engine ops awaited inside loops (advisory)
// ----------------------------------------------------------------------

TEST(LintScalarLoop, AwaitedWritePerIterationIsAdvised)
{
    constexpr std::string_view kFixture = R"cc(
sim::Task<util::Status> flush(rmem::RmemEngine *engine)
{
    for (const Block &b : blocks_) {
        auto st = co_await engine->write(seg_, b.offset, b.bytes);
        if (!st.ok()) {
            co_return st;
        }
    }
    co_return util::Status();
}
)cc";
    auto f = only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                  Rule::kScalarOpLoop);
    ASSERT_EQ(f.size(), 1u);
    EXPECT_FALSE(ruleIsError(f[0].rule));
    EXPECT_NE(f[0].message.find("writev()"), std::string::npos);
}

TEST(LintScalarLoop, AwaitedReadInWhileLoopSuggestsReadv)
{
    constexpr std::string_view kFixture = R"cc(
sim::Task<void> drain(rmem::RmemEngine &engine)
{
    while (more()) {
        co_await engine.read(seg_, next(), scratch_, 0, 64);
    }
}
)cc";
    auto f = only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                  Rule::kScalarOpLoop);
    ASSERT_EQ(f.size(), 1u);
    EXPECT_NE(f[0].message.find("readv()"), std::string::npos);
}

TEST(LintScalarLoop, CleanShapesAreNotFlagged)
{
    // Vectored ops, un-awaited local space writes, and scalar awaits
    // outside any loop are all fine.
    constexpr std::string_view kFixture = R"cc(
sim::Task<void> ok(rmem::RmemEngine &engine, mem::Process &proc)
{
    for (auto &b : blocks_) {
        proc.space().write(b.va, b.bytes);
    }
    for (auto &w : windows_) {
        co_await engine.readv(w.ops, timeout_);
    }
    co_await engine.write(seg_, 0, tail_);
}
)cc";
    EXPECT_TRUE(only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                     Rule::kScalarOpLoop)
                    .empty());
}

TEST(LintScalarLoop, NestedLoopsReportEachAwaitOnce)
{
    constexpr std::string_view kFixture = R"cc(
sim::Task<void> nested(rmem::RmemEngine *e)
{
    for (int i = 0; i < n_; ++i) {
        for (int j = 0; j < m_; ++j) {
            co_await e->write(seg_, j, row_);
        }
    }
}
)cc";
    EXPECT_EQ(only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                   Rule::kScalarOpLoop)
                  .size(),
              1u);
}

TEST(LintScalarLoop, NolintSuppressesAndRuleCanBeDisabled)
{
    constexpr std::string_view kFixture = R"cc(
sim::Task<void> pinned(rmem::RmemEngine *e)
{
    for (auto &b : blocks_) {
        // NOLINTNEXTLINE(remora-scalar-op-loop)
        co_await e->write(seg_, b.off, b.bytes);
    }
}
)cc";
    EXPECT_TRUE(only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                     Rule::kScalarOpLoop)
                    .empty());

    constexpr std::string_view kBare = R"cc(
sim::Task<void> bare(rmem::RmemEngine *e)
{
    while (spin()) {
        co_await e->read(seg_, 0, scratch_, 0, 4);
    }
}
)cc";
    Options o = coroutineOnly();
    o.checkScalarOpLoops = false;
    EXPECT_TRUE(only(lintSource("fixture.cc", kBare, o),
                     Rule::kScalarOpLoop)
                    .empty());
    EXPECT_EQ(only(lintSource("fixture.cc", kBare, coroutineOnly()),
                   Rule::kScalarOpLoop)
                  .size(),
              1u);
}

TEST(LintPolicy, HazardsInsideCommentsAndStringsAreIgnored)
{
    constexpr std::string_view kFixture = R"cc(
// sim::Task<void> f(int &x); and std::rand() in a comment
/* time(nullptr) in a block comment */
const char *doc = "call std::rand() and time(nullptr) here";
)cc";
    EXPECT_TRUE(lintSource("fixture.cc", kFixture).empty());
}

// ----------------------------------------------------------------------
// Flow rule: remora-lock-across-suspension
// ----------------------------------------------------------------------

TEST(LintLockAcross, SecondSpinningAcquireWhileHeldIsError)
{
    // The two-lock deadlock shape: spinning on b while a is may-held.
    // Another coroutine acquiring in the opposite order never releases,
    // and the spin loop burns simulated CPU forever.
    constexpr std::string_view kFixture = R"cc(
sim::Task<void> worker(rmem::SpinLock *a, rmem::SpinLock *b)
{
    co_await a->acquire();
    co_await b->acquire();
    co_await b->release();
    co_await a->release();
}
)cc";
    auto findings = only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                         Rule::kLockAcrossSuspension);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_TRUE(ruleIsError(findings[0].rule));
    EXPECT_EQ(findings[0].line, 5);
}

TEST(LintLockAcross, AwaitedWorkUnderAwaitedLockIsClean)
{
    // The tree's core idiom: acquire, do awaited work, release. Only a
    // *spinning acquire of a different lock* (or a host guard) across
    // the suspension is hazardous, not the suspension itself.
    constexpr std::string_view kFixture = R"cc(
sim::Task<void> critical(rmem::SpinLock *l, sim::Simulator *s)
{
    co_await l->acquire();
    co_await sim::delay(*s, sim::usec(10));
    co_await l->release();
}
)cc";
    EXPECT_TRUE(only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                     Rule::kLockAcrossSuspension)
                    .empty());
}

TEST(LintLockAcross, TryAcquireIsNeverTheOffender)
{
    // tryAcquire yields once and gives up; it cannot spin forever, so
    // awaiting it while another lock is held is not a deadlock shape.
    constexpr std::string_view kFixture = R"cc(
sim::Task<void> opportunistic(rmem::SpinLock *a, rmem::SpinLock *b)
{
    co_await a->acquire();
    co_await b->tryAcquire();
    co_await b->release();
    co_await a->release();
}
)cc";
    EXPECT_TRUE(only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                     Rule::kLockAcrossSuspension)
                    .empty());
}

TEST(LintLockAcross, ReacquireAfterReleaseIsClean)
{
    constexpr std::string_view kFixture = R"cc(
sim::Task<void> phased(rmem::SpinLock *l)
{
    co_await l->acquire();
    bump();
    co_await l->release();
    co_await l->acquire();
    co_await l->release();
}
)cc";
    EXPECT_TRUE(only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                     Rule::kLockAcrossSuspension)
                    .empty());
}

TEST(LintLockAcross, HostGuardHeldAtAnySuspensionIsError)
{
    // A host std::lock_guard blocks the OS thread, so *any* co_await
    // under it parks the whole simulator with the mutex held.
    constexpr std::string_view kFixture = R"cc(
sim::Task<void> guarded(std::mutex *m, Widget *w)
{
    std::lock_guard<std::mutex> g(*m);
    co_await w->refresh();
}
)cc";
    auto findings = only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                         Rule::kLockAcrossSuspension);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 5);
}

TEST(LintLockAcross, GuardReleasedByScopeExitIsClean)
{
    constexpr std::string_view kFixture = R"cc(
sim::Task<void> scoped(std::mutex *m, Widget *w)
{
    {
        std::lock_guard<std::mutex> g(*m);
        w->bump();
    }
    co_await w->refresh();
}
)cc";
    EXPECT_TRUE(only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                     Rule::kLockAcrossSuspension)
                    .empty());
}

TEST(LintLockAcross, NolintOnSuspensionLineSuppresses)
{
    constexpr std::string_view kFixture = R"cc(
sim::Task<void> ordered(rmem::SpinLock *a, rmem::SpinLock *b)
{
    co_await a->acquire();
    co_await b->acquire(); // NOLINT(remora-lock-across-suspension)
    co_await b->release();
    co_await a->release();
}
)cc";
    EXPECT_TRUE(only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                     Rule::kLockAcrossSuspension)
                    .empty());
}

TEST(LintLockAcross, NolintOnAcquireLineAlsoSuppresses)
{
    // Suppression is honoured at the finding line AND at the origin
    // acquire line: whichever line carries the justification wins.
    constexpr std::string_view kFixture = R"cc(
sim::Task<void> ordered(rmem::SpinLock *a, rmem::SpinLock *b)
{
    co_await a->acquire(); // NOLINT(remora-lock-across-suspension)
    co_await b->acquire();
    co_await b->release();
    co_await a->release();
}
)cc";
    EXPECT_TRUE(only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                     Rule::kLockAcrossSuspension)
                    .empty());
}

TEST(LintLockAcross, NolintNextLineAboveMultiLineCallSuppresses)
{
    // NOLINTNEXTLINE targets the first line of the statement even when
    // the call's argument list spills onto following lines.
    constexpr std::string_view kFixture = R"cc(
sim::Task<void> ordered(rmem::SpinLock *a, rmem::SpinLock *b)
{
    co_await a->acquire();
    // NOLINTNEXTLINE(remora-lock-across-suspension)
    co_await b->acquire(
        kSpinBudget);
    co_await b->release();
    co_await a->release();
}
)cc";
    EXPECT_TRUE(only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                     Rule::kLockAcrossSuspension)
                    .empty());
}

// ----------------------------------------------------------------------
// Flow rule: remora-use-after-suspension
// ----------------------------------------------------------------------

TEST(LintUseAfter, IteratorIntoMemberMapUsedAcrossSuspensionIsError)
{
    // The PR 7 bug shape: during the co_await another coroutine inserts
    // into table_, the map rehashes, and it-> walks freed memory.
    constexpr std::string_view kFixture = R"cc(
sim::Task<void> Server::handle(uint32_t key)
{
    auto it = table_.find(key);
    co_await cpu_.use(kCost);
    it->second.touch();
}
)cc";
    auto findings = only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                         Rule::kUseAfterSuspension);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_TRUE(ruleIsError(findings[0].rule));
    EXPECT_EQ(findings[0].line, 6);
}

TEST(LintUseAfter, ReferenceDerivedFromIteratorIsTrackedTransitively)
{
    constexpr std::string_view kFixture = R"cc(
sim::Task<void> Server::poke(uint32_t key)
{
    auto it = peers_.find(key);
    const Peer &peer = it->second;
    co_await cpu_.use(kCost);
    peer.touch();
}
)cc";
    auto findings = only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                         Rule::kUseAfterSuspension);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 7);
}

TEST(LintUseAfter, CopyingTheValueBeforeSuspensionIsClean)
{
    constexpr std::string_view kFixture = R"cc(
sim::Task<void> Server::handleCopy(uint32_t key)
{
    auto it = table_.find(key);
    Entry e = it->second;
    co_await cpu_.use(kCost);
    e.touch();
}
)cc";
    EXPECT_TRUE(only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                     Rule::kUseAfterSuspension)
                    .empty());
}

TEST(LintUseAfter, RebindingAfterSuspensionIsClean)
{
    constexpr std::string_view kFixture = R"cc(
sim::Task<void> Server::handleRebind(uint32_t key)
{
    auto it = table_.find(key);
    co_await cpu_.use(kCost);
    it = table_.find(key);
    it->second.touch();
}
)cc";
    EXPECT_TRUE(only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                     Rule::kUseAfterSuspension)
                    .empty());
}

TEST(LintUseAfter, IteratorIntoLocalContainerIsClean)
{
    // Only borrows from external state (members, underscore-suffixed
    // chains) can be invalidated by other coroutines; locals cannot.
    constexpr std::string_view kFixture = R"cc(
sim::Task<void> Server::handleLocal(uint32_t key)
{
    std::map<int, int> local;
    auto it = local.find(key);
    co_await cpu_.use(kCost);
    it->second = 1;
}
)cc";
    EXPECT_TRUE(only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                     Rule::kUseAfterSuspension)
                    .empty());
}

TEST(LintUseAfter, LoopBackEdgeCarriesStalenessIntoNextIteration)
{
    // The use textually precedes the co_await, but the loop back edge
    // delivers the post-suspension state to iteration two.
    constexpr std::string_view kFixture = R"cc(
sim::Task<void> Server::retry(uint32_t key)
{
    auto it = table_.find(key);
    for (int i = 0; i < 3; ++i) {
        it->second.bump();
        co_await cpu_.use(kCost);
    }
}
)cc";
    auto findings = only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                         Rule::kUseAfterSuspension);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 6);
}

TEST(LintUseAfter, NolintOnUseOrBindLineSuppresses)
{
    constexpr std::string_view kAtUse = R"cc(
sim::Task<void> Server::handle(uint32_t key)
{
    auto it = table_.find(key);
    co_await cpu_.use(kCost);
    it->second.touch(); // NOLINT(remora-use-after-suspension)
}
)cc";
    EXPECT_TRUE(only(lintSource("fixture.cc", kAtUse, coroutineOnly()),
                     Rule::kUseAfterSuspension)
                    .empty());

    constexpr std::string_view kAtBind = R"cc(
sim::Task<void> Server::handle(uint32_t key)
{
    auto it = table_.find(key); // NOLINT(remora-use-after-suspension)
    co_await cpu_.use(kCost);
    it->second.touch();
}
)cc";
    EXPECT_TRUE(only(lintSource("fixture.cc", kAtBind, coroutineOnly()),
                     Rule::kUseAfterSuspension)
                    .empty());
}

// ----------------------------------------------------------------------
// Flow rules and nested lambdas: each lambda is its own analysis unit
// ----------------------------------------------------------------------

TEST(LintFlowLambda, SuspensionInsideLambdaDoesNotStaleEnclosingBorrows)
{
    // The co_await lives in the nested coroutine's frame, not the
    // enclosing function's: the enclosing borrow stays fresh.
    constexpr std::string_view kFixture = R"cc(
sim::Task<void> Server::spawnChild(uint32_t key)
{
    auto it = table_.find(key);
    auto child = [](Server *self) -> sim::Task<void> {
        co_await self->cpu_.use(kCost);
    };
    child(this).detach();
    it->second.touch();
    co_return;
}
)cc";
    EXPECT_TRUE(only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                     Rule::kUseAfterSuspension)
                    .empty());
}

TEST(LintFlowLambda, LambdaDoesNotSuppressEnclosingAnalysis)
{
    // The enclosing function's own hazard must still be found even
    // though a lambda with its own suspension sits between bind and use.
    constexpr std::string_view kFixture = R"cc(
sim::Task<void> Server::both(uint32_t key)
{
    auto it = table_.find(key);
    auto logger = [](Server *self) -> sim::Task<void> {
        co_await self->cpu_.use(kLogCost);
    };
    co_await cpu_.use(kCost);
    it->second.touch();
}
)cc";
    auto findings = only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                         Rule::kUseAfterSuspension);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 9);
}

TEST(LintFlowLambda, HazardInsideLambdaBodyIsStillFound)
{
    constexpr std::string_view kFixture = R"cc(
sim::Task<void> Server::spawnBad(uint32_t key)
{
    auto child = [](Server *self, uint32_t key) -> sim::Task<void> {
        auto it = self->table_.find(key);
        co_await self->cpu_.use(kCost);
        it->second.touch();
    };
    child(this, key).detach();
    co_return;
}
)cc";
    auto findings = only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                         Rule::kUseAfterSuspension);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 7);
}

// ----------------------------------------------------------------------
// Flow rule: remora-release-on-all-paths (advisory)
// ----------------------------------------------------------------------

TEST(LintReleasePaths, EarlyReturnSkippingReleaseIsAdvisory)
{
    constexpr std::string_view kFixture = R"cc(
sim::Task<util::Status> Server::withLock(bool fast)
{
    co_await lock_.acquire();
    if (fast) {
        co_return util::Status();
    }
    co_await lock_.release();
    co_return util::Status();
}
)cc";
    auto findings = only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                         Rule::kReleaseOnAllPaths);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_FALSE(ruleIsError(findings[0].rule));
    // Reported at the acquire, where the fix (scope or release) goes.
    EXPECT_EQ(findings[0].line, 4);
}

TEST(LintReleasePaths, ReleaseOnEveryPathIsClean)
{
    constexpr std::string_view kFixture = R"cc(
sim::Task<util::Status> Server::withLock(bool fast)
{
    co_await lock_.acquire();
    if (fast) {
        co_await lock_.release();
        co_return util::Status();
    }
    co_await lock_.release();
    co_return util::Status();
}
)cc";
    EXPECT_TRUE(only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                     Rule::kReleaseOnAllPaths)
                    .empty());
}

TEST(LintReleasePaths, AcquireOnlyHelperIsSilent)
{
    // No release anywhere in the function: transferring ownership out is
    // a deliberate design, not a leaked path.
    constexpr std::string_view kFixture = R"cc(
sim::Task<void> Server::lockForCaller()
{
    co_await lock_.acquire();
}
)cc";
    EXPECT_TRUE(only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                     Rule::kReleaseOnAllPaths)
                    .empty());
}

TEST(LintReleasePaths, BeginUseWithoutEndUseOnEveryPathIsAdvisory)
{
    // TokenClient pin windows follow the same obligation as locks.
    constexpr std::string_view kFixture = R"cc(
void Server::useWindow(uint64_t key, bool bail)
{
    client_.beginUse(key);
    if (bail) {
        return;
    }
    client_.endUse(key);
}
)cc";
    auto findings = only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                         Rule::kReleaseOnAllPaths);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 4);
}

// ----------------------------------------------------------------------
// Flow rule: remora-unchecked-vector-status (advisory)
// ----------------------------------------------------------------------

TEST(LintVectorStatus, ReadvWithOnlyStatusCheckedIsAdvisory)
{
    // readv sub-ops fail individually: .status alone says the batch was
    // delivered, not that every sub-op succeeded.
    constexpr std::string_view kFixture = R"cc(
sim::Task<util::Status> Server::flushMeta()
{
    auto outcome = co_await engine_.readv(makeOps(), timeout_);
    if (!outcome.status.ok()) {
        co_return outcome.status;
    }
    co_return util::Status();
}
)cc";
    auto findings = only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                         Rule::kUncheckedVectorStatus);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_FALSE(ruleIsError(findings[0].rule));
}

TEST(LintVectorStatus, InspectingResultsIsClean)
{
    constexpr std::string_view kFixture = R"cc(
sim::Task<void> Server::gather()
{
    auto outcome = co_await engine_.readv(makeOps(), timeout_);
    for (const auto &res : outcome.results) {
        consume(res);
    }
}
)cc";
    EXPECT_TRUE(only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                     Rule::kUncheckedVectorStatus)
                    .empty());
}

TEST(LintVectorStatus, DiscardedAwaitedVectorCallIsAdvisory)
{
    constexpr std::string_view kFixture = R"cc(
sim::Task<void> Server::fireAndForget()
{
    co_await engine_.writev(makeOps(), timeout_);
}
)cc";
    auto findings = only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                         Rule::kUncheckedVectorStatus);
    ASSERT_EQ(findings.size(), 1u);
}

TEST(LintVectorStatus, ReturningTheWholeOutcomeEscapesTheObligation)
{
    // Forwarding wrappers hand the outcome to the caller, who inherits
    // the inspection obligation.
    constexpr std::string_view kFixture = R"cc(
sim::Task<rmem::VectorOutcome> Server::forward()
{
    auto out = co_await engine_.readv(makeOps(), timeout_);
    co_return out;
}
)cc";
    EXPECT_TRUE(only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                     Rule::kUncheckedVectorStatus)
                    .empty());
}

TEST(LintVectorStatus, WritevIsSatisfiedByStatusCheck)
{
    // writev has no per-sub-op payloads; its outcome is all in .status.
    constexpr std::string_view kFixture = R"cc(
sim::Task<void> Server::push()
{
    auto ws = co_await engine_.writev(makeOps(), timeout_);
    REMORA_ASSERT(ws.status.ok());
}
)cc";
    EXPECT_TRUE(only(lintSource("fixture.cc", kFixture, coroutineOnly()),
                     Rule::kUncheckedVectorStatus)
                    .empty());
}

// ----------------------------------------------------------------------
// Include-layer checker
// ----------------------------------------------------------------------

using FileSet = std::vector<std::pair<std::string, std::string>>;

TEST(LintLayers, DownwardAndSameModuleEdgesAreClean)
{
    FileSet files = {
        {"src/util/assert.h", ""},
        {"src/sim/task.h", "#include \"util/assert.h\"\n"},
        {"src/sim/simulator.h",
         "#include \"sim/task.h\"\n#include \"util/assert.h\"\n"},
        {"src/rpc/transport.h",
         "#include \"sim/task.h\"\n#include \"util/assert.h\"\n"},
    };
    EXPECT_TRUE(checkIncludeLayers(files).empty());
}

TEST(LintLayers, UpwardEdgeIsRejected)
{
    FileSet files = {
        {"src/util/assert.h", ""},
        {"src/util/bad.h", "#include \"rpc/transport.h\"\n"},
        {"src/rpc/transport.h", "#include \"util/assert.h\"\n"},
    };
    auto findings = checkIncludeLayers(files);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, Rule::kIncludeLayer);
    EXPECT_TRUE(ruleIsError(findings[0].rule));
    EXPECT_EQ(findings[0].file, "src/util/bad.h");
    EXPECT_EQ(findings[0].line, 1);
    EXPECT_NE(findings[0].message.find("climbs"), std::string::npos);
}

TEST(LintLayers, EqualRankCrossModuleEdgeIsRejected)
{
    // names and dfs share a rank: neither may include the other, which
    // keeps the two paper clients independently deletable.
    FileSet files = {
        {"src/names/clerk.h", "#include \"dfs/backend.h\"\n"},
        {"src/dfs/backend.h", ""},
    };
    auto findings = checkIncludeLayers(files);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].file, "src/names/clerk.h");
}

TEST(LintLayers, IncludeCycleIsReportedOnce)
{
    FileSet files = {
        {"src/sim/a.h", "#include \"sim/b.h\"\n"},
        {"src/sim/b.h", "#include \"sim/a.h\"\n"},
    };
    auto findings = checkIncludeLayers(files);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].file, "src/sim/a.h");
    EXPECT_NE(findings[0].message.find("cycle"), std::string::npos);
}

TEST(LintLayers, UnknownModuleIsRejected)
{
    FileSet files = {
        {"src/sim/task.h", "#include \"frobnicator/core.h\"\n"},
    };
    auto findings = checkIncludeLayers(files);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("frobnicator"), std::string::npos);
}

TEST(LintLayers, NolintSuppressesALayerEdge)
{
    FileSet files = {
        {"src/util/bridge.h",
         "#include \"rpc/transport.h\" // NOLINT(remora-include-layer)\n"},
        {"src/rpc/transport.h", ""},
    };
    EXPECT_TRUE(checkIncludeLayers(files).empty());
}

TEST(LintLayers, ApplicationLayerAndRelativeIncludesAreExempt)
{
    // tests/, tools/, bench/ sit above the whole diagram; relative
    // includes are include-hygiene's problem, not a layer edge.
    FileSet files = {
        {"tests/test_all.cc",
         "#include \"dfs/backend.h\"\n#include \"util/assert.h\"\n"},
        {"tools/driver/main.cc", "#include \"trace/writer.h\"\n"},
        {"src/sim/task.cc", "#include \"../util/assert.h\"\n"},
        {"src/util/assert.h", ""},
    };
    EXPECT_TRUE(checkIncludeLayers(files).empty());
}

// ----------------------------------------------------------------------
// Braced temporaries in co_await operands
// ----------------------------------------------------------------------

TEST(LintCoawaitTemporary, OwningBracedTemporaryInOperandIsError)
{
    // The GCC 12.2 double-destruction shape: the WriteArgs temporary
    // owns the moved-in buffer and is destroyed twice.
    constexpr std::string_view kFixture = R"cc(
sim::Task<util::Status>
RpcBackend::write(FileHandle fh, uint64_t offset, std::vector<uint8_t> data)
{
    auto reply =
        co_await roundTrip(encodeCall(WriteArgs{fh, offset, std::move(data)}));
    co_return decodeStatus(reply);
}

sim::Task<void>
Sender::blast()
{
    co_await send(std::vector<uint8_t>{1, 2, 3});
}
)cc";
    auto found = only(lintSource("src/dfs/backend.cc", kFixture,
                                 coroutineOnly()),
                      Rule::kCoawaitBracedTemporary);
    ASSERT_EQ(found.size(), 2u);
    EXPECT_EQ(found[0].line, 6);
    EXPECT_NE(found[0].message.find("WriteArgs{...}"), std::string::npos);
    EXPECT_EQ(found[1].line, 13);
    EXPECT_NE(found[1].message.find("std::vector<uint8_t>{...}"),
              std::string::npos);
    EXPECT_TRUE(ruleIsError(Rule::kCoawaitBracedTemporary));
}

TEST(LintCoawaitTemporary, NamedLocalAndPlainDataTemporariesAreClean)
{
    constexpr std::string_view kFixture = R"cc(
sim::Task<util::Status>
RpcBackend::write(FileHandle fh, uint64_t offset, std::vector<uint8_t> data)
{
    std::vector<uint8_t> call =
        encodeCall(WriteArgs{fh, offset, std::move(data)});
    auto reply = co_await roundTrip(std::move(call));
    auto more = co_await roundTrip(encodeCall(ReadArgs{fh, offset, 8}));
    co_await Waiter{this};
    auto result = co_await [&]() -> sim::Task<Reply> {
        co_return Reply{std::move(more)};
    }();
    co_return decodeStatus(reply);
}
)cc";
    EXPECT_TRUE(only(lintSource("src/dfs/backend.cc", kFixture,
                                coroutineOnly()),
                     Rule::kCoawaitBracedTemporary)
                    .empty());
}

TEST(LintCoawaitTemporary, NolintSuppresses)
{
    constexpr std::string_view kFixture = R"cc(
sim::Task<void>
Sender::blast()
{
    // NOLINTNEXTLINE(remora-coawait-braced-temporary)
    co_await send(std::vector<uint8_t>{1, 2, 3});
}
)cc";
    EXPECT_TRUE(only(lintSource("src/x.cc", kFixture, coroutineOnly()),
                     Rule::kCoawaitBracedTemporary)
                    .empty());
}

// ----------------------------------------------------------------------
// Rule metadata and machine-readable output
// ----------------------------------------------------------------------

TEST(LintRules, EveryRuleHasNameSeverityAndDescription)
{
    for (Rule r : kAllRules) {
        EXPECT_FALSE(std::string_view(ruleName(r)).empty());
        EXPECT_FALSE(std::string_view(ruleDescription(r)).empty());
    }
    // The two detached-coroutine shapes share one user-facing name.
    EXPECT_EQ(std::string_view(ruleName(Rule::kDetachedCoroutine)),
              std::string_view(ruleName(Rule::kDetachedCoroutineDetach)));
}

TEST(LintRules, FlowRulesAreExactlyTheCfgBackedOnes)
{
    size_t flowCount = 0;
    for (Rule r : kAllRules) {
        flowCount += ruleIsFlow(r) ? 1u : 0u;
    }
    EXPECT_EQ(flowCount, 4u);
    EXPECT_TRUE(ruleIsFlow(Rule::kLockAcrossSuspension));
    EXPECT_TRUE(ruleIsFlow(Rule::kUseAfterSuspension));
    EXPECT_TRUE(ruleIsFlow(Rule::kReleaseOnAllPaths));
    EXPECT_TRUE(ruleIsFlow(Rule::kUncheckedVectorStatus));
    EXPECT_FALSE(ruleIsFlow(Rule::kIncludeLayer));
    EXPECT_FALSE(ruleIsFlow(Rule::kCoroutineRefParam));
}

TEST(LintJson, FindingsSerializeWithSeverityAndEscaping)
{
    std::vector<Finding> findings = {
        {Rule::kNondeterminism, "src/a.cc", 3, "uses \"rand\""},
        {Rule::kReleaseOnAllPaths, "src/b.cc", 9, "path\\skips release"},
    };
    std::string json = findingsToJson(findings);
    EXPECT_NE(json.find("\"rule\":\"remora-nondeterminism\""),
              std::string::npos);
    EXPECT_NE(json.find("\"severity\":\"error\""), std::string::npos);
    EXPECT_NE(json.find("\"severity\":\"advisory\""), std::string::npos);
    EXPECT_NE(json.find("\"line\":3"), std::string::npos);
    EXPECT_NE(json.find("uses \\\"rand\\\""), std::string::npos);
    EXPECT_NE(json.find("path\\\\skips"), std::string::npos);
    EXPECT_EQ(findingsToJson({}), "[]");
}

} // namespace
} // namespace remora::lint
