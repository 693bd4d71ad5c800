/**
 * @file
 * Throughput bench for remora-lint's whole-tree pass.
 *
 * The linter runs on every `scripts/check.sh --lint` invocation and
 * inside the tier-1 clean-tree gate, so its cost is paid on every
 * verification cycle. Two measurements:
 *
 *  - tree: wall-clock for the full real-tree pass (scrub, tokenize,
 *    line rules, CFG construction, dataflow fixpoint, include-layer
 *    DAG check over src/). Wall-clock, so it is a wallMetric() the
 *    gate fails only below a tenth of baseline; the deterministic
 *    finding counts are shape checks.
 *  - corpus: files/second over a fixed synthetic corpus of hazardous
 *    and clean coroutine fixtures. The corpus never changes with tree
 *    growth, so its finding count is held exactly by the baseline —
 *    a change means the analysis itself changed, not the repo.
 */
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "layers.h"
#include "lint.h"

using namespace remora;

namespace {

namespace fs = std::filesystem;

std::string
readFile(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** All lintable files under the repo's scanned top-level directories. */
std::vector<std::pair<std::string, std::string>>
treeFiles(const fs::path &root)
{
    std::vector<std::pair<std::string, std::string>> out;
    for (const char *top : {"src", "tests", "tools", "bench"}) {
        if (!fs::exists(root / top)) {
            continue;
        }
        for (const auto &entry :
             fs::recursive_directory_iterator(root / top)) {
            if (!entry.is_regular_file()) {
                continue;
            }
            std::string rel =
                fs::relative(entry.path(), root).generic_string();
            if (!lint::shouldLint(rel)) {
                continue;
            }
            out.emplace_back(rel, readFile(entry.path()));
        }
    }
    return out;
}

/**
 * A fixed corpus exercising every analysis stage: one hazardous
 * two-lock function, one borrow crossing a suspension, one leaked
 * early-return path, one uninspected vector outcome, and two clean
 * functions so the dataflow pass sees both converging and diverging
 * states. Replicated kCorpusFiles times as distinct "files".
 */
constexpr std::string_view kCorpusUnit = R"cc(
sim::Task<void> worker(rmem::SpinLock *a, rmem::SpinLock *b)
{
    co_await a->acquire();
    co_await b->acquire();
    co_await b->release();
    co_await a->release();
}

sim::Task<void> Server::handle(uint32_t key)
{
    auto it = table_.find(key);
    co_await cpu_.use(kCost);
    it->second.touch();
}

sim::Task<util::Status> Server::withLock(bool fast)
{
    co_await lock_.acquire();
    if (fast) {
        co_return util::Status();
    }
    co_await lock_.release();
    co_return util::Status();
}

sim::Task<void> Server::fireAndForget()
{
    co_await engine_.writev(makeOps(), timeout_);
}

sim::Task<void> critical(rmem::SpinLock *l, sim::Simulator *s)
{
    co_await l->acquire();
    co_await sim::delay(*s, sim::usec(10));
    co_await l->release();
}

sim::Task<void> Server::gather()
{
    auto outcome = co_await engine_.readv(makeOps(), timeout_);
    for (const auto &res : outcome.results) {
        consume(res);
    }
}
)cc";

constexpr int kCorpusFiles = 64;

} // namespace

int
main()
{
    bench::banner("remora-lint: whole-tree analysis throughput");

    const fs::path root(REMORA_SOURCE_DIR);
    auto files = treeFiles(root);
    REMORA_ASSERT(files.size() > 100);

    // Warm-up pass keeps first-touch page faults out of the timed run
    // and collects the deterministic finding counts for the checks.
    size_t errors = 0;
    size_t advisories = 0;
    for (const auto &[rel, text] : files) {
        auto findings =
            lint::lintSource(rel, text, lint::optionsForPath(rel));
        for (const lint::Finding &f : findings) {
            (lint::ruleIsError(f.rule) ? errors : advisories) += 1;
        }
    }
    auto layerFindings = lint::checkIncludeLayers(files);

    // Timed full-tree passes, layer check included: the same work the
    // clean-tree gate and check.sh --lint pay per invocation.
    constexpr int kRounds = 3;
    auto start = std::chrono::steady_clock::now();
    for (int round = 0; round < kRounds; ++round) {
        for (const auto &[rel, text] : files) {
            auto findings =
                lint::lintSource(rel, text, lint::optionsForPath(rel));
            REMORA_ASSERT(findings.size() < 10000);
        }
        (void)lint::checkIncludeLayers(files);
    }
    double treeSec = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count() /
                     kRounds;
    double treeFilesPerSec =
        treeSec > 0.0 ? static_cast<double>(files.size()) / treeSec : 0.0;

    // The synthetic corpus: tree-independent, so the baseline holds its
    // finding count exactly.
    std::vector<std::pair<std::string, std::string>> corpus;
    for (int i = 0; i < kCorpusFiles; ++i) {
        corpus.emplace_back("src/rmem/corpus_" + std::to_string(i) + ".cc",
                            std::string(kCorpusUnit));
    }
    lint::Options corpusOpts;
    corpusOpts.checkIncludes = false;
    corpusOpts.checkNondeterminism = false;
    size_t corpusFindings = 0;
    auto corpusStart = std::chrono::steady_clock::now();
    for (const auto &[rel, text] : corpus) {
        corpusFindings += lint::lintSource(rel, text, corpusOpts).size();
    }
    double corpusSec = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - corpusStart)
                           .count();
    double corpusFilesPerSec =
        corpusSec > 0.0 ? static_cast<double>(corpus.size()) / corpusSec
                        : 0.0;

    std::printf("tree: %zu files in %.3fs (%.0f files/s), %zu error(s), "
                "%zu advisory note(s), %zu layer violation(s)\n",
                files.size(), treeSec, treeFilesPerSec, errors, advisories,
                layerFindings.size());
    std::printf("corpus: %d files, %zu findings (%.0f files/s)\n",
                kCorpusFiles, corpusFindings, corpusFilesPerSec);

    // Rates only, declared wall-clock so only a collapse fails: the smoke
    // label runs under parallel ctest load, so an absolute ms-per-pass
    // figure would gate on scheduler contention, not the linter.
    bench::BenchReport report("lint_tree");
    report.wallMetric("tree.files_per_sec", treeFilesPerSec, "1/s");
    report.wallMetric("corpus.files_per_sec", corpusFilesPerSec, "1/s");
    report.metric("corpus.findings", static_cast<double>(corpusFindings),
                  "count");
    report.check("tree_has_no_error_findings", errors == 0);
    report.check("tree_layer_dag_clean", layerFindings.empty());
    report.check("corpus_hazards_detected",
                 corpusFindings >= static_cast<size_t>(kCorpusFiles) * 4);
    report.note("tree pass covers src/, tests/, tools/, bench/ with the "
                "per-path option profile plus the include-layer DAG check");
    report.write();
    return 0;
}
