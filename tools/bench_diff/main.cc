/**
 * @file
 * bench_diff: compare fresh bench reports against checked-in baselines.
 *
 *     bench_diff <baseline_dir> <candidate_dir>
 *
 * Every BENCH_*.json in the baseline directory must exist in the
 * candidate directory, parse, and keep every baseline check passing.
 * Each simulated metric must equal its baseline exactly; a wall-clock
 * metric fails only below obs::kWallFloor of its baseline (see
 * obs/bench_diff.h). There are no flags: the rule has no settings.
 * Exit status is the number of failing reports (clamped to 1), so
 * scripts/check.sh can gate on it directly; bad arguments exit 2.
 *
 * Only the baseline directory is walked: a candidate report with no
 * baseline is not read, so a new bench is gated from the commit that
 * checks in its baseline. Candidate-only metrics in a compared report
 * are printed as notes and never fail.
 */
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/bench_diff.h"

namespace fs = std::filesystem;

namespace {

bool
readFile(const fs::path &path, std::string &out)
{
    std::ifstream in(path);
    if (!in) {
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: bench_diff <baseline_dir> <candidate_dir>\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 3 || argv[1][0] == '-' || argv[2][0] == '-') {
        return usage();
    }
    fs::path baseDir(argv[1]), candDir(argv[2]);
    if (!fs::is_directory(baseDir)) {
        std::fprintf(stderr, "bench_diff: no baseline directory %s\n",
                     baseDir.string().c_str());
        return 2;
    }

    std::vector<fs::path> baselines;
    for (const auto &entry : fs::directory_iterator(baseDir)) {
        std::string name = entry.path().filename().string();
        if (name.rfind("BENCH_", 0) == 0 &&
            entry.path().extension() == ".json") {
            baselines.push_back(entry.path());
        }
    }
    std::sort(baselines.begin(), baselines.end());
    if (baselines.empty()) {
        std::fprintf(stderr, "bench_diff: no BENCH_*.json baselines in %s\n",
                     baseDir.string().c_str());
        return 2;
    }

    int failed = 0;
    for (const auto &basePath : baselines) {
        std::string name = basePath.filename().string();
        fs::path candPath = candDir / name;
        std::string baseText, candText;
        if (!readFile(basePath, baseText)) {
            std::printf("%s\n  FAIL  cannot read baseline\n", name.c_str());
            ++failed;
            continue;
        }
        if (!readFile(candPath, candText)) {
            std::printf("%s\n  FAIL  candidate report missing (%s)\n",
                        name.c_str(), candPath.string().c_str());
            ++failed;
            continue;
        }
        auto result = remora::obs::diffReportText(baseText, candText);
        std::printf("%s\n%s", name.c_str(), result.render().c_str());
        if (!result.pass()) {
            ++failed;
        }
    }
    if (failed > 0) {
        std::printf("bench_diff: %d of %zu report(s) FAILED\n", failed,
                    baselines.size());
        return 1;
    }
    std::printf("bench_diff: all %zu report(s) pass\n", baselines.size());
    return 0;
}
