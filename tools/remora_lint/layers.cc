#include "layers.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "source_model.h"

namespace remora::lint {

namespace {

/** Module of a repo-relative path, or "" when not under src/. */
std::string
moduleOf(std::string_view relPath)
{
    std::string p(relPath);
    std::replace(p.begin(), p.end(), '\\', '/');
    if (p.rfind("src/", 0) != 0) {
        return "";
    }
    size_t slash = p.find('/', 4);
    if (slash == std::string::npos) {
        return "";
    }
    return p.substr(4, slash - 4);
}

struct IncludeEdge
{
    std::string target; // src-relative include path ("sim/task.h")
    int line = 0;
    bool suppressed = false;
};

/** Quoted project includes of one file, with NOLINT state resolved. */
std::vector<IncludeEdge>
projectIncludes(const std::string &text)
{
    SourceModel model = buildSourceModel(text);
    std::vector<IncludeEdge> out;
    std::istringstream ss(model.text);
    std::string lineText;
    int line = 0;
    while (std::getline(ss, lineText)) {
        ++line;
        size_t hash = lineText.find_first_not_of(" \t");
        if (hash == std::string::npos || lineText[hash] != '#') {
            continue;
        }
        size_t kw = lineText.find_first_not_of(" \t", hash + 1);
        if (kw == std::string::npos ||
            lineText.compare(kw, 7, "include") != 0) {
            continue;
        }
        size_t open = lineText.find('"', kw + 7);
        if (open == std::string::npos) {
            continue; // angle include: system header
        }
        size_t close = lineText.find('"', open + 1);
        if (close == std::string::npos) {
            continue;
        }
        IncludeEdge e;
        e.target = lineText.substr(open + 1, close - open - 1);
        e.line = line;
        e.suppressed = suppressedAt(model, line, Rule::kIncludeLayer);
        out.push_back(e);
    }
    return out;
}

} // namespace

int
layerRank(std::string_view module)
{
    static const std::map<std::string, int, std::less<>> kRanks = {
        {"util", 0}, {"sim", 1},   {"obs", 2},  {"net", 3},
        {"mem", 4},  {"rmem", 5},  {"rpc", 6},  {"names", 7},
        {"dfs", 7},  {"trace", 8}, {"cluster", 9},
    };
    auto it = kRanks.find(module);
    return it == kRanks.end() ? -1 : it->second;
}

std::vector<Finding>
checkIncludeLayers(
    const std::vector<std::pair<std::string, std::string>> &files)
{
    std::vector<Finding> out;

    // file (src-relative, e.g. "sim/task.h") -> included src files.
    std::map<std::string, std::vector<std::string>> graph;

    for (const auto &[relPath, text] : files) {
        std::string mod = moduleOf(relPath);
        if (mod.empty()) {
            continue; // application layer: include anything
        }
        int rank = layerRank(mod);
        std::string srcRel(relPath.substr(4)); // strip "src/"
        auto &edges = graph[srcRel];
        for (const IncludeEdge &e : projectIncludes(text)) {
            size_t slash = e.target.find('/');
            if (slash == std::string::npos ||
                e.target.rfind("../", 0) == 0 ||
                e.target.rfind("./", 0) == 0) {
                continue; // unprefixed/relative: include-hygiene's problem
            }
            std::string targetMod = e.target.substr(0, slash);
            int targetRank = layerRank(targetMod);
            if (targetRank < 0) {
                if (!e.suppressed) {
                    out.push_back(Finding{
                        Rule::kIncludeLayer, relPath, e.line,
                        "include \"" + e.target +
                            "\" names module '" + targetMod +
                            "' which is not in the layer diagram — add "
                            "it to layerRank() with a deliberate rank"});
                }
                continue;
            }
            edges.push_back(e.target);
            if (targetMod != mod && !(targetRank < rank) &&
                !e.suppressed) {
                out.push_back(Finding{
                    Rule::kIncludeLayer, relPath, e.line,
                    "include \"" + e.target + "\" climbs the layer "
                    "diagram: " + mod + " (rank " +
                        std::to_string(rank) + ") may only include "
                        "modules below it, but " + targetMod +
                        " has rank " + std::to_string(targetRank)});
            }
        }
    }

    // Cycle detection over the file-level graph (colors: 0 unvisited,
    // 1 on stack, 2 done). Only edges to files we actually scanned
    // participate; an include of a nonexistent file is a build error,
    // not ours.
    std::map<std::string, int> color;
    std::vector<std::string> stack;
    std::set<std::string> cycleReported;

    struct Dfs
    {
        const std::map<std::string, std::vector<std::string>> &graph;
        std::map<std::string, int> &color;
        std::vector<std::string> &stack;
        std::set<std::string> &cycleReported;
        std::vector<Finding> &out;

        void
        visit(const std::string &file)
        {
            color[file] = 1;
            stack.push_back(file);
            auto it = graph.find(file);
            if (it != graph.end()) {
                for (const std::string &next : it->second) {
                    if (graph.find(next) == graph.end()) {
                        continue;
                    }
                    int c = color.count(next) != 0 ? color[next] : 0;
                    if (c == 0) {
                        visit(next);
                    } else if (c == 1) {
                        // Found a cycle: stack from `next` to `file`.
                        auto start = std::find(stack.begin(), stack.end(),
                                               next);
                        std::string desc;
                        std::string first = next;
                        for (auto s = start; s != stack.end(); ++s) {
                            desc += *s + " -> ";
                            first = std::min(first, *s);
                        }
                        desc += next;
                        if (cycleReported.insert(first).second) {
                            out.push_back(Finding{
                                Rule::kIncludeLayer, "src/" + first, 1,
                                "include cycle: " + desc});
                        }
                    }
                }
            }
            stack.pop_back();
            color[file] = 2;
        }
    } dfs{graph, color, stack, cycleReported, out};

    for (const auto &[file, edges] : graph) {
        (void)edges;
        if (color.count(file) == 0 || color[file] == 0) {
            dfs.visit(file);
        }
    }

    std::sort(out.begin(), out.end(),
              [](const Finding &a, const Finding &b) {
                  return a.file != b.file ? a.file < b.file
                                          : a.line < b.line;
              });
    return out;
}

} // namespace remora::lint
