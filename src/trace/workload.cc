#include "trace/workload.h"

#include <algorithm>

#include "util/panic.h"

namespace remora::trace {

namespace {

/** Class-draw weights straight from Table 1a. */
std::vector<double>
mixWeights()
{
    std::vector<double> w;
    w.reserve(kNumOpClasses);
    for (const MixRow &row : paperMix()) {
        w.push_back(static_cast<double>(row.count));
    }
    return w;
}

} // namespace

Traffic
TrafficSummary::total() const
{
    Traffic t;
    for (const Traffic &c : perClass) {
        t += c;
    }
    return t;
}

WorkloadGen::WorkloadGen(uint64_t seed, uint32_t fileCount)
    : rng_(seed), classDist_(mixWeights()), filePick_(fileCount, 0.95)
{
    REMORA_ASSERT(fileCount > 0);
}

uint32_t
WorkloadGen::drawSize(SizeTable table)
{
    REMORA_ASSERT(!table.empty());
    std::vector<double> w;
    w.reserve(table.size());
    for (const auto &[bytes, weight] : table) {
        (void)bytes;
        w.push_back(weight);
    }
    // Note: building the sampler per call would be wasteful; cache by
    // table identity (the three tables are stable per generator).
    sim::Random::Discrete dist(w);
    return table[dist.sample(rng_)].first;
}

Op
WorkloadGen::next()
{
    Op op;
    op.cls = static_cast<OpClass>(classDist_.sample(rng_));
    op.fileIdx = static_cast<uint32_t>(filePick_.sample(rng_));
    switch (op.cls) {
      case OpClass::kRead:
        op.bytes = drawSize(kReadSizes);
        break;
      case OpClass::kWrite:
        op.bytes = drawSize(kWriteSizes);
        break;
      case OpClass::kReadDir:
        op.bytes = drawSize(kReaddirSizes);
        break;
      default:
        op.bytes = 0;
        break;
    }
    op.offset = 0; // block-aligned start; hot files are small
    return op;
}

TrafficSummary
WorkloadGen::replay(uint64_t ops)
{
    TrafficSummary sum;
    for (uint64_t i = 0; i < ops; ++i) {
        Op op = next();
        size_t idx = static_cast<size_t>(op.cls);
        ++sum.opCount[idx];
        sum.perClass[idx] += classifyOp(op.cls, OpShape{op.bytes});
        ++sum.totalOps;
    }
    return sum;
}

TrafficSummary
WorkloadGen::replayPaperPopulation()
{
    TrafficSummary sum;
    for (const MixRow &row : paperMix()) {
        size_t idx = static_cast<size_t>(row.cls);
        sum.opCount[idx] = row.count;
        sum.totalOps += row.count;
        // Average the size distribution exactly instead of sampling
        // millions of draws: classify one op per distinct size and
        // weight by probability.
        auto addWeighted = [&](SizeTable table) {
                double wsum = 0;
                for (const auto &[bytes, weight] : table) {
                    (void)bytes;
                    wsum += weight;
                }
                for (const auto &[bytes, weight] : table) {
                    Traffic t = classifyOp(row.cls, OpShape{bytes});
                    double scale =
                        weight / wsum * static_cast<double>(row.count);
                    sum.perClass[idx].controlBytes += static_cast<uint64_t>(
                        static_cast<double>(t.controlBytes) * scale);
                    sum.perClass[idx].dataBytes += static_cast<uint64_t>(
                        static_cast<double>(t.dataBytes) * scale);
                }
            };
        switch (row.cls) {
          case OpClass::kRead:
            addWeighted(kReadSizes);
            break;
          case OpClass::kWrite:
            addWeighted(kWriteSizes);
            break;
          case OpClass::kReadDir:
            addWeighted(kReaddirSizes);
            break;
          default: {
            Traffic t = classifyOp(row.cls, OpShape{});
            sum.perClass[idx].controlBytes += t.controlBytes * row.count;
            sum.perClass[idx].dataBytes += t.dataBytes * row.count;
            break;
          }
        }
    }
    return sum;
}

std::vector<dfs::FileHandle>
buildPaperFileSet(dfs::FileStore &store, uint32_t fileCount, uint64_t seed)
{
    sim::Random rng(seed);
    std::vector<dfs::FileHandle> files;
    files.reserve(fileCount);

    auto fonts = store.mkdir(store.root(), "fonts");
    auto src = store.mkdir(store.root(), "src");
    auto usr = store.mkdir(store.root(), "usr");
    REMORA_ASSERT(fonts.ok() && src.ok() && usr.ok());
    auto bin = store.mkdir(usr.value(), "bin");
    REMORA_ASSERT(bin.ok());

    for (uint32_t i = 0; i < fileCount; ++i) {
        dfs::FileHandle dir;
        std::string name;
        uint64_t size;
        switch (i % 3) {
          case 0:
            dir = fonts.value();
            name = "font" + std::to_string(i) + ".pcf";
            size = 2048 + rng.uniformInt(6144);
            break;
          case 1:
            dir = src.value();
            name = "mod" + std::to_string(i) + ".c";
            size = 1024 + rng.uniformInt(15360);
            break;
          default:
            dir = bin.value();
            name = "tool" + std::to_string(i);
            size = 8192 + rng.uniformInt(24576);
            break;
        }
        auto fh = store.createFile(dir, name, size);
        REMORA_ASSERT(fh.ok());
        files.push_back(fh.value());
    }

    // A few symlinks, as on the real server (X11 font aliases etc.).
    for (uint32_t i = 0; i < std::max<uint32_t>(fileCount / 8, 1); ++i) {
        auto l = store.symlink(store.root(), "link" + std::to_string(i),
                               "usr/bin/tool" + std::to_string(i));
        REMORA_ASSERT(l.ok());
    }
    return files;
}

} // namespace remora::trace
