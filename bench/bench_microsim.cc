/**
 * @file
 * Ablation A4: engine microbenchmarks (google-benchmark, wall-clock).
 *
 * Unlike the table/figure benches — which report *simulated* 1994-era
 * time — these measure the simulator's own execution speed: event
 * queue throughput, CRC rates, AAL5 segmentation/reassembly, protocol
 * codec, marshaling, and end-to-end simulated remote operations per
 * host second. Useful for keeping the simulator fast enough for the
 * scaling experiments.
 */
#include <benchmark/benchmark.h>

#include <string_view>
#include <vector>

#include "net/aal5.h"
#include "rmem/protocol.h"
#include "rpc/marshal.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "util/crc.h"

#include "bench_common.h"

using namespace remora;

namespace {

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulator sim;
        uint64_t sink = 0;
        for (int i = 0; i < 1024; ++i) {
            sim.schedule(i * 10, [&sink] { ++sink; });
        }
        sim.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_Crc32(benchmark::State &state)
{
    std::vector<uint8_t> data(static_cast<size_t>(state.range(0)), 0xa5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(util::crc32Ieee(data));
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4096)->Arg(65536);

void
BM_Aal5RoundTrip(benchmark::State &state)
{
    std::vector<uint8_t> frame(static_cast<size_t>(state.range(0)), 0x42);
    for (auto _ : state) {
        auto cells = net::aal5Segment(1, 2, frame);
        net::Aal5Reassembler reasm;
        std::optional<net::Aal5Reassembler::Frame> out;
        for (const auto &cell : cells) {
            out = reasm.feed(cell);
        }
        benchmark::DoNotOptimize(out);
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Aal5RoundTrip)->Arg(40)->Arg(4096)->Arg(32768);

void
BM_ProtocolCodec(benchmark::State &state)
{
    rmem::WriteReq req;
    req.descriptor = 3;
    req.generation = 7;
    req.offset = 1024;
    req.data.assign(40, 0x11);
    for (auto _ : state) {
        auto bytes = rmem::encodeMessage(rmem::Message(req));
        auto decoded = rmem::decodeMessage(bytes);
        benchmark::DoNotOptimize(decoded);
    }
}
BENCHMARK(BM_ProtocolCodec);

void
BM_MarshalRoundTrip(benchmark::State &state)
{
    for (auto _ : state) {
        rpc::Marshal m;
        m.putU32(42);
        m.putU64(0xdeadbeefcafef00dull);
        m.putString("the quick brown fox");
        m.putOpaque(std::vector<uint8_t>(128, 9));
        auto buf = m.take();
        rpc::Unmarshal u(buf);
        benchmark::DoNotOptimize(u.getU32());
        benchmark::DoNotOptimize(u.getU64());
        benchmark::DoNotOptimize(u.getString());
        benchmark::DoNotOptimize(u.getOpaque());
    }
}
BENCHMARK(BM_MarshalRoundTrip);

void
BM_Pcg32(benchmark::State &state)
{
    sim::Random rng(7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(rng.nextU32());
    }
}
BENCHMARK(BM_Pcg32);

void
BM_SimulatedRemoteWrite(benchmark::State &state)
{
    bench::TwoNode cluster;
    rmem::ImportedSegment seg = cluster.exportOn(1, "bench");
    cluster.sim.run();
    for (auto _ : state) {
        auto task = cluster.engineA.write(seg, 0,
                                          std::vector<uint8_t>(40, 0x7e));
        bench::run(cluster.sim, task);
        cluster.sim.run();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatedRemoteWrite);

} // namespace

/**
 * Like BENCHMARK_MAIN(), but defaults --benchmark_out to the repo's
 * machine-readable report name so this bench emits BENCH_microsim.json
 * alongside its console table (explicit flags still win).
 */
int
main(int argc, char **argv)
{
    std::vector<char *> args(argv, argv + argc);
    bool hasOut = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string_view(argv[i]).rfind("--benchmark_out", 0) == 0) {
            hasOut = true;
        }
    }
    static char outFlag[] = "--benchmark_out=BENCH_microsim.json";
    static char fmtFlag[] = "--benchmark_out_format=json";
    if (!hasOut) {
        args.push_back(outFlag);
        args.push_back(fmtFlag);
    }
    int ac = static_cast<int>(args.size());
    benchmark::Initialize(&ac, args.data());
    if (benchmark::ReportUnrecognizedArguments(ac, args.data())) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
