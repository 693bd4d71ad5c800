/**
 * @file
 * Reproduction of Table 1b: breakdown of NFS RPC traffic into control
 * and data portions, over the exact Table 1a call population.
 *
 * Accounting rules follow §2 precisely: network-protocol headers are
 * excluded; file handles, communication identifiers (xids), and
 * RPC/XDR marshaling overheads count as *control*; the information the
 * file-system protocol itself needs (file bytes, attributes, names,
 * link targets, directory entries) counts as *data*. Byte counts are
 * util::sizeOf over the same call and reply layouts (dfs/nfs_proto.h)
 * the simulated file service encodes and transmits.
 *
 * The paper's published reference points: the write row's control/data
 * ratio is 0.01, and the overall ratio is 0.14 ("overall, the control
 * traffic due to the RPC model is about 12% of the total").
 */
#include <cstdio>

#include "bench_common.h"
#include "trace/workload.h"
#include "util/strings.h"

using namespace remora;

int
main()
{
    bench::banner("Table 1b: Breakdown of NFS RPC Traffic");

    trace::WorkloadGen gen(42);
    trace::TrafficSummary sum = gen.replayPaperPopulation();

    util::TextTable table(
        {"Activity", "Control (MB)", "Data (MB)", "Control/Data"});
    auto mb = [](uint64_t bytes) {
        return bench::fmt(static_cast<double>(bytes) / 1e6, 1);
    };
    for (const trace::MixRow &row : trace::paperMix()) {
        size_t idx = static_cast<size_t>(row.cls);
        const trace::Traffic &t = sum.perClass[idx];
        table.addRow({trace::opClassName(row.cls), mb(t.controlBytes),
                      mb(t.dataBytes),
                      t.dataBytes ? bench::fmt(t.ratio(), 2) : "-"});
    }
    trace::Traffic total = sum.total();
    table.addSeparator();
    table.addRow({"Overall Total", mb(total.controlBytes),
                  mb(total.dataBytes), bench::fmt(total.ratio(), 2)});
    std::printf("%s\n", table.render().c_str());

    size_t writeIdx = static_cast<size_t>(trace::OpClass::kWrite);
    double writeRatio = sum.perClass[writeIdx].ratio();
    double overall = total.ratio();
    double controlShare = 100.0 *
                          static_cast<double>(total.controlBytes) /
                          static_cast<double>(total.controlBytes +
                                              total.dataBytes);

    std::printf("Paper reference points:\n");
    std::printf("  Write File Data ratio: paper 0.01, measured %.3f\n",
                writeRatio);
    std::printf("  Overall ratio: paper 0.14, measured %.3f\n", overall);
    std::printf("  \"control traffic ... about 12%% of the total\": "
                "measured %.1f%%\n",
                controlShare);
    std::printf("Shape checks:\n");
    std::printf("  write is the least control-heavy class: %s\n",
                writeRatio <= overall ? "yes" : "NO");
    std::printf("  eliminating RPC removes a non-trivial traffic "
                "fraction (>5%%): %s\n",
                controlShare > 5.0 ? "yes" : "NO");

    bench::BenchReport report("table1b_traffic");
    report.metric("write.control_over_data", writeRatio, "x", 0.01);
    report.metric("overall.control_over_data", overall, "x", 0.14);
    report.metric("overall.control_share_pct", controlShare, "%", 12.0);
    report.metric("overall.control_mb",
                  static_cast<double>(total.controlBytes) / 1e6, "MB");
    report.metric("overall.data_mb",
                  static_cast<double>(total.dataBytes) / 1e6, "MB");
    report.check("write_least_control_heavy", writeRatio <= overall);
    report.check("control_share_gt_5pct", controlShare > 5.0);
    report.write();
    return 0;
}
