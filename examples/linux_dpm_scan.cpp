/**
 * @file
 * Scan a synthetic Linux-DPM driver tree, the way the paper's evaluation
 * scans the kernel (Section 6.2).
 *
 * Generates a seeded corpus of driver functions (correct code, the bug
 * shapes of Figures 8-10, the false-positive inducers of Section 6.4 and
 * refcount-irrelevant filler), runs RID over it, and scores the reports
 * against the generator's ground truth.
 *
 * Usage: linux_dpm_scan [scale] [seed] [trace.json] [metrics.prom]
 *   scale    multiplier for the filler populations (default 0.01)
 *   seed     corpus RNG seed (default 0x101)
 *   trace    write a Chrome-trace JSON of the run (open in Perfetto)
 *   metrics  write the run's Prometheus metrics exposition
 */

#include <cstdio>
#include <set>

#include "cli_args.h"

#include "core/rid.h"
#include "kernel/dpm_specs.h"
#include "kernel/generator.h"

int
main(int argc, char **argv)
{
    const char *prog = "linux_dpm_scan";
    double scale = argc > 1 ? rid::cli::parseScale(prog, argv[1]) : 0.01;
    uint64_t seed = argc > 2 ? rid::cli::parseSeed(prog, argv[2]) : 0x101;

    auto mix = rid::kernel::CorpusMix::paperCalibrated(scale);
    auto corpus = rid::kernel::generateCorpus(mix, seed);
    auto totals = corpus.totals();
    std::printf("corpus: %d functions in %zu files "
                "(%d real bugs, %d detectable, %d FP inducers)\n",
                totals.functions, corpus.files.size(), totals.real_bugs,
                totals.rid_detectable_bugs, totals.fp_inducers);

    rid::analysis::AnalyzerOptions opts;
    if (argc > 3)
        opts.trace_path = argv[3];
    if (argc > 4)
        opts.metrics_path = argv[4];

    rid::Rid tool(opts);
    tool.loadSpecText(rid::kernel::dpmSpecText());
    for (const auto &file : corpus.files)
        tool.addSource(file.text);

    rid::RunResult result = tool.run();

    std::set<std::string> reported;
    for (const auto &report : result.reports)
        reported.insert(report.function);

    int true_bugs = 0, false_positives = 0;
    for (const auto &truth : corpus.truth) {
        if (!reported.count(truth.name))
            continue;
        if (truth.has_bug)
            true_bugs++;
        else
            false_positives++;
    }

    std::printf("\nRID: %zu reports — %d real bugs, %d false positives\n",
                result.reports.size(), true_bugs, false_positives);
    std::printf("(the paper reports 83 confirmed bugs out of 355 reports "
                "on Linux 3.17 DPM)\n\n");

    std::printf("sample reports:\n");
    int shown = 0;
    for (const auto &report : result.reports) {
        const auto *truth = corpus.truthFor(report.function);
        std::printf("  [%s] %s\n",
                    truth && truth->has_bug ? "BUG" : "FP ",
                    report.str().c_str());
        if (++shown >= 5)
            break;
    }

    std::printf("\n%s", result.str().c_str());
    std::printf("\n%s", result.profile.str().c_str());
    if (argc > 3)
        std::printf("\nwrote trace to %s\n", argv[3]);
    if (argc > 4)
        std::printf("wrote metrics to %s\n", argv[4]);
    return 0;
}
