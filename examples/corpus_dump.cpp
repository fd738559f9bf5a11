/**
 * @file
 * Dump a seeded synthetic driver corpus (kernel/generator.h) to a
 * directory of Kernel-C source files, one file per generated unit, so
 * shell harnesses can drive the real `ridc` binary over a corpus of
 * known shape — scripts/check.sh uses it for the kill-and-resume smoke.
 *
 * Usage: corpus_dump [scale] [seed] [outdir]
 *   scale    corpus scale factor (default 0.01)
 *   seed     corpus RNG seed (default 0x101)
 *   outdir   output directory, created if missing (default corpus.out)
 */

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "cli_args.h"

#include "kernel/generator.h"

int
main(int argc, char **argv)
{
    const char *prog = "corpus_dump";
    double scale = argc > 1 ? rid::cli::parseScale(prog, argv[1]) : 0.01;
    uint64_t seed = argc > 2 ? rid::cli::parseSeed(prog, argv[2]) : 0x101;
    std::string outdir = argc > 3 ? argv[3] : "corpus.out";

    auto mix = rid::kernel::CorpusMix::paperCalibrated(scale);
    auto corpus = rid::kernel::generateCorpus(mix, seed);

    std::error_code ec;
    std::filesystem::create_directories(outdir, ec);
    if (ec) {
        std::fprintf(stderr, "corpus_dump: cannot create %s: %s\n",
                     outdir.c_str(), ec.message().c_str());
        return 1;
    }
    for (const auto &file : corpus.files) {
        // File names carry a drivers/gen/-style directory prefix.
        std::filesystem::path path =
            std::filesystem::path(outdir) / file.name;
        std::filesystem::create_directories(path.parent_path(), ec);
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        if (!out) {
            std::fprintf(stderr, "corpus_dump: cannot write %s\n",
                         path.string().c_str());
            return 1;
        }
        out << file.text;
    }
    auto totals = corpus.totals();
    std::printf("corpus_dump: %d functions in %zu files -> %s\n",
                totals.functions, corpus.files.size(), outdir.c_str());
    return 0;
}
