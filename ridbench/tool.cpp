/**
 * @file
 * Helper binary of the repository benchmark (run.py drives it).
 *
 *   ridbench_tool gen <paper|path-dense> <seed> <scale> <outdir>
 *
 *     Generates a corpus with kernel::generateCorpusSharded and dumps it
 *     under <outdir>: the sources in src/, their list in files.txt, the
 *     ground truth of every generated function in truth.tsv and the
 *     lock/kmalloc specs as lock.spec and kmalloc.spec. Prints one JSON
 *     line with the function and file counts.
 *
 *   ridbench_tool trace --dir D [--builtin-dpm] [--spec F]... [--threads N]
 *                       [--triage] [--store S [--resume]] --emit OUT
 *
 *     Runs the same pipeline as `ridc --keep-going` over D/files.txt, but
 *     calls each layer's public entry point itself and times the call
 *     (read, tokenize, parseUnit, lowerUnit, Module::absorb, the store
 *     open, Analyzer::run, the triage pass, report rendering). Writes the
 *     report lines ridc would print to OUT, the same reports in the order
 *     the analysis produced them (ridc's order without --triage) to
 *     OUT.untriaged, and one JSON object of per-layer figures to stdout.
 */

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/callgraph.h"
#include "core/rid.h"
#include "frontend/lexer.h"
#include "frontend/lower.h"
#include "frontend/parser.h"
#include "kernel/domain_specs.h"
#include "kernel/dpm_specs.h"
#include "kernel/generator.h"
#include "store/store.h"
#include "summary/spec.h"
#include "triage/triage.h"

namespace fs = std::filesystem;
using rid::kernel::PatternKind;

namespace {

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "ridbench_tool: %s\n", msg.c_str());
    std::exit(2);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        die("cannot open " + path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
writeFile(const fs::path &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!(out << text))
        die("cannot write " + path.string());
}

/** True when @p text holds `name(` as a whole identifier. */
bool
mentionsFunction(const std::string &text, const std::string &name)
{
    for (size_t at = text.find(name + "("); at != std::string::npos;
         at = text.find(name + "(", at + 1)) {
        char before = at ? text[at - 1] : ' ';
        if (!std::isalnum(static_cast<unsigned char>(before)) &&
            before != '_')
            return true;
    }
    return false;
}

/**
 * The path-dense-triage mix at scale 1: refcount-changing patterns only,
 * weighted towards functions whose path count makes symbolic execution,
 * the solver and summary instantiation do the work, plus their buggy
 * twins and a little category-3 filler.
 */
rid::kernel::CorpusMix
pathDenseMix(double scale)
{
    const std::pair<PatternKind, int> base[] = {
        {PatternKind::BuggyPathExplosion, 300},
        {PatternKind::CorrectGotoLadder, 120},
        {PatternKind::BuggyGotoLadder, 120},
        {PatternKind::WrapperGet, 80},
        {PatternKind::WrapperPut, 80},
        {PatternKind::BuggyWrapperCaller, 80},
        {PatternKind::CorrectGetPut, 40},
        {PatternKind::BuggyMissingPutOnError, 40},
        {PatternKind::CorrectLockPair, 80},
        {PatternKind::BuggyLockLeak, 80},
        {PatternKind::CorrectAllocFree, 50},
        {PatternKind::CorrectAllocEscape, 30},
        {PatternKind::BuggyAllocLeak, 80},
        {PatternKind::NestedGetUnderLock, 80},
        {PatternKind::LockedAllocPair, 80},
        {PatternKind::FpBitmask, 40},
        {PatternKind::FpListOp, 40},
        {PatternKind::Cat3Filler, 150},
    };
    rid::kernel::CorpusMix mix;
    for (const auto &[kind, n] : base)
        mix.counts[kind] =
            std::max(1, static_cast<int>(std::llround(n * scale)));
    return mix;
}

int
cmdGen(int argc, char **argv)
{
    if (argc != 6)
        die("usage: gen <paper|path-dense> <seed> <scale> <outdir>");
    std::string kind = argv[2];
    uint64_t seed = std::strtoull(argv[3], nullptr, 0);
    double scale = std::atof(argv[4]);
    fs::path out = argv[5];
    if (!(scale > 0))
        die("scale must be positive");

    rid::kernel::CorpusMix mix;
    if (kind == "paper")
        mix = rid::kernel::CorpusMix::paperCalibrated(scale);
    else if (kind == "path-dense")
        mix = pathDenseMix(scale);
    else
        die("unknown corpus kind " + kind);

    // One file per shard, so each shard's truth lists exactly the
    // functions of its file; the layout equals generateCorpus's.
    rid::kernel::ShardOptions sopts;
    sopts.files_per_shard = 1;
    std::ostringstream files, truth;
    size_t functions = 0, nfiles = 0;
    std::error_code ec;
    rid::kernel::generateCorpusSharded(
        mix, seed, sopts, [&](rid::kernel::CorpusShard &&shard) {
            for (const auto &file : shard.files) {
                fs::path rel = fs::path("src") / file.name;
                fs::create_directories((out / rel).parent_path(), ec);
                if (ec)
                    die("cannot create " + (out / rel).string());
                writeFile(out / rel, file.text);
                files << rel.string() << "\n";
            }
            for (const auto &t : shard.truth) {
                // Some patterns (wrappers, category-2 families) record a
                // name their code does not define; those are no edit
                // targets.
                bool changing =
                    !rid::kernel::patternDomains(t.kind).empty() &&
                    mentionsFunction(shard.files.at(0).text, t.name);
                truth << t.name << "\t"
                      << rid::kernel::patternKindName(t.kind) << "\t"
                      << t.rid_detects << "\t" << t.induces_fp << "\t"
                      << nfiles << "\t" << changing << "\n";
                functions++;
            }
            nfiles += shard.files.size();
        });
    writeFile(out / "files.txt", files.str());
    writeFile(out / "truth.tsv", truth.str());
    writeFile(out / "lock.spec", rid::kernel::lockSpecText());
    writeFile(out / "kmalloc.spec", rid::kernel::allocSpecText());
    std::printf("{\"functions\": %zu, \"files\": %zu}\n", functions, nfiles);
    return 0;
}

/** Accumulated wall seconds per span name. */
class Spans
{
  public:
    class Scope
    {
      public:
        Scope(Spans &spans, const char *name)
            : spans_(spans), name_(name),
              start_(std::chrono::steady_clock::now())
        {}
        ~Scope()
        {
            std::chrono::duration<double> d =
                std::chrono::steady_clock::now() - start_;
            spans_.seconds_[name_] += d.count();
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Spans &spans_;
        const char *name_;
        std::chrono::steady_clock::time_point start_;
    };

    double operator[](const std::string &name) const
    {
        auto it = seconds_.find(name);
        return it == seconds_.end() ? 0.0 : it->second;
    }

  private:
    std::map<std::string, double> seconds_;
};

/** Everything a ridc run keeps alive until exit, destroyed in one step
 *  so that the teardown can be timed (the analyzer, declared last, goes
 *  first: it refers to the module and the database). */
struct PipelineState
{
    rid::summary::SummaryDb db;
    rid::ir::Module module;
    std::vector<std::pair<std::string, std::string>> sources;
    std::unique_ptr<rid::analysis::Analyzer> analyzer;
    rid::RunResult result;
};

int
cmdTrace(int argc, char **argv)
{
    std::string dir, emit_path, store_path;
    std::vector<std::string> spec_files;
    bool builtin_dpm = false, triage = false, resume = false;
    rid::analysis::AnalyzerOptions opts;
    for (int i = 2; i < argc; i++) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                die("missing value for " + arg);
            return argv[i];
        };
        if (arg == "--dir")
            dir = next();
        else if (arg == "--emit")
            emit_path = next();
        else if (arg == "--builtin-dpm")
            builtin_dpm = true;
        else if (arg == "--spec")
            spec_files.push_back(next());
        else if (arg == "--threads")
            opts.threads = std::atoi(next().c_str());
        else if (arg == "--triage")
            triage = true;
        else if (arg == "--store")
            store_path = next();
        else if (arg == "--resume")
            resume = true;
        else
            die("unknown argument " + arg);
    }
    if (dir.empty() || emit_path.empty())
        die("trace needs --dir and --emit");
    opts.triage = triage;
    opts.resume = resume;
    opts.store_path = store_path;

    Spans spans;
    auto state = std::make_unique<PipelineState>();
    rid::summary::SummaryDb &db = state->db;
    if (builtin_dpm)
        rid::summary::loadSpecsInto(rid::kernel::dpmSpecText(), db);
    for (const auto &f : spec_files)
        rid::summary::loadSpecsInto(readFile(f), db);

    std::vector<std::string> paths;
    {
        std::istringstream list(readFile(dir + "/files.txt"));
        for (std::string line; std::getline(list, line);)
            if (!line.empty())
                paths.push_back(dir + "/" + line);
    }

    // Frontend and link, file by file as Rid::addSourceTolerant does.
    // parseUnit tokenizes internally, so each file is tokenized twice:
    // once alone (frontend.lex) and once inside frontend.parse, whose
    // self time is parse minus lex. The second tokenize is tracing
    // overhead, reported as part of trace.probe_s.
    rid::ir::Module &module = state->module;
    rid::frontend::LowerOptions lower_opts;
    auto &sources = state->sources;
    std::vector<rid::FileDiagnostic> file_errors;
    uint64_t tokens = 0;
    for (const auto &path : paths) {
        std::string text;
        {
            Spans::Scope s(spans, "frontend.read");
            text = readFile(path);
        }
        try {
            {
                Spans::Scope s(spans, "frontend.lex");
                tokens += rid::frontend::tokenize(text).size();
            }
            std::optional<rid::frontend::AstUnit> unit;
            {
                Spans::Scope s(spans, "frontend.parse");
                unit.emplace(rid::frontend::parseUnit(text));
            }
            std::optional<rid::ir::Module> lowered;
            {
                Spans::Scope s(spans, "frontend.lower");
                lowered.emplace(rid::frontend::lowerUnit(*unit, lower_opts));
            }
            {
                Spans::Scope s(spans, "ir.link");
                module.absorb(std::move(*lowered));
            }
            {
                // The AST is the parser's product; freeing it is parse cost.
                Spans::Scope s(spans, "frontend.parse");
                unit.reset();
            }
            sources.emplace_back(std::string(), std::move(text));
        } catch (const std::exception &e) {
            file_errors.push_back({path, e.what()});
        }
    }
    uint64_t blocks = 0, instructions = 0, defined = 0;
    for (const auto &fn : module.functions()) {
        if (fn->isDeclaration())
            continue;
        defined++;
        blocks += fn->numBlocks();
        for (size_t b = 0; b < fn->numBlocks(); b++)
            instructions += fn->block(b).instrs.size();
    }

    // Store open, analysis and triage, as Rid::run does them. The store
    // and triage spans are taken on every workload; where the layer is
    // off they time only the check that skips it.
    {
        Spans::Scope s(spans, "store.open");
        if (!store_path.empty()) {
            rid::store::AnalysisStore::Options sopts;
            sopts.path = store_path;
            sopts.resume = resume;
            sopts.config_fp = rid::store::configFingerprint(db, opts);
            opts.store = std::make_shared<rid::store::AnalysisStore>(sopts);
        }
    }
    state->analyzer =
        std::make_unique<rid::analysis::Analyzer>(module, db, opts);
    rid::analysis::Analyzer &analyzer = *state->analyzer;
    {
        Spans::Scope s(spans, "analysis.analyze");
        analyzer.run();
    }
    // The report order the analysis itself produced, as ridc prints it
    // without --triage (the triage pass re-sorts by rank).
    std::string untriaged;
    for (const auto &r : analyzer.reports())
        untriaged += r.str() + "\n";
    rid::RunResult &result = state->result;
    result.reports = analyzer.reports();
    result.stats = analyzer.stats();
    result.diagnostics = analyzer.diagnostics();
    result.file_errors = file_errors;
    result.profile = rid::obs::buildProfile(
        analyzer.functionCosts(), static_cast<size_t>(opts.profile_top_n));
    {
        Spans::Scope s(spans, "triage");
        if (triage) {
            rid::triage::TriageOptions topts;
            topts.fuel = opts.triage_fuel;
            topts.extension_depth = opts.triage_extension_depth;
            topts.max_extension_functions =
                opts.triage_max_extension_functions;
            topts.max_paths = opts.max_paths;
            topts.max_subcases = opts.max_subcases;
            topts.lower = lower_opts;
            rid::triage::TriagePass pass(module, db, sources,
                                         analyzer.queryCache(), topts);
            pass.run(result.reports);
            result.triage = pass.stats();
            if (analyzer.queryCache())
                result.stats.query_cache = analyzer.queryCache()->stats();
        }
    }

    // Emit exactly what ridc prints: report lines on stdout, run
    // statistics on stderr.
    std::string out, err;
    {
        Spans::Scope s(spans, "core.emit");
        for (const auto &r : result.reports)
            out += r.str() + "\n";
        err = result.str();
    }
    writeFile(emit_path, out);
    writeFile(emit_path + ".untriaged", untriaged);

    // Probe: the analyzer builds its call graph privately, so a second
    // one is built here to time and count it. Not part of the ridc run.
    uint64_t cg_nodes = 0, cg_edges = 0, cg_levels = 0;
    {
        Spans::Scope s(spans, "analysis.callgraph");
        rid::analysis::CallGraph cg(module);
        cg_nodes = cg.size();
        for (size_t n = 0; n < cg.size(); n++)
            cg_edges += cg.calleesOf(static_cast<int>(n)).size();
        cg_levels = cg.sccLevels().size();
    }

    const rid::analysis::AnalyzerStats st = result.stats;
    const rid::triage::TriageStats tr = result.triage;
    const size_t reports = result.reports.size();
    {
        Spans::Scope s(spans, "teardown");
        state.reset();
    }

    // printf %.17g keeps every digit of a timing; counts stay exact.
    std::string json = "{";
    auto num = [&](const char *k, double v) {
        char buf[128];
        std::snprintf(buf, sizeof(buf), "%s\"%s\": %.17g",
                      json.size() > 1 ? ", " : "", k, v);
        json += buf;
    };
    auto cnt = [&](const char *k, uint64_t v) {
        num(k, static_cast<double>(v));
    };
    num("frontend.read_s", spans["frontend.read"]);
    num("frontend.lex_s", spans["frontend.lex"]);
    cnt("frontend.tokens", tokens);
    num("frontend.parse_s", spans["frontend.parse"] - spans["frontend.lex"]);
    num("frontend.lower_s", spans["frontend.lower"]);
    cnt("frontend.files_rejected", file_errors.size());
    num("ir.link_s", spans["ir.link"]);
    cnt("ir.functions", defined);
    cnt("ir.blocks", blocks);
    cnt("ir.instructions", instructions);
    num("analysis.callgraph_s", spans["analysis.callgraph"]);
    cnt("analysis.callgraph_nodes", cg_nodes);
    cnt("analysis.callgraph_edges", cg_edges);
    cnt("analysis.scc_levels", cg_levels);
    num("analysis.classify_s", st.classify_seconds);
    cnt("analysis.cat1", st.categories.refcount_changing);
    cnt("analysis.cat2", st.categories.affecting);
    cnt("analysis.cat3", st.categories.other);
    num("analysis.analyze_s", spans["analysis.analyze"]);
    num("analysis.symexec_s", st.symexec_seconds);
    num("analysis.ipp_s", st.ipp_seconds);
    cnt("analysis.paths", st.paths_enumerated);
    cnt("analysis.blocks_executed", st.blocks_executed);
    cnt("analysis.state_forks", st.state_forks);
    cnt("analysis.functions_analyzed", st.functions_analyzed);
    cnt("analysis.functions_truncated", st.functions_truncated);
    cnt("smt.queries", st.solver.queries);
    cnt("smt.theory_checks", st.solver.theory_checks);
    num("smt.solve_s", st.solver.solveSeconds());
    num("smt.query_cache_hit_rate", st.query_cache.hitRate());
    cnt("smt.unknowns", st.solver.unknowns);
    cnt("summary.entries_computed", st.entries_computed);
    cnt("summary.entries_instantiated", st.entries_instantiated);
    num("summary.inst_cache_hit_rate", st.inst_cache.hitRate());
    cnt("summary.entries_compacted", st.summary_entries_compacted);
    num("triage.s", spans["triage"]);
    cnt("triage.hp_functions_executed", tr.hp_functions_executed);
    cnt("triage.confirmed", tr.confirmed);
    cnt("triage.refuted", tr.refuted);
    num("triage.cross_pass_hit_rate", st.query_cache.crossPassRate());
    cnt("triage.budget_stops", tr.budget_stops);
    num("store.open_s", spans["store.open"]);
    cnt("store.hits", st.store.hits);
    cnt("store.misses", st.store.misses);
    cnt("store.loaded_records", st.store.loaded_records);
    cnt("store.bytes_appended", st.store.bytes_appended);
    cnt("store.torn_frames", st.store.torn_frames);
    cnt("store.failed_writes", st.store.failed_writes);
    num("core.emit_s", spans["core.emit"]);
    cnt("core.emit_bytes", out.size() + err.size());
    num("trace.probe_s",
        spans["frontend.lex"] + spans["analysis.callgraph"]);
    num("trace.teardown_s", spans["teardown"]);
    cnt("reports", reports);
    std::printf("%s}\n", json.c_str());
    std::fflush(stdout);
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd == "gen")
        return cmdGen(argc, argv);
    if (cmd == "trace")
        return cmdTrace(argc, argv);
    die("usage: ridbench_tool gen|trace ...");
}
