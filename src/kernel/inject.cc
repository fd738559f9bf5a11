#include "kernel/inject.h"

#include <algorithm>
#include <limits>

#include "analysis/symexec.h"
#include "frontend/lower.h"
#include "kernel/domain_specs.h"
#include "kernel/dpm_specs.h"
#include "smt/solver.h"
#include "summary/db.h"
#include "summary/spec.h"

namespace rid::kernel {

const char *
injectionKindName(InjectionKind k)
{
    switch (k) {
      case InjectionKind::MissingDecOnError: return "missing-dec-on-error";
      case InjectionKind::DoubleInc: return "double-inc";
      case InjectionKind::LeakedAcquireUnderLock:
        return "leaked-acquire-under-lock";
      case InjectionKind::RefLeakUnderLock: return "ref-leak-under-lock";
      case InjectionKind::AllocLeakUnderLock:
        return "alloc-leak-under-lock";
    }
    return "?";
}

PatternKind
injectionHostKind(InjectionKind k)
{
    switch (k) {
      case InjectionKind::MissingDecOnError:
      case InjectionKind::DoubleInc:
        return PatternKind::CorrectGetPut;
      case InjectionKind::LeakedAcquireUnderLock:
      case InjectionKind::RefLeakUnderLock:
        return PatternKind::NestedGetUnderLock;
      case InjectionKind::AllocLeakUnderLock:
        return PatternKind::LockedAllocPair;
    }
    return PatternKind::CorrectGetPut;
}

const char *
injectionDomain(InjectionKind k)
{
    switch (k) {
      case InjectionKind::MissingDecOnError:
      case InjectionKind::DoubleInc:
      case InjectionKind::RefLeakUnderLock:
        return "ref";
      case InjectionKind::LeakedAcquireUnderLock:
        return "lock";
      case InjectionKind::AllocLeakUnderLock:
        return "alloc";
    }
    return "ref";
}

namespace {

std::string
trim(const std::string &s)
{
    size_t b = s.find_first_not_of(" \t");
    if (b == std::string::npos)
        return "";
    size_t e = s.find_last_not_of(" \t");
    return s.substr(b, e - b + 1);
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    size_t pos = 0;
    while (pos <= text.size()) {
        size_t nl = text.find('\n', pos);
        if (nl == std::string::npos) {
            if (pos < text.size())
                lines.push_back(text.substr(pos));
            break;
        }
        lines.push_back(text.substr(pos, nl - pos));
        pos = nl + 1;
    }
    return lines;
}

std::string
joinLines(const std::vector<std::string> &lines)
{
    std::string out;
    for (const auto &line : lines) {
        out += line;
        out += '\n';
    }
    return out;
}

/** Line range of the host's `if (ret < 0) { ... }` error block:
 *  [begin, end) covers the statements, end is the closing brace. The
 *  emitted hosts never nest braces inside the block, so the first bare
 *  `}` terminates it. */
struct ErrorBlock
{
    size_t begin = 0;
    size_t end = 0;
    bool ok = false;
};

ErrorBlock
findErrorBlock(const std::vector<std::string> &lines)
{
    for (size_t i = 0; i < lines.size(); i++) {
        if (trim(lines[i]) != "if (ret < 0) {")
            continue;
        for (size_t j = i + 1; j < lines.size(); j++) {
            if (trim(lines[j]) == "}")
                return ErrorBlock{i + 1, j, true};
        }
        return ErrorBlock{};
    }
    return ErrorBlock{};
}

bool
eraseInBlock(std::vector<std::string> &lines, const ErrorBlock &block,
             const char *needle, size_t *line_out)
{
    for (size_t i = block.begin; i < block.end; i++) {
        if (lines[i].find(needle) == std::string::npos)
            continue;
        lines.erase(lines.begin() + static_cast<long>(i));
        if (line_out)
            *line_out = i;
        return true;
    }
    return false;
}

/** True for counters rooted at the return-value atom (escaping
 *  ownership, exempt from every checking policy). */
bool
rootIsRet(smt::Expr e)
{
    while (e.kind() == smt::ExprKind::Field)
        e = e.base();
    return e.kind() == smt::ExprKind::Ret;
}

} // anonymous namespace

bool
InjectionEngine::viable(const std::string &source,
                        const std::string &function,
                        const std::string &domain)
{
    ir::Module mod;
    try {
        mod = frontend::compile(source);
    } catch (...) {
        return false;
    }
    const ir::Function *fn = mod.find(function);
    if (!fn || fn->isDeclaration())
        return false;

    summary::SummaryDb db;
    summary::loadSpecsInto(dpmSpecText(), db);
    summary::loadSpecsInto(lockSpecText(), db);
    summary::loadSpecsInto(allocSpecText(), db);
    smt::Solver solver;

    analysis::TreeExecOptions opts;
    opts.max_paths = 512;
    opts.max_visits = 2;
    auto tree = analysis::executeFunctionTree(*fn, db, solver, opts);
    for (const auto &outcome : tree.completed) {
        for (const auto &entry : outcome.entries) {
            for (const auto &[key, delta] : entry.changes) {
                if (key.domain != domain || delta == 0)
                    continue;
                if (rootIsRet(key.counter))
                    continue;
                if (solver.isSat(entry.cons))
                    return true;
            }
        }
    }
    return false;
}

bool
InjectionEngine::inject(InjectionKind kind, GeneratedFunction &gen,
                        Injection *out)
{
    stats_.attempted++;
    auto lines = splitLines(gen.source);
    ErrorBlock block = findErrorBlock(lines);
    if (!block.ok) {
        stats_.rejected_rewrite++;
        return false;
    }

    size_t line = 0;
    std::string path_desc;
    bool rewritten = false;
    switch (kind) {
      case InjectionKind::MissingDecOnError:
        rewritten = eraseInBlock(lines, block, "pm_runtime_put", &line);
        path_desc = "error path (ret < 0) returns without the "
                    "balancing put";
        break;
      case InjectionKind::DoubleInc: {
        std::string get =
            gen.source.find("pm_runtime_get_sync") != std::string::npos
                ? "pm_runtime_get_sync"
                : "pm_runtime_get";
        lines.insert(lines.begin() + static_cast<long>(block.begin),
                     "        " + get + "(dev);");
        line = block.begin;
        path_desc = "error path (ret < 0) takes a second increment "
                    "before returning";
        rewritten = true;
        break;
      }
      case InjectionKind::LeakedAcquireUnderLock:
        rewritten = eraseInBlock(lines, block, "_unlock", &line);
        path_desc = "error path (ret < 0) returns with the lock "
                    "still held";
        break;
      case InjectionKind::RefLeakUnderLock:
        rewritten = eraseInBlock(lines, block, "pm_runtime_put", &line);
        path_desc = "error path (ret < 0) under the lock skips the "
                    "balancing put";
        break;
      case InjectionKind::AllocLeakUnderLock:
        rewritten = eraseInBlock(lines, block, "kfree(", &line);
        path_desc = "error path (ret < 0) returns without freeing "
                    "the buffer";
        break;
    }
    if (!rewritten) {
        stats_.rejected_rewrite++;
        return false;
    }

    std::string source = joinLines(lines);
    const char *domain = injectionDomain(kind);
    if (!viable(source, gen.truth.name, domain)) {
        stats_.rejected_unviable++;
        return false;
    }

    gen.source = std::move(source);
    gen.truth.injected = true;
    gen.truth.has_bug = true;
    gen.truth.rid_detects = true;
    gen.truth.domain = domain;
    gen.truth.misuse = (kind == InjectionKind::MissingDecOnError ||
                        kind == InjectionKind::RefLeakUnderLock) &&
                       gen.truth.error_handled_get_site;
    stats_.applied++;

    if (out) {
        out->function = gen.truth.name;
        out->domain = domain;
        out->kind = kind;
        out->host = gen.truth.kind;
        out->path = std::move(path_desc);
        out->line = static_cast<int>(line) + 1;
    }
    return true;
}

int
InjectionPlan::total() const
{
    int n = 0;
    for (const auto &[k, c] : counts)
        n += c;
    return n;
}

InjectionPlan
InjectionPlan::calibrated(const CorpusMix &mix)
{
    InjectionPlan plan;
    auto quarter = [&](PatternKind host) {
        int hosts = mix.countOf(host);
        return hosts <= 0 ? 0 : std::max(1, hosts / 4);
    };
    plan.counts[InjectionKind::MissingDecOnError] =
        quarter(PatternKind::CorrectGetPut);
    plan.counts[InjectionKind::DoubleInc] =
        quarter(PatternKind::CorrectGetPut);
    plan.counts[InjectionKind::LeakedAcquireUnderLock] =
        quarter(PatternKind::NestedGetUnderLock);
    plan.counts[InjectionKind::RefLeakUnderLock] =
        quarter(PatternKind::NestedGetUnderLock);
    plan.counts[InjectionKind::AllocLeakUnderLock] =
        quarter(PatternKind::LockedAllocPair);
    return plan;
}

void
generateInjectedCorpusSharded(
    const CorpusMix &mix, const InjectionPlan &plan, uint64_t seed,
    const ShardOptions &opts,
    const std::function<void(CorpusShard &&)> &sink, InjectionLog &log)
{
    std::map<InjectionKind, int> remaining = plan.counts;
    InjectionEngine engine;
    FunctionTweak tweak = [&](GeneratedFunction &gen) {
        if (gen.truth.has_bug || gen.truth.induces_fp ||
            gen.truth.injected) {
            return;
        }
        // Pick the matching recipe with the most budget left; recipes
        // sharing a host kind thereby alternate deterministically.
        bool found = false;
        InjectionKind best = InjectionKind::MissingDecOnError;
        int best_left = 0;
        for (const auto &[kind, left] : remaining) {
            if (left <= 0 || injectionHostKind(kind) != gen.truth.kind)
                continue;
            if (left > best_left) {
                best = kind;
                best_left = left;
                found = true;
            }
        }
        if (!found)
            return;
        Injection record;
        if (engine.inject(best, gen, &record)) {
            remaining[best]--;
            log.injections.push_back(std::move(record));
        }
    };
    generateCorpusSharded(mix, seed, opts, sink, tweak);
    log.stats = engine.stats();
}

InjectedCorpus
generateInjectedCorpus(const CorpusMix &mix, const InjectionPlan &plan,
                       uint64_t seed)
{
    InjectedCorpus out;
    InjectionLog log;
    ShardOptions opts;
    opts.files_per_shard = std::numeric_limits<int>::max();
    generateInjectedCorpusSharded(
        mix, plan, seed, opts,
        [&](CorpusShard &&shard) {
            for (auto &file : shard.files)
                out.corpus.files.push_back(std::move(file));
            for (auto &truth : shard.truth)
                out.corpus.truth.push_back(std::move(truth));
        },
        log);
    out.injections = std::move(log.injections);
    out.stats = log.stats;
    return out;
}

} // namespace rid::kernel
