#include "summary/db.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "obs/failpoint.h"
#include "summary/spec.h"

namespace rid::summary {

namespace {

/** The two shared default summaries, built once, by return kind. */
const std::shared_ptr<const FunctionSummary> &
sharedDefault(bool returns_value)
{
    auto make = [](bool rv) {
        // Building the entry interns expressions, a failpoint site.
        obs::FailpointSuppressScope suppress;
        FunctionSummary s = FunctionSummary::defaultFor("", rv);
        s.fingerprint = summaryFingerprint(s);
        return std::make_shared<const FunctionSummary>(std::move(s));
    };
    static const std::shared_ptr<const FunctionSummary> defaults[] = {
        make(false), make(true)};
    return defaults[returns_value];
}

} // anonymous namespace

bool
SummaryDb::declareDomain(const DomainInfo &info)
{
    std::unique_lock lock(mutex_);
    return domains_.declare(info) != DomainTable::DeclareResult::Conflict;
}

DomainTable
SummaryDb::domains() const
{
    std::shared_lock lock(mutex_);
    return domains_;
}

void
SummaryDb::addPredefined(FunctionSummary s)
{
    std::unique_lock lock(mutex_);
    s.is_predefined = true;
    s.fingerprint = summaryFingerprint(s);
    predefined_[s.function] = std::move(s);
}

void
SummaryDb::addComputed(FunctionSummary s)
{
    std::unique_lock lock(mutex_);
    if (predefined_.count(s.function))
        return;
    s.fingerprint = summaryFingerprint(s);
    auto &slot = computed_[s.function];
    slot = std::make_shared<const FunctionSummary>(std::move(s));
}

void
SummaryDb::addDefault(const std::string &fn, bool returns_value)
{
    const auto &shared = sharedDefault(returns_value);
    std::unique_lock lock(mutex_);
    if (!predefined_.count(fn))
        computed_[fn] = shared;
}

const FunctionSummary *
SummaryDb::find(const std::string &fn) const
{
    std::shared_lock lock(mutex_);
    auto it = predefined_.find(fn);
    if (it != predefined_.end())
        return &it->second;
    auto it2 = computed_.find(fn);
    if (it2 != computed_.end())
        return it2->second.get();
    return nullptr;
}

bool
SummaryDb::hasPredefined(const std::string &fn) const
{
    std::shared_lock lock(mutex_);
    return predefined_.count(fn) != 0;
}

std::vector<std::string>
SummaryDb::predefinedNames() const
{
    std::shared_lock lock(mutex_);
    std::vector<std::string> names;
    names.reserve(predefined_.size());
    for (const auto &[name, s] : predefined_)
        names.push_back(name);
    std::sort(names.begin(), names.end());
    return names;
}

std::vector<std::string>
SummaryDb::namesWithChanges(
    const std::vector<std::string> &enabled_domains) const
{
    std::shared_lock lock(mutex_);
    std::vector<std::string> names;
    for (const auto &[name, s] : predefined_) {
        if (s.hasChanges(enabled_domains))
            names.push_back(name);
    }
    for (const auto &[name, s] : computed_) {
        if (s->hasChanges(enabled_domains) && !predefined_.count(name))
            names.push_back(name);
    }
    std::sort(names.begin(), names.end());
    return names;
}

size_t
SummaryDb::size() const
{
    std::shared_lock lock(mutex_);
    return predefined_.size() + computed_.size();
}

std::string
SummaryDb::saveComputed() const
{
    std::shared_lock lock(mutex_);
    // Name-sorted so the export is byte-identical regardless of the
    // (thread-scheduling-dependent) order summaries were inserted in.
    // Keyed by name: a shared default does not carry one.
    std::map<std::string_view, const FunctionSummary *> rows;
    for (const auto &[name, s] : computed_)
        rows.emplace(name, s.get());
    std::ostringstream os;
    // Non-ref domains referenced by the export are declared up front so
    // the text round-trips through parseSpecText() without needing the
    // original spec files. Ref-only exports stay byte-identical to the
    // pre-domain format.
    std::set<std::string> used;
    for (const auto &[name, s] : rows)
        for (const auto &e : s->entries)
            for (const auto &[rc, delta] : e.changes)
                if (!rc.isRef())
                    used.insert(rc.domain);
    for (const auto &name : used) {
        os << "domain " << name << " { policy: "
           << domainPolicyName(domains_.policyOf(name)) << "; }\n";
    }
    for (const auto &[name, s] : rows)
        os << serializeSummary(*s, name);
    return os.str();
}

} // namespace rid::summary
