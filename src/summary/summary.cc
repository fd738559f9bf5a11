#include "summary/summary.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <sstream>

#include "smt/intern.h"

namespace rid::summary {

void
SummaryEntry::normalizeChanges()
{
    for (auto it = changes.begin(); it != changes.end();) {
        if (it->second == 0)
            it = changes.erase(it);
        else
            ++it;
    }
}

void
SummaryEntry::substitute(const smt::Expr &from, const smt::Expr &to)
{
    cons = cons.substitute(from, to);
    if (ret)
        ret = ret.substitute(from, to);
    ChangeMap new_changes;
    for (const auto &[rc, delta] : changes)
        new_changes[rc.substitute(from, to)] += delta;
    changes = std::move(new_changes);
    StoreSet new_stores;
    for (const auto &s : stores)
        new_stores.insert(s.substitute(from, to));
    stores = std::move(new_stores);
}

bool
SummaryEntry::sameChanges(const SummaryEntry &a, const SummaryEntry &b)
{
    return changedDifferently(a, b).empty();
}

bool
SummaryEntry::sameStores(const SummaryEntry &a, const SummaryEntry &b)
{
    if (a.stores.size() != b.stores.size())
        return false;
    auto it = b.stores.begin();
    for (const auto &s : a.stores) {
        if (!s.equals(*it))
            return false;
        ++it;
    }
    return true;
}

std::vector<std::pair<EffectKey, std::pair<int, int>>>
SummaryEntry::changedDifferently(const SummaryEntry &a,
                                 const SummaryEntry &b)
{
    std::vector<std::pair<EffectKey, std::pair<int, int>>> diffs;
    auto deltaIn = [](const ChangeMap &m, const EffectKey &rc) {
        auto it = m.find(rc);
        return it == m.end() ? 0 : it->second;
    };
    for (const auto &[rc, da] : a.changes) {
        int db = deltaIn(b.changes, rc);
        if (da != db)
            diffs.push_back({rc, {da, db}});
    }
    for (const auto &[rc, db] : b.changes) {
        if (a.changes.find(rc) == a.changes.end() && db != 0)
            diffs.push_back({rc, {0, db}});
    }
    return diffs;
}

SummaryEntry
SummaryEntry::merge(const SummaryEntry &a, const SummaryEntry &b)
{
    assert(sameChanges(a, b));
    SummaryEntry out;
    out.cons = a.cons.lor(b.cons);
    out.changes = a.changes;
    out.stores = a.stores;
    if (a.ret && b.ret && a.ret.equals(b.ret))
        out.ret = a.ret;
    else if (a.ret || b.ret)
        out.ret = smt::Expr::ret();
    out.origin = a.origin;
    out.origin.path_index = -1;
    for (int line : b.origin.change_lines)
        out.origin.change_lines.push_back(line);
    for (const auto &callee : b.origin.callees)
        out.origin.callees.push_back(callee);
    return out;
}

std::string
SummaryEntry::str() const
{
    std::ostringstream os;
    os << "cons: " << cons.str() << "; changes:";
    if (changes.empty())
        os << " (none)";
    for (const auto &[rc, delta] : changes) {
        os << " " << rc.str() << ":" << (delta >= 0 ? "+" : "")
           << delta;
    }
    if (!stores.empty()) {
        os << "; stores:";
        for (const auto &s : stores)
            os << " " << s.str();
    }
    os << "; return: " << (ret ? ret.str() : "(void)");
    return os.str();
}

bool
FunctionSummary::hasChanges(const std::vector<std::string> &domains) const
{
    for (const auto &e : entries)
        for (const auto &[rc, delta] : e.changes)
            if (domains.empty() || std::find(domains.begin(), domains.end(),
                                             rc.domain) != domains.end())
                return true;
    return false;
}

SummaryEntry
SummaryEntry::defaultEntry(bool returns_value)
{
    SummaryEntry e;
    e.cons = smt::Formula::top();
    if (returns_value)
        e.ret = smt::Expr::ret();
    return e;
}

FunctionSummary
FunctionSummary::defaultFor(const std::string &fn, bool returns_value)
{
    FunctionSummary s;
    s.function = fn;
    s.is_default = true;
    s.returns_value = returns_value;
    s.entries.push_back(SummaryEntry::defaultEntry(returns_value));
    return s;
}

std::string
FunctionSummary::str() const
{
    std::ostringstream os;
    os << "summary " << function;
    if (is_default)
        os << " (default)";
    if (is_predefined)
        os << " (predefined)";
    if (is_truncated)
        os << " (truncated)";
    os << "\n";
    for (size_t i = 0; i < entries.size(); i++)
        os << "  entry " << (i + 1) << ": " << entries[i].str() << "\n";
    return os.str();
}

void
bindResult(SummaryEntry &entry, const smt::Expr &result)
{
    entry.cons = entry.cons.substitute(smt::Expr::ret(), result);
    ChangeMap keyed;
    for (const auto &[rc, delta] : entry.changes)
        keyed[rc.substitute(smt::Expr::ret(), result)] += delta;
    entry.changes = std::move(keyed);
    // Substitution can collapse two counters onto one key with opposite
    // deltas; a surviving exact-zero delta would still count the entry
    // as "changing" (and mint a bogus change line at the call site).
    entry.normalizeChanges();
}

SummaryEntry
instantiate(const SummaryEntry &entry,
            const std::vector<std::string> &formals,
            const std::vector<smt::Expr> &actuals, const smt::Expr &result,
            const std::string &missing_scope)
{
    SummaryEntry out = entry;
    for (size_t i = 0; i < formals.size(); i++) {
        smt::Expr formal = smt::Expr::arg(formals[i]);
        // A formal with no actual becomes an unconstrained temp interned
        // per (callee, formal): scoping by callee keeps two callees that
        // share a formal name from aliasing one atom, and the stable
        // name keeps repeated instantiations of one call shape
        // fingerprint-identical (the inst-cache key contract).
        smt::Expr actual =
            i < actuals.size()
                ? actuals[i]
                : smt::Expr::temp(missing_scope.empty()
                                      ? "missing$" + formals[i]
                                      : "missing$" + missing_scope + "$" +
                                            formals[i]);
        out.substitute(formal, actual);
    }
    if (result)
        out.substitute(smt::Expr::ret(), result);
    out.normalizeChanges();
    return out;
}

uint64_t
summaryFingerprint(const FunctionSummary &s)
{
    using smt::fpBytes;
    using smt::fpCombine;
    uint64_t h = fpBytes("rid-summary-v1");
    h = fpCombine(h, fpBytes(s.function));
    h = smt::fpRange(h, s.params.begin(), s.params.end(),
                     [](const std::string &p) { return fpBytes(p); });
    h = fpCombine(h, static_cast<uint64_t>(s.returns_value));
    h = fpCombine(h, static_cast<uint64_t>(s.is_default));
    h = fpCombine(h, static_cast<uint64_t>(s.is_predefined));
    h = fpCombine(h, static_cast<uint64_t>(s.is_truncated));
    for (const auto &e : s.entries) {
        h = fpCombine(h, e.cons.fingerprint());
        for (const auto &[rc, delta] : e.changes) {
            h = fpCombine(h, fpBytes(rc.domain));
            h = fpCombine(h, rc.counter.fingerprint());
            h = fpCombine(h,
                          static_cast<uint64_t>(static_cast<int64_t>(delta)));
        }
        h = fpCombine(h, static_cast<uint64_t>(e.changes.size()));
        h = smt::fpRange(h, e.stores.begin(), e.stores.end(),
                         [](const smt::Expr &st) { return st.fingerprint(); });
        h = fpCombine(h, e.ret.fingerprint());
    }
    h = fpCombine(h, static_cast<uint64_t>(s.entries.size()));
    return h;
}

} // namespace rid::summary
