#include "smt/intern.h"

#include <sstream>

namespace rid::smt {

InternStats
totalInternStats()
{
    InternStats total = exprInternStats();
    total += formulaInternStats();
    return total;
}

std::string
internStatsStr(const InternStats &s)
{
    std::ostringstream os;
    uint64_t lookups = s.hits + s.misses;
    os << s.entries << " interned node(s), " << s.hits << "/" << lookups
       << " construction(s) shared";
    return os.str();
}

} // namespace rid::smt
