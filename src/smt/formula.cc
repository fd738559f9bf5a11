#include "smt/formula.h"

#include <cassert>
#include <sstream>
#include <type_traits>

#include "smt/intern.h"

namespace rid::smt {

/** Immutable node backing a Formula. */
class FormulaNode
{
  public:
    FormulaKind kind;
    Expr literal;                     // Lit
    std::vector<Formula> children;    // And / Or / Not
    uint64_t fingerprint = 0;

    void
    finalize()
    {
        uint64_t h = fpMix64(0x466f726dULL);  // "Form" domain tag
        h = fpCombine(h, static_cast<uint64_t>(kind));
        h = fpCombine(h, literal.fingerprint());
        h = fpCombine(h, children.size());
        for (const auto &c : children)
            h = fpCombine(h, c.fingerprint());
        fingerprint = h;
    }
};

namespace {

static_assert(std::is_trivially_copyable_v<Formula>);

InternTable<FormulaNode> &
formulaInterner()
{
    // Never destroyed, like the expression table (expr.cc).
    static auto &table = *new InternTable<FormulaNode>;
    return table;
}

/**
 * Shallow equality for interning: literals and children are themselves
 * interned, so equals() on them is a pointer comparison.
 */
bool
shallowFormulaEquals(const FormulaNode &x, const FormulaNode &y)
{
    if (x.kind != y.kind || !x.literal.equals(y.literal) ||
        x.children.size() != y.children.size()) {
        return false;
    }
    for (size_t i = 0; i < x.children.size(); i++)
        if (!x.children[i].equals(y.children[i]))
            return false;
    return true;
}

const FormulaNode *
makeNode(FormulaKind kind, Expr literal, std::vector<Formula> children)
{
    auto n = std::make_unique<FormulaNode>();
    n->kind = kind;
    n->literal = literal;
    n->children = std::move(children);
    n->finalize();
    uint64_t fp = n->fingerprint;
    return formulaInterner().intern(fp, std::move(n),
                                    shallowFormulaEquals);
}

} // anonymous namespace

Formula
Formula::top()
{
    return Formula();
}

Formula
Formula::bottom()
{
    return Formula(makeNode(FormulaKind::False, Expr(), {}));
}

Formula
Formula::lit(Expr cond)
{
    assert(cond.isBoolean() && "formula literals must be boolean");
    if (cond.kind() == ExprKind::BoolConst)
        return cond.boolValue() ? top() : bottom();
    // Fold comparisons between constants.
    if (cond.kind() == ExprKind::Cmp && cond.lhs().isConst() &&
        cond.rhs().isConst()) {
        return evalPred(cond.pred(), cond.lhs().intValue(),
                        cond.rhs().intValue())
                   ? top()
                   : bottom();
    }
    // Fold reflexive comparisons (x == x, x <= x, ...).
    if (cond.kind() == ExprKind::Cmp && cond.lhs().equals(cond.rhs())) {
        switch (cond.pred()) {
          case Pred::Eq:
          case Pred::Le:
          case Pred::Ge:
            return top();
          case Pred::Ne:
          case Pred::Lt:
          case Pred::Gt:
            return bottom();
        }
    }
    return Formula(makeNode(FormulaKind::Lit, std::move(cond), {}));
}

namespace {

/** Drop structurally duplicate children (keeps first occurrences). */
void
dedupChildren(std::vector<Formula> &kids)
{
    std::vector<Formula> unique;
    for (auto &k : kids) {
        bool seen = false;
        for (const auto &u : unique) {
            if (u.equals(k)) {
                seen = true;
                break;
            }
        }
        if (!seen)
            unique.push_back(std::move(k));
    }
    kids = std::move(unique);
}

} // anonymous namespace

Formula
Formula::conj(std::vector<Formula> parts)
{
    std::vector<Formula> kept;
    for (auto &p : parts) {
        if (p.isFalse())
            return bottom();
        if (p.isTrue())
            continue;
        if (p.kind() == FormulaKind::And) {
            for (const auto &c : p.children())
                kept.push_back(c);
        } else {
            kept.push_back(std::move(p));
        }
    }
    dedupChildren(kept);
    if (kept.empty())
        return top();
    if (kept.size() == 1)
        return kept.front();
    return Formula(makeNode(FormulaKind::And, Expr(), std::move(kept)));
}

Formula
Formula::disj(std::vector<Formula> parts)
{
    std::vector<Formula> kept;
    for (auto &p : parts) {
        if (p.isTrue())
            return top();
        if (p.isFalse())
            continue;
        if (p.kind() == FormulaKind::Or) {
            for (const auto &c : p.children())
                kept.push_back(c);
        } else {
            kept.push_back(std::move(p));
        }
    }
    dedupChildren(kept);
    if (kept.empty())
        return bottom();
    if (kept.size() == 1)
        return kept.front();
    return Formula(makeNode(FormulaKind::Or, Expr(), std::move(kept)));
}

Formula
Formula::negation(Formula f)
{
    switch (f.kind()) {
      case FormulaKind::True:
        return bottom();
      case FormulaKind::False:
        return top();
      case FormulaKind::Lit:
        return lit(f.literal().negated());
      case FormulaKind::Not:
        return f.children().front();
      default:
        return Formula(makeNode(FormulaKind::Not, Expr(), {std::move(f)}));
    }
}

Formula
Formula::land(const Formula &other) const
{
    return conj({*this, other});
}

Formula
Formula::lor(const Formula &other) const
{
    return disj({*this, other});
}

FormulaKind
Formula::kind() const
{
    return node_ ? node_->kind : FormulaKind::True;
}

const Expr &
Formula::literal() const
{
    assert(node_ && node_->kind == FormulaKind::Lit);
    return node_->literal;
}

const std::vector<Formula> &
Formula::children() const
{
    static const std::vector<Formula> empty;
    return node_ ? node_->children : empty;
}

std::vector<Expr>
Formula::literals() const
{
    std::vector<Expr> out;
    auto consider = [&](const Expr &e) {
        for (const auto &prev : out)
            if (prev.equals(e))
                return;
        out.push_back(e);
    };
    std::function<void(const Formula &)> walk = [&](const Formula &f) {
        if (f.kind() == FormulaKind::Lit) {
            consider(f.literal());
            return;
        }
        for (const auto &c : f.children())
            walk(c);
    };
    walk(*this);
    return out;
}

bool
Formula::mentionsLocalState() const
{
    if (kind() == FormulaKind::Lit)
        return literal().mentionsLocalState();
    for (const auto &c : children())
        if (c.mentionsLocalState())
            return true;
    return false;
}

Formula
Formula::substitute(const Expr &from, const Expr &to) const
{
    switch (kind()) {
      case FormulaKind::True:
      case FormulaKind::False:
        return *this;
      case FormulaKind::Lit:
        return lit(literal().substitute(from, to));
      case FormulaKind::And: {
        std::vector<Formula> kids;
        kids.reserve(children().size());
        for (const auto &c : children())
            kids.push_back(c.substitute(from, to));
        return conj(std::move(kids));
      }
      case FormulaKind::Or: {
        std::vector<Formula> kids;
        kids.reserve(children().size());
        for (const auto &c : children())
            kids.push_back(c.substitute(from, to));
        return disj(std::move(kids));
      }
      case FormulaKind::Not:
        return negation(children().front().substitute(from, to));
    }
    return *this;
}

Formula
Formula::dropLiteralsIf(const std::function<bool(const Expr &)> &pred) const
{
    Formula n = nnf();
    std::function<Formula(const Formula &)> walk =
        [&](const Formula &f) -> Formula {
        switch (f.kind()) {
          case FormulaKind::Lit:
            return pred(f.literal()) ? top() : f;
          case FormulaKind::And: {
            std::vector<Formula> kids;
            for (const auto &c : f.children())
                kids.push_back(walk(c));
            return conj(std::move(kids));
          }
          case FormulaKind::Or: {
            std::vector<Formula> kids;
            for (const auto &c : f.children())
                kids.push_back(walk(c));
            return disj(std::move(kids));
          }
          default:
            return f;
        }
    };
    return walk(n);
}

Formula
Formula::nnf() const
{
    return nnfImpl(false);
}

Formula
Formula::nnfImpl(bool negate) const
{
    switch (kind()) {
      case FormulaKind::True:
        return negate ? bottom() : top();
      case FormulaKind::False:
        return negate ? top() : bottom();
      case FormulaKind::Lit:
        return negate ? lit(literal().negated()) : *this;
      case FormulaKind::Not:
        return children().front().nnfImpl(!negate);
      case FormulaKind::And:
      case FormulaKind::Or: {
        bool is_and = (kind() == FormulaKind::And) != negate;
        std::vector<Formula> kids;
        kids.reserve(children().size());
        for (const auto &c : children())
            kids.push_back(c.nnfImpl(negate));
        return is_and ? conj(std::move(kids)) : disj(std::move(kids));
      }
    }
    return *this;
}

size_t
Formula::hash() const
{
    return node_ ? static_cast<size_t>(node_->fingerprint) : 0;
}

uint64_t
Formula::fingerprint() const
{
    return node_ ? node_->fingerprint : 0;
}

std::string
Formula::str() const
{
    std::ostringstream os;
    std::function<void(const Formula &, int)> render =
        [&](const Formula &f, int parent_prec) {
        switch (f.kind()) {
          case FormulaKind::True:
            os << "true";
            break;
          case FormulaKind::False:
            os << "false";
            break;
          case FormulaKind::Lit:
            os << f.literal().str();
            break;
          case FormulaKind::Not:
            os << "!(";
            render(f.children().front(), 0);
            os << ")";
            break;
          case FormulaKind::And:
          case FormulaKind::Or: {
            int prec = f.kind() == FormulaKind::And ? 2 : 1;
            bool need_parens = prec < parent_prec;
            if (need_parens)
                os << "(";
            const char *sep = f.kind() == FormulaKind::And ? " && " : " || ";
            bool first = true;
            for (const auto &c : f.children()) {
                if (!first)
                    os << sep;
                first = false;
                render(c, prec);
            }
            if (need_parens)
                os << ")";
            break;
          }
        }
    };
    render(*this, 0);
    return os.str();
}

InternStats
formulaInternStats()
{
    return formulaInterner().stats();
}

} // namespace rid::smt
