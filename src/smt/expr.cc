#include "smt/expr.h"

#include <cassert>
#include <sstream>
#include <type_traits>

#include "obs/failpoint.h"
#include "smt/intern.h"

namespace rid::smt {

Pred
negatePred(Pred p)
{
    switch (p) {
      case Pred::Eq: return Pred::Ne;
      case Pred::Ne: return Pred::Eq;
      case Pred::Lt: return Pred::Ge;
      case Pred::Le: return Pred::Gt;
      case Pred::Gt: return Pred::Le;
      case Pred::Ge: return Pred::Lt;
    }
    assert(false && "bad Pred");
    return Pred::Eq;
}

Pred
swapPred(Pred p)
{
    switch (p) {
      case Pred::Eq: return Pred::Eq;
      case Pred::Ne: return Pred::Ne;
      case Pred::Lt: return Pred::Gt;
      case Pred::Le: return Pred::Ge;
      case Pred::Gt: return Pred::Lt;
      case Pred::Ge: return Pred::Le;
    }
    assert(false && "bad Pred");
    return Pred::Eq;
}

const char *
predSpelling(Pred p)
{
    switch (p) {
      case Pred::Eq: return "==";
      case Pred::Ne: return "!=";
      case Pred::Lt: return "<";
      case Pred::Le: return "<=";
      case Pred::Gt: return ">";
      case Pred::Ge: return ">=";
    }
    return "?";
}

bool
evalPred(Pred p, int64_t lhs, int64_t rhs)
{
    switch (p) {
      case Pred::Eq: return lhs == rhs;
      case Pred::Ne: return lhs != rhs;
      case Pred::Lt: return lhs < rhs;
      case Pred::Le: return lhs <= rhs;
      case Pred::Gt: return lhs > rhs;
      case Pred::Ge: return lhs >= rhs;
    }
    return false;
}

/**
 * Immutable node backing an Expr. The fingerprint is computed once at
 * construction, before the node is offered to the intern table.
 */
class ExprNode
{
  public:
    ExprKind kind;
    int64_t value = 0;           // IntConst value or BoolConst (0/1)
    std::string name;            // Arg/Local/Temp name, Field name
    Pred pred = Pred::Eq;        // Cmp
    const ExprNode *a = nullptr; // Field base / Cmp lhs
    const ExprNode *b = nullptr; // Cmp rhs
    uint64_t fingerprint = 0;

    void
    finalize()
    {
        uint64_t h = fpMix64(0x45787052ULL);  // "ExpR" domain tag
        h = fpCombine(h, static_cast<uint64_t>(kind));
        h = fpCombine(h, static_cast<uint64_t>(value));
        h = fpCombine(h, fpBytes(name));
        h = fpCombine(h, static_cast<uint64_t>(pred));
        h = fpCombine(h, a ? a->fingerprint : 0x6e756c6cULL);
        h = fpCombine(h, b ? b->fingerprint : 0x6e756c6cULL);
        fingerprint = h;
    }
};

namespace {

static_assert(std::is_trivially_copyable_v<Expr>);

InternTable<ExprNode> &
exprInterner()
{
    // Never destroyed: nodes must outlive every static that holds an
    // Expr, whatever the order of static destruction.
    static auto &table = *new InternTable<ExprNode>;
    return table;
}

/**
 * Shallow structural equality used by the intern table. Children are
 * interned bottom-up before their parent, so equal subtrees are already
 * pointer-identical and comparing child pointers suffices.
 */
bool
shallowEquals(const ExprNode &x, const ExprNode &y)
{
    return x.kind == y.kind && x.value == y.value && x.pred == y.pred &&
           x.a == y.a && x.b == y.b && x.name == y.name;
}

const ExprNode *
makeNode(ExprKind kind, int64_t value, std::string name, Pred pred,
         const ExprNode *a, const ExprNode *b)
{
    auto n = std::make_unique<ExprNode>();
    n->kind = kind;
    n->value = value;
    n->name = std::move(name);
    n->pred = pred;
    n->a = a;
    n->b = b;
    n->finalize();
    obs::failpoint("smt.intern");
    uint64_t fp = n->fingerprint;
    return exprInterner().intern(fp, std::move(n), shallowEquals);
}

/** Structural total order; returns <0, 0, >0. */
int
nodeCompare(const ExprNode *x, const ExprNode *y)
{
    if (x == y)
        return 0;
    if (!x)
        return -1;
    if (!y)
        return 1;
    if (x->kind != y->kind)
        return static_cast<int>(x->kind) < static_cast<int>(y->kind) ? -1 : 1;
    if (x->value != y->value)
        return x->value < y->value ? -1 : 1;
    if (int c = x->name.compare(y->name))
        return c;
    if (x->pred != y->pred)
        return static_cast<int>(x->pred) < static_cast<int>(y->pred) ? -1 : 1;
    if (int c = nodeCompare(x->a, y->a))
        return c;
    return nodeCompare(x->b, y->b);
}

void
nodeStr(const ExprNode *n, std::ostream &os)
{
    if (!n) {
        os << "<empty>";
        return;
    }
    switch (n->kind) {
      case ExprKind::IntConst:
        os << n->value;
        break;
      case ExprKind::BoolConst:
        os << (n->value ? "true" : "false");
        break;
      case ExprKind::Arg:
        os << "[" << n->name << "]";
        break;
      case ExprKind::Ret:
        os << "[0]";
        break;
      case ExprKind::Local:
        os << n->name;
        break;
      case ExprKind::Temp:
        os << "%" << n->name;
        break;
      case ExprKind::Field:
        nodeStr(n->a, os);
        os << "." << n->name;
        break;
      case ExprKind::Cmp:
        nodeStr(n->a, os);
        os << " " << predSpelling(n->pred) << " ";
        nodeStr(n->b, os);
        break;
    }
}

} // anonymous namespace

Expr
Expr::intConst(int64_t value)
{
    return Expr(makeNode(ExprKind::IntConst, value, "", Pred::Eq, nullptr,
                         nullptr));
}

Expr
Expr::boolConst(bool value)
{
    return Expr(makeNode(ExprKind::BoolConst, value ? 1 : 0, "", Pred::Eq,
                         nullptr, nullptr));
}

Expr
Expr::null()
{
    return intConst(0);
}

Expr
Expr::arg(std::string name)
{
    return Expr(makeNode(ExprKind::Arg, 0, std::move(name), Pred::Eq,
                         nullptr, nullptr));
}

Expr
Expr::ret()
{
    return Expr(makeNode(ExprKind::Ret, 0, "0", Pred::Eq, nullptr, nullptr));
}

Expr
Expr::local(std::string name)
{
    return Expr(makeNode(ExprKind::Local, 0, std::move(name), Pred::Eq,
                         nullptr, nullptr));
}

Expr
Expr::temp(std::string name)
{
    return Expr(makeNode(ExprKind::Temp, 0, std::move(name), Pred::Eq,
                         nullptr, nullptr));
}

Expr
Expr::field(Expr base, std::string field_name)
{
    assert(base && "field base must be non-empty");
    return Expr(makeNode(ExprKind::Field, 0, std::move(field_name), Pred::Eq,
                         base.node_, nullptr));
}

Expr
Expr::cmp(Pred pred, Expr lhs, Expr rhs)
{
    assert(lhs && rhs && "cmp operands must be non-empty");
    return Expr(makeNode(ExprKind::Cmp, 0, "", pred, lhs.node_, rhs.node_));
}

ExprKind
Expr::kind() const
{
    assert(node_);
    return node_->kind;
}

int64_t
Expr::intValue() const
{
    assert(node_ && node_->kind == ExprKind::IntConst);
    return node_->value;
}

bool
Expr::boolValue() const
{
    assert(node_ && node_->kind == ExprKind::BoolConst);
    return node_->value != 0;
}

const std::string &
Expr::name() const
{
    assert(node_);
    return node_->name;
}

Expr
Expr::base() const
{
    assert(node_ && node_->kind == ExprKind::Field);
    return Expr(node_->a);
}

Pred
Expr::pred() const
{
    assert(node_ && node_->kind == ExprKind::Cmp);
    return node_->pred;
}

Expr
Expr::lhs() const
{
    assert(node_ && node_->kind == ExprKind::Cmp);
    return Expr(node_->a);
}

Expr
Expr::rhs() const
{
    assert(node_ && node_->kind == ExprKind::Cmp);
    return Expr(node_->b);
}

bool
Expr::isConst() const
{
    return node_ && (node_->kind == ExprKind::IntConst ||
                     node_->kind == ExprKind::BoolConst);
}

bool
Expr::isAtomic() const
{
    if (!node_)
        return false;
    switch (node_->kind) {
      case ExprKind::Arg:
      case ExprKind::Ret:
      case ExprKind::Local:
      case ExprKind::Temp:
        return true;
      case ExprKind::Field:
        return base().isAtomic();
      default:
        return false;
    }
}

bool
Expr::isBoolean() const
{
    return node_ && (node_->kind == ExprKind::BoolConst ||
                     node_->kind == ExprKind::Cmp);
}

bool
Expr::containsIf(const std::function<bool(const Expr &)> &f) const
{
    if (!node_)
        return false;
    if (f(*this))
        return true;
    if (node_->a && Expr(node_->a).containsIf(f))
        return true;
    if (node_->b && Expr(node_->b).containsIf(f))
        return true;
    return false;
}

bool
Expr::mentionsLocalState() const
{
    return containsIf([](const Expr &e) {
        return e.kind() == ExprKind::Local || e.kind() == ExprKind::Temp;
    });
}

Expr
Expr::substitute(const Expr &from, const Expr &to) const
{
    if (!node_)
        return *this;
    if (equals(from))
        return to;
    switch (node_->kind) {
      case ExprKind::Field: {
        Expr new_base = base().substitute(from, to);
        if (new_base.node_ == node_->a)
            return *this;
        return field(new_base, node_->name);
      }
      case ExprKind::Cmp: {
        Expr nl = lhs().substitute(from, to);
        Expr nr = rhs().substitute(from, to);
        if (nl.node_ == node_->a && nr.node_ == node_->b)
            return *this;
        return cmp(node_->pred, nl, nr);
      }
      default:
        return *this;
    }
}

Expr
Expr::negated() const
{
    assert(isBoolean());
    if (node_->kind == ExprKind::BoolConst)
        return boolConst(node_->value == 0);
    return cmp(negatePred(node_->pred), Expr(node_->a), Expr(node_->b));
}

bool
Expr::less(const Expr &other) const
{
    return nodeCompare(node_, other.node_) < 0;
}

size_t
Expr::hash() const
{
    return node_ ? static_cast<size_t>(node_->fingerprint) : 0;
}

uint64_t
Expr::fingerprint() const
{
    return node_ ? node_->fingerprint : 0;
}

std::string
Expr::str() const
{
    std::ostringstream os;
    nodeStr(node_, os);
    return os.str();
}

InternStats
exprInternStats()
{
    return exprInterner().stats();
}

} // namespace rid::smt
