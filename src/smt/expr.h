/**
 * @file
 * Symbolic expressions used throughout RID.
 *
 * This implements the expression syntax of Figure 5 in the paper: integer
 * and boolean constants, argument atoms (written "[name]"), the return
 * value atom ("[0]"), local variables, field accesses (e.field) and
 * comparison conditions (e1 pred e2).
 *
 * Expressions are immutable trees of nodes with a cached hash. Nodes are
 * hash-consed through a process-wide, insert-only intern table
 * (smt/intern.h) that owns them for the life of the process:
 * syntactically equal trees share one node, equality is a pointer
 * comparison, and every tree carries a stable 64-bit fingerprint usable
 * as a cache key. A handle is a single raw pointer, so it is trivially
 * copyable and safe to share across threads.
 */

#ifndef RID_SMT_EXPR_H
#define RID_SMT_EXPR_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace rid::smt {

/** Comparison predicates of the abstract language (Figure 3 / Figure 5). */
enum class Pred : uint8_t {
    Eq,  ///< ==
    Ne,  ///< !=
    Lt,  ///< <
    Le,  ///< <=
    Gt,  ///< >
    Ge,  ///< >=
};

/** @return the predicate satisfied exactly when @p p is not. */
Pred negatePred(Pred p);

/** @return the predicate with operand order swapped (e.g. Lt -> Gt). */
Pred swapPred(Pred p);

/** @return the source-level spelling of @p p ("==", "!=", ...). */
const char *predSpelling(Pred p);

/** Evaluate `lhs pred rhs` over concrete integers. */
bool evalPred(Pred p, int64_t lhs, int64_t rhs);

/** Node kinds for symbolic expressions. */
enum class ExprKind : uint8_t {
    IntConst,   ///< numeral constant (null pointers are the constant 0)
    BoolConst,  ///< true / false
    Arg,        ///< formal argument atom, printed "[name]"
    Ret,        ///< return value atom, printed "[0]"
    Local,      ///< local variable of the function under analysis
    Temp,       ///< analysis-generated atom (e.g. a call result); behaves
                ///< like a local and is projected away at function exits
    Field,      ///< field access: base.field
    Cmp,        ///< comparison: lhs pred rhs (boolean-valued)
};

class ExprNode;

/**
 * Value-semantic handle to an immutable expression tree.
 *
 * A default-constructed Expr is "empty" and only valid for comparison and
 * assignment; all factory functions return non-empty expressions.
 */
class Expr
{
  public:
    Expr() = default;

    /** @name Factories */
    /** @{ */
    static Expr intConst(int64_t value);
    static Expr boolConst(bool value);
    /** The null pointer constant (modelled as integer 0). */
    static Expr null();
    static Expr arg(std::string name);
    /** The return-value atom "[0]". */
    static Expr ret();
    static Expr local(std::string name);
    static Expr temp(std::string name);
    static Expr field(Expr base, std::string field_name);
    static Expr cmp(Pred pred, Expr lhs, Expr rhs);
    /** @} */

    bool empty() const { return node_ == nullptr; }
    explicit operator bool() const { return node_ != nullptr; }

    ExprKind kind() const;
    /** Value of an IntConst node. */
    int64_t intValue() const;
    /** Value of a BoolConst node. */
    bool boolValue() const;
    /** Name of an Arg/Local/Temp node, or field name of a Field node. */
    const std::string &name() const;
    /** Base expression of a Field node. */
    Expr base() const;
    /** Predicate of a Cmp node. */
    Pred pred() const;
    /** Left operand of a Cmp node. */
    Expr lhs() const;
    /** Right operand of a Cmp node. */
    Expr rhs() const;

    /** True for IntConst / BoolConst. */
    bool isConst() const;
    /** True for Arg/Ret/Local/Temp and field chains rooted at them. */
    bool isAtomic() const;
    /** True for boolean-valued expressions (BoolConst / Cmp). */
    bool isBoolean() const;

    /**
     * True if any node in this tree satisfies @p f.
     */
    bool containsIf(const std::function<bool(const Expr &)> &f) const;

    /** True if the tree contains a Local or Temp atom. */
    bool mentionsLocalState() const;

    /**
     * Replace every occurrence of @p from (structural match) by @p to.
     * Matching is performed top-down; a matched subtree is not rewritten
     * internally again.
     */
    Expr substitute(const Expr &from, const Expr &to) const;

    /**
     * Negate a boolean expression: BoolConst is flipped, Cmp gets the
     * negated predicate. Precondition: isBoolean().
     */
    Expr negated() const;

    /** Structural equality: interned trees are equal iff identical. */
    bool equals(const Expr &other) const { return node_ == other.node_; }
    bool operator==(const Expr &other) const { return equals(other); }
    bool operator!=(const Expr &other) const { return !equals(other); }

    /** Total order for use as map keys (by structure). */
    bool less(const Expr &other) const;

    size_t hash() const;

    /**
     * Stable structural 64-bit fingerprint, computed once at
     * construction. Equal trees always fingerprint equally (on every run
     * and platform); distinct trees collide with probability 2^-64 and
     * consumers must verify with equals() before trusting a match.
     * The empty expression fingerprints to 0.
     */
    uint64_t fingerprint() const;

    /** Render in the paper's notation, e.g. "[dev].pm" or "[0] >= 0". */
    std::string str() const;

  private:
    explicit Expr(const ExprNode *node) : node_(node) {}

    const ExprNode *node_ = nullptr;
};

/** std::hash adaptor so Expr can key unordered containers. */
struct ExprHash
{
    size_t operator()(const Expr &e) const { return e.hash(); }
};

/** Comparator for ordered containers keyed by Expr. */
struct ExprLess
{
    bool operator()(const Expr &a, const Expr &b) const { return a.less(b); }
};

} // namespace rid::smt

#endif // RID_SMT_EXPR_H
