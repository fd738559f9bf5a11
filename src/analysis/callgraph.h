/**
 * @file
 * Call graph with Tarjan SCC condensation and topological ordering.
 *
 * The summary-based analysis traverses functions in reverse topological
 * order of the call graph (callees before callers); recursive cycles are
 * broken by grouping them into strongly connected components and analyzing
 * the members in an arbitrary (deterministic) order, with calls into the
 * not-yet-summarized part of the cycle falling back to default summaries
 * (Section 4.2). The SCC DAG is also stratified into levels so independent
 * components can be analyzed in parallel (Section 5.3).
 */

#ifndef RID_ANALYSIS_CALLGRAPH_H
#define RID_ANALYSIS_CALLGRAPH_H

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ir/function.h"

namespace rid::analysis {

class CallGraph
{
  public:
    /** Build from a module; every defined or declared function is a node,
     *  and call targets without any declaration get synthetic nodes.
     *  Nodes [0, mod.size()) are the module's functions in module order;
     *  each node's callees are in order of first call in its body. */
    explicit CallGraph(const ir::Module &mod);

    // Names and functions are borrowed from the module, which must
    // outlive the graph; a copy of a whole-kernel graph is never needed.
    CallGraph(const CallGraph &) = delete;
    CallGraph &operator=(const CallGraph &) = delete;
    CallGraph(CallGraph &&) = default;
    CallGraph &operator=(CallGraph &&) = default;

    /** Number of nodes. */
    size_t size() const { return names_.size(); }

    const std::string &nameOf(int node) const { return *names_.at(node); }
    int nodeOf(const std::string &name) const;

    /** The module function behind a node; null for a synthetic node (a
     *  call target the module does not declare). */
    const ir::Function *functionOf(int node) const { return fns_.at(node); }

    /** Direct callees of a node. */
    const std::vector<int> &calleesOf(int node) const
    {
        return edges_.at(node);
    }

    /** Direct callers of a node. */
    const std::vector<int> &callersOf(int node) const
    {
        return redges_.at(node);
    }

    /** SCC id of a node (0-based; ids are in reverse topological order:
     *  callees have smaller ids than their callers). */
    int sccOf(int node) const { return scc_of_.at(node); }

    size_t numSccs() const { return sccs_.size(); }

    /** Members of an SCC. */
    const std::vector<int> &sccMembers(int scc) const
    {
        return sccs_.at(scc);
    }

    /**
     * Nodes in reverse topological order (callees first). Members of a
     * cycle appear consecutively in deterministic order.
     */
    std::vector<int> reverseTopoOrder() const;

    /**
     * Stratify SCCs into levels: an SCC's level is 1 + the max level of
     * the SCCs it calls into (level 0 SCCs call nothing unanalyzed). All
     * SCCs in one level can be analyzed concurrently once previous levels
     * are done.
     */
    std::vector<std::vector<int>> sccLevels() const;

  private:
    int intern(const std::string &name);

    /** Name -> node; keys view the strings names_ points at. */
    std::unordered_map<std::string_view, int> ids_;
    /** Node -> its name: a Function::name() or the Instruction::callee
     *  of its first call, both owned by the module. */
    std::vector<const std::string *> names_;
    std::vector<const ir::Function *> fns_;
    std::vector<std::vector<int>> edges_;
    std::vector<std::vector<int>> redges_;
    std::vector<int> scc_of_;
    std::vector<std::vector<int>> sccs_;
};

} // namespace rid::analysis

#endif // RID_ANALYSIS_CALLGRAPH_H
