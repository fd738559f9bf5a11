#include "analysis/callgraph.h"

#include <algorithm>
#include <cassert>
#include <functional>

#include "obs/trace.h"

namespace rid::analysis {

int
CallGraph::intern(const std::string &name)
{
    auto [it, inserted] =
        ids_.try_emplace(name, static_cast<int>(names_.size()));
    if (inserted) {
        names_.push_back(&name);
        fns_.push_back(nullptr);
        edges_.emplace_back();
        redges_.emplace_back();
    }
    return it->second;
}

CallGraph::CallGraph(const ir::Module &mod)
{
    obs::Span span("phase", "callgraph");
    const auto &fns = mod.functions();
    ids_.reserve(fns.size());
    // Module names are unique, so function i becomes node i.
    for (const auto &fn : fns)
        fns_[intern(fn->name())] = fn.get();

    // One pass over the Call instructions; seen_by[to] == from marks an
    // edge already recorded, keeping first-call order without a set.
    std::vector<int> seen_by;
    for (int from = 0; from < static_cast<int>(fns.size()); from++) {
        const ir::Function &fn = *fns[from];
        for (size_t b = 0; b < fn.numBlocks(); b++) {
            for (const auto &in : fn.block(static_cast<ir::BlockId>(b))
                                      .instrs) {
                if (in.op != ir::Opcode::Call)
                    continue;
                int to = intern(in.callee);
                if (static_cast<size_t>(to) >= seen_by.size())
                    seen_by.resize(names_.size(), -1);
                if (seen_by[to] == from)
                    continue;
                seen_by[to] = from;
                edges_[from].push_back(to);
                redges_[to].push_back(from);
            }
        }
    }

    // Tarjan's SCC algorithm, iterative to survive deep call chains.
    const int n = static_cast<int>(names_.size());
    scc_of_.assign(n, -1);
    std::vector<int> index(n, -1), lowlink(n, 0);
    std::vector<bool> on_stack(n, false);
    std::vector<int> stack;
    int next_index = 0;

    struct Frame
    {
        int node;
        size_t child = 0;
    };

    for (int root = 0; root < n; root++) {
        if (index[root] != -1)
            continue;
        std::vector<Frame> frames{{root, 0}};
        index[root] = lowlink[root] = next_index++;
        stack.push_back(root);
        on_stack[root] = true;
        while (!frames.empty()) {
            Frame &f = frames.back();
            if (f.child < edges_[f.node].size()) {
                int child = edges_[f.node][f.child++];
                if (index[child] == -1) {
                    index[child] = lowlink[child] = next_index++;
                    stack.push_back(child);
                    on_stack[child] = true;
                    frames.push_back({child, 0});
                } else if (on_stack[child]) {
                    lowlink[f.node] =
                        std::min(lowlink[f.node], index[child]);
                }
            } else {
                if (lowlink[f.node] == index[f.node]) {
                    std::vector<int> members;
                    while (true) {
                        int w = stack.back();
                        stack.pop_back();
                        on_stack[w] = false;
                        members.push_back(w);
                        if (w == f.node)
                            break;
                    }
                    std::sort(members.begin(), members.end());
                    int scc = static_cast<int>(sccs_.size());
                    for (int w : members)
                        scc_of_[w] = scc;
                    sccs_.push_back(std::move(members));
                }
                int node = f.node;
                frames.pop_back();
                if (!frames.empty()) {
                    lowlink[frames.back().node] =
                        std::min(lowlink[frames.back().node],
                                 lowlink[node]);
                }
            }
        }
    }
    // Tarjan emits SCCs in reverse topological order of the condensation
    // (an SCC is finished only after everything it reaches), so scc ids
    // already satisfy: callee scc id < caller scc id.
}

int
CallGraph::nodeOf(const std::string &name) const
{
    auto it = ids_.find(name);
    return it == ids_.end() ? -1 : it->second;
}

std::vector<int>
CallGraph::reverseTopoOrder() const
{
    std::vector<int> order;
    order.reserve(names_.size());
    for (const auto &scc : sccs_)
        for (int node : scc)
            order.push_back(node);
    return order;
}

std::vector<std::vector<int>>
CallGraph::sccLevels() const
{
    std::vector<int> level(sccs_.size(), 0);
    // sccs_ is in reverse topological order: process in order, pushing
    // levels upward to callers.
    for (size_t s = 0; s < sccs_.size(); s++) {
        for (int member : sccs_[s]) {
            for (int callee : edges_[member]) {
                int cs = scc_of_[callee];
                if (cs != static_cast<int>(s))
                    level[s] = std::max(level[s], level[cs] + 1);
            }
        }
    }
    int max_level = 0;
    for (int l : level)
        max_level = std::max(max_level, l);
    std::vector<std::vector<int>> out(max_level + 1);
    for (size_t s = 0; s < sccs_.size(); s++)
        out[level[s]].push_back(static_cast<int>(s));
    return out;
}

} // namespace rid::analysis
