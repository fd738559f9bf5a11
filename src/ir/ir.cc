#include "ir/function.h"

#include <cassert>
#include <charconv>
#include <set>
#include <string_view>

#include "obs/failpoint.h"
#include "smt/intern.h"

namespace rid::ir {

Value
Value::var(std::string name)
{
    Value v;
    v.kind_ = ValueKind::Var;
    v.name_ = std::move(name);
    return v;
}

Value
Value::intConst(int64_t value)
{
    Value v;
    v.kind_ = ValueKind::IntConst;
    v.int_ = value;
    return v;
}

Value
Value::boolConst(bool value)
{
    Value v;
    v.kind_ = ValueKind::BoolConst;
    v.int_ = value ? 1 : 0;
    return v;
}

Value
Value::null()
{
    Value v;
    v.kind_ = ValueKind::Null;
    return v;
}

namespace {

// Pieces of printed IR. print(out, a, b, ...) appends each in turn, so
// the printers below read like stream code without a stream per line.
void put(std::string &out, std::string_view text) { out += text; }
void put(std::string &out, char c) { out += c; }

void
put(std::string &out, int64_t v)
{
    char buf[24];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

void put(std::string &out, int v) { put(out, static_cast<int64_t>(v)); }
void put(std::string &out, const Value &v) { v.appendTo(out); }

template <typename... Pieces>
void
print(std::string &out, const Pieces &...pieces)
{
    (put(out, pieces), ...);
}

} // anonymous namespace

void
Value::appendTo(std::string &out) const
{
    switch (kind_) {
      case ValueKind::None: out += "<none>"; return;
      case ValueKind::Var: out += name_; return;
      case ValueKind::IntConst: put(out, int_); return;
      case ValueKind::BoolConst: out += int_ ? "true" : "false"; return;
      case ValueKind::Null: out += "null"; return;
    }
    out += "?";
}

std::string
Value::str() const
{
    std::string out;
    appendTo(out);
    return out;
}

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::Assign: return "assign";
      case Opcode::FieldLoad: return "fieldload";
      case Opcode::FieldStore: return "fieldstore";
      case Opcode::Random: return "random";
      case Opcode::Call: return "call";
      case Opcode::Return: return "return";
      case Opcode::Cmp: return "cmp";
      case Opcode::CondBranch: return "condbranch";
      case Opcode::Branch: return "branch";
    }
    return "?";
}

Instruction
Instruction::assign(std::string dst, Value src)
{
    Instruction i;
    i.op = Opcode::Assign;
    i.dst = std::move(dst);
    i.a = std::move(src);
    return i;
}

Instruction
Instruction::fieldLoad(std::string dst, Value base, std::string field)
{
    Instruction i;
    i.op = Opcode::FieldLoad;
    i.dst = std::move(dst);
    i.a = std::move(base);
    i.field = std::move(field);
    return i;
}

Instruction
Instruction::fieldStore(Value base, std::string field, Value value)
{
    Instruction i;
    i.op = Opcode::FieldStore;
    i.a = std::move(base);
    i.field = std::move(field);
    i.b = std::move(value);
    return i;
}

Instruction
Instruction::random(std::string dst)
{
    Instruction i;
    i.op = Opcode::Random;
    i.dst = std::move(dst);
    return i;
}

Instruction
Instruction::call(std::string dst, std::string callee,
                  std::vector<Value> args)
{
    Instruction i;
    i.op = Opcode::Call;
    i.dst = std::move(dst);
    i.callee = std::move(callee);
    i.args = std::move(args);
    return i;
}

Instruction
Instruction::ret(Value v)
{
    Instruction i;
    i.op = Opcode::Return;
    i.a = std::move(v);
    return i;
}

Instruction
Instruction::cmp(std::string dst, smt::Pred pred, Value lhs, Value rhs)
{
    Instruction i;
    i.op = Opcode::Cmp;
    i.dst = std::move(dst);
    i.pred = pred;
    i.a = std::move(lhs);
    i.b = std::move(rhs);
    return i;
}

Instruction
Instruction::condBranch(Value cond_var, BlockId if_true, BlockId if_false)
{
    Instruction i;
    i.op = Opcode::CondBranch;
    i.a = std::move(cond_var);
    i.target = if_true;
    i.target_else = if_false;
    return i;
}

Instruction
Instruction::branch(BlockId target)
{
    Instruction i;
    i.op = Opcode::Branch;
    i.target = target;
    return i;
}

void
Instruction::appendTo(std::string &out) const
{
    switch (op) {
      case Opcode::Assign:
        print(out, dst, " = ", a);
        break;
      case Opcode::FieldLoad:
        print(out, dst, " = ", a, '.', field);
        break;
      case Opcode::FieldStore:
        print(out, a, '.', field, " = ", b);
        break;
      case Opcode::Random:
        print(out, dst, " = random");
        break;
      case Opcode::Call:
        if (!dst.empty())
            print(out, dst, " = ");
        print(out, callee, '(');
        for (size_t i = 0; i < args.size(); i++) {
            if (i)
                out += ", ";
            put(out, args[i]);
        }
        out += ')';
        break;
      case Opcode::Return:
        out += "return";
        if (!a.isNone())
            print(out, ' ', a);
        break;
      case Opcode::Cmp:
        print(out, dst, " = ", a, ' ', smt::predSpelling(pred), ' ', b);
        break;
      case Opcode::CondBranch:
        print(out, "branch ", a, ", bb", target, ", bb", target_else);
        break;
      case Opcode::Branch:
        print(out, "branch bb", target);
        break;
    }
}

std::string
Instruction::str() const
{
    std::string out;
    appendTo(out);
    return out;
}

std::vector<BlockId>
BasicBlock::successors() const
{
    if (!hasTerminator())
        return {};
    const Instruction &t = terminator();
    switch (t.op) {
      case Opcode::Branch:
        return {t.target};
      case Opcode::CondBranch:
        return {t.target, t.target_else};
      default:
        return {};
    }
}

std::vector<std::string>
Function::callees() const
{
    std::vector<std::string> out;
    std::set<std::string> seen;
    for (const auto &bb : blocks_) {
        for (const auto &in : bb.instrs) {
            if (in.op == Opcode::Call && seen.insert(in.callee).second)
                out.push_back(in.callee);
        }
    }
    return out;
}

int
Function::countCondBranches() const
{
    int n = 0;
    for (const auto &bb : blocks_)
        for (const auto &in : bb.instrs)
            if (in.op == Opcode::CondBranch)
                n++;
    return n;
}

bool
Function::isParam(const std::string &name) const
{
    for (const auto &p : params_)
        if (p == name)
            return true;
    return false;
}

void
Function::verify() const
{
    obs::failpoint("ir.verify");
    auto fail = [this](size_t block, const std::string &msg) {
        throw IrError(name_, static_cast<BlockId>(block), msg);
    };
    for (size_t b = 0; b < blocks_.size(); b++) {
        const auto &bb = blocks_[b];
        if (!bb.hasTerminator())
            fail(b, "block lacks a terminator");
        for (size_t i = 0; i < bb.instrs.size(); i++) {
            const auto &in = bb.instrs[i];
            if (in.isTerminator() && i + 1 != bb.instrs.size())
                fail(b, "terminator not last in block");
            if (in.op == Opcode::Branch || in.op == Opcode::CondBranch) {
                auto check = [&](BlockId t) {
                    if (t < 0 || static_cast<size_t>(t) >= blocks_.size())
                        fail(b, "branch target out of range");
                };
                check(in.target);
                if (in.op == Opcode::CondBranch)
                    check(in.target_else);
            }
            if (in.op == Opcode::Return) {
                if (returnsValue_ && in.a.isNone())
                    fail(b, "missing return value");
            }
        }
    }
}

void
Function::appendTo(std::string &out) const
{
    print(out, returnsValue_ ? "int " : "void ", name_, '(');
    for (size_t i = 0; i < params_.size(); i++) {
        if (i)
            out += ", ";
        out += params_[i];
    }
    out += ')';
    if (isDeclaration()) {
        out += ";\n";
        return;
    }
    out += " {\n";
    for (size_t b = 0; b < blocks_.size(); b++) {
        print(out, "  bb", static_cast<int64_t>(b));
        if (!blocks_[b].label.empty())
            print(out, " (", blocks_[b].label, ')');
        out += ":\n";
        for (const auto &in : blocks_[b].instrs) {
            out += "    ";
            in.appendTo(out);
            out += '\n';
        }
    }
    out += "}\n";
}

std::string
Function::str() const
{
    std::string out;
    appendTo(out);
    return out;
}

uint64_t
Function::fingerprint() const
{
    std::string printed;
    appendTo(printed);
    return smt::fpBytes(printed);
}

Function *
Module::addFunction(Function fn)
{
    return adopt(std::make_unique<Function>(std::move(fn)));
}

Function *
Module::adopt(std::unique_ptr<Function> fn)
{
    auto [it, inserted] = slots_.try_emplace(fn->name(), functions_.size());
    if (inserted) {
        functions_.push_back(std::move(fn));
        return functions_.back().get();
    }
    std::unique_ptr<Function> &slot = functions_[it->second];
    // Keep a definition over a declaration; otherwise first wins. The
    // definition takes the declaration's slot, and the key, which views
    // the declaration's name, is re-pointed at the definition's.
    if (slot->isDeclaration() && !fn->isDeclaration()) {
        auto node = slots_.extract(it);
        node.key() = fn->name();
        slots_.insert(std::move(node));
        slot = std::move(fn);
    }
    return slot.get();
}

Function *
Module::find(std::string_view name)
{
    auto it = slots_.find(name);
    return it == slots_.end() ? nullptr : functions_[it->second].get();
}

const Function *
Module::find(std::string_view name) const
{
    auto it = slots_.find(name);
    return it == slots_.end() ? nullptr : functions_[it->second].get();
}

void
Module::absorb(Module other)
{
    for (auto &fn : other.functions_)
        adopt(std::move(fn));
}

std::string
Module::str() const
{
    std::string out;
    for (const auto &fn : functions_) {
        fn->appendTo(out);
        out += '\n';
    }
    return out;
}

} // namespace rid::ir
