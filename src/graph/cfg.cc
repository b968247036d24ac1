#include "graph/cfg.hh"

#include <algorithm>

#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/strings.hh"
#include "trace/trace_file.hh"

namespace webslice {
namespace graph {

using trace::FuncId;
using trace::Pc;
using trace::Record;
using trace::RecordKind;

NodeId
Cfg::nodeFor(Pc pc)
{
    auto it = pcNode.find(pc);
    if (it != pcNode.end())
        return it->second;
    const NodeId id = static_cast<NodeId>(nodePc.size());
    nodePc.push_back(pc);
    pcNode.emplace(pc, id);
    succs.emplace_back();
    preds.emplace_back();
    isBranch.push_back(false);
    return id;
}

NodeId
Cfg::findNode(Pc pc) const
{
    auto it = pcNode.find(pc);
    return it == pcNode.end() ? kNoNode : it->second;
}

void
Cfg::addEdge(NodeId a, NodeId b)
{
    auto &out = succs[a];
    if (std::find(out.begin(), out.end(), b) != out.end())
        return;
    out.push_back(b);
    preds[b].push_back(a);
}

std::string
CfgSet::functionName(FuncId id, const trace::SymbolTable &symtab) const
{
    auto it = syntheticNames.find(id);
    if (it != syntheticNames.end())
        return it->second;
    if (id < symtab.functionCount())
        return symtab.symbol(id).name;
    return format("<unknown:%u>", id);
}

Pc
CfgSet::entryPcOf(FuncId id) const
{
    auto it = byFunc.find(id);
    if (it == byFunc.end())
        return trace::kNoPc;
    const Cfg &cfg = it->second;
    // Node 2 is the first real pc the function ever executed (nodes 0/1
    // are the virtual entry/exit); for symbol-registered functions that
    // is the function's entry pc, for synthetics it is the first glue pc.
    return cfg.nodePc.size() > 2 ? cfg.nodePc[2] : trace::kNoPc;
}

std::vector<FuncId>
CfgSet::functionsByEntryPc() const
{
    std::vector<FuncId> order;
    order.reserve(byFunc.size());
    for (const auto &[id, cfg] : byFunc)
        order.push_back(id);
    std::sort(order.begin(), order.end(), [this](FuncId a, FuncId b) {
        const Pc pa = entryPcOf(a);
        const Pc pb = entryPcOf(b);
        if (pa != pb)
            return pa < pb;
        return a < b;
    });
    return order;
}

// ---- CfgBuilder -------------------------------------------------------------

CfgBuilder::CfgBuilder(const trace::SymbolTable &symtab)
    : symtab_(symtab)
{
    out_.firstSynthetic = static_cast<FuncId>(symtab.functionCount());
    nextSynthetic_ = out_.firstSynthetic;
    // Registered functions are known upfront; synthetics grow the arrays
    // on demand in touchFunc().
    funcs_.resize(symtab.functionCount());
    touched_.resize(symtab.functionCount(), 0);
}

void
CfgBuilder::reserveRecords(size_t count)
{
    out_.funcOf.reserve(count);
}

void
CfgBuilder::touchFunc(FuncId func)
{
    if (func >= funcs_.size()) {
        funcs_.resize(func + 1);
        touched_.resize(func + 1, 0);
    }
    if (!touched_[func]) {
        touched_[func] = 1;
        funcOrder_.push_back(func);
    }
}

std::vector<CfgBuilder::Frame> &
CfgBuilder::stackFor(trace::ThreadId tid)
{
    if (tid >= threads_.size())
        threads_.resize(tid + 1);
    return threads_[tid];
}

CfgBuilder::Frame &
CfgBuilder::topFrame(trace::ThreadId tid)
{
    auto &stack = stackFor(tid);
    if (stack.empty()) {
        const FuncId synthetic = nextSynthetic_++;
        out_.syntheticNames[synthetic] = format("<toplevel:tid%u>", tid);
        touchFunc(synthetic);
        stack.push_back(Frame{synthetic, trace::kNoPc});
        ++out_.stats.framesOpened;
    }
    return stack.back();
}

FuncId
CfgBuilder::step(trace::ThreadId tid, Pc pc, bool is_branch)
{
    Frame &frame = topFrame(tid);
    funcs_[frame.func].emit(frame.lastPc, pc,
                            is_branch ? uint8_t{kTransBranch}
                                      : uint8_t{0});
    frame.lastPc = pc;
    // topFrame may have grown funcs_ (toplevel creation), so compute the
    // cached pointers only now.
    cacheTid_ = tid;
    cacheFrame_ = &frame;
    cacheStream_ = &funcs_[frame.func];
    return frame.func;
}

/** Drive one record through the frame stacks; returns its function. */
inline FuncId
CfgBuilder::attribute(const Record &rec)
{
    if (rec.isPseudo()) {
        // Inherit the enclosing function of the preceding syscall.
        return lastFunc_;
    }

    ++out_.stats.transitionsObserved;

    switch (rec.kind) {
      case RecordKind::Call: {
        // The call instruction itself belongs to the caller.
        lastFunc_ = step(rec.tid, rec.pc, false);

        FuncId callee =
            symtab_.functionAtEntry(static_cast<Pc>(rec.addr));
        if (callee == trace::kNoFunc) {
            // Call into an unregistered target: synthesize a function.
            callee = nextSynthetic_++;
            out_.syntheticNames[callee] = format(
                "<anon:pc%llu>",
                static_cast<unsigned long long>(rec.addr));
        }
        touchFunc(callee);
        threads_[rec.tid].push_back(Frame{callee, trace::kNoPc});
        ++out_.stats.framesOpened;
        cacheTid_ = rec.tid;
        cacheFrame_ = &threads_[rec.tid].back();
        cacheStream_ = &funcs_[callee];
        return lastFunc_;
      }

      case RecordKind::Ret: {
        auto &stack = stackFor(rec.tid);
        if (stack.empty()) {
            // Trace began mid-function; treat as toplevel glue.
            return lastFunc_ = step(rec.tid, rec.pc, false);
        }
        Frame &frame = stack.back();
        funcs_[frame.func].emit(frame.lastPc, rec.pc, kTransRet);
        lastFunc_ = frame.func;
        stack.pop_back();
        ++out_.stats.framesClosed;
        cacheTid_ = rec.tid;
        cacheFrame_ = stack.empty() ? nullptr : &stack.back();
        cacheStream_ =
            stack.empty() ? nullptr : &funcs_[stack.back().func];
        return lastFunc_;
      }

      default: {
        const bool is_branch = rec.kind == RecordKind::Branch;
        if (cacheFrame_ && rec.tid == cacheTid_) {
            Frame &frame = *cacheFrame_;
            cacheStream_->emit(frame.lastPc, rec.pc,
                               is_branch ? uint8_t{kTransBranch}
                                         : uint8_t{0});
            frame.lastPc = rec.pc;
            return lastFunc_ = frame.func;
        }
        return lastFunc_ = step(rec.tid, rec.pc, is_branch);
      }
    }
}

void
CfgBuilder::feed(std::span<const Record> records)
{
    panic_if(finished_, "feed after finish");
    const size_t base = out_.funcOf.size();
    out_.funcOf.resize(base + records.size());
    FuncId *const func_of = out_.funcOf.data() + base;
    for (size_t idx = 0; idx < records.size(); ++idx)
        func_of[idx] = attribute(records[idx]);
}

void
CfgBuilder::replay(Cfg &cfg, const std::vector<Transition> &steps)
{
    for (const Transition &t : steps) {
        if (t.flags & kTransClose) {
            const NodeId from =
                t.from == trace::kNoPc ? Cfg::kEntry : cfg.nodeFor(t.from);
            cfg.addEdge(from, Cfg::kExit);
            continue;
        }
        const NodeId node = cfg.nodeFor(t.to);
        if (t.flags & kTransBranch)
            cfg.isBranch[node] = true;
        const NodeId from =
            t.from == trace::kNoPc ? Cfg::kEntry : cfg.nodeFor(t.from);
        cfg.addEdge(from, node);
        if (t.flags & kTransRet)
            cfg.addEdge(node, Cfg::kExit);
    }
    // Defensive: any node with no successors (shouldn't happen after the
    // close-out transitions, but keeps postdominator computation total).
    for (size_t n = 0; n < cfg.nodeCount(); ++n) {
        if (n != static_cast<size_t>(Cfg::kExit) && cfg.succs[n].empty())
            cfg.addEdge(static_cast<NodeId>(n), Cfg::kExit);
    }
}

CfgSet
CfgBuilder::finish()
{
    panic_if(finished_, "finish called twice");
    finished_ = true;

    // Close any frames still open at the end of the trace so every node
    // can reach the virtual exit (postdominators need this).
    for (auto &stack : threads_) {
        out_.stats.framesOpenAtEnd += stack.size();
        for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
            funcs_[it->func].steps.push_back(
                Transition{it->lastPc, trace::kNoPc, kTransClose});
        }
    }

    // Replay each function's transition stream into its CFG, creating
    // the CFGs in first-touch order.
    for (const FuncId func : funcOrder_) {
        Cfg &cfg = out_.byFunc[func];
        cfg.func = func;
        // Reserve entry and exit.
        cfg.nodePc.assign(2, trace::kNoPc);
        cfg.succs.assign(2, {});
        cfg.preds.assign(2, {});
        cfg.isBranch.assign(2, false);
        replay(cfg, funcs_[func].steps);
    }

    // Publish the feed's filtering effectiveness: replayed is the unique
    // transitions that survived the duplicate filter, filtered the drops.
    uint64_t replayed = 0, filtered = 0;
    for (const FuncStream &fs : funcs_) {
        replayed += fs.steps.size();
        filtered += fs.filtered;
    }
    auto &registry = MetricRegistry::global();
    registry.counter("cfg.records_fed").add(out_.funcOf.size());
    registry.counter("cfg.transitions_replayed").add(replayed);
    registry.counter("cfg.transitions_filtered").add(filtered);

    funcs_.clear();
    return std::move(out_);
}

CfgSet
buildCfgs(std::span<const Record> records,
          const trace::SymbolTable &symtab, int)
{
    CfgBuilder builder(symtab);
    builder.feed(records);
    return builder.finish();
}

CfgSet
buildCfgsFromFile(const std::string &path,
                  const trace::SymbolTable &symtab, int)
{
    trace::ForwardTraceReader reader(path);
    CfgBuilder builder(symtab);
    builder.reserveRecords(reader.count());
    Record rec;
    while (reader.next(rec))
        builder.feed(rec);
    return builder.finish();
}

} // namespace graph
} // namespace webslice
