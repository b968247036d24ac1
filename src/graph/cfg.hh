/**
 * @file
 * Dynamic control flow graph reconstruction (the profiler's forward pass,
 * part 1).
 *
 * As in the paper, CFGs must be rebuilt from the dynamic instruction trace:
 * indirect control transfer targets are only known at runtime. Function
 * boundaries are recovered by matching Call and Ret records on a per-thread
 * stack; every static pc observed between a function's Call and its Ret (at
 * the same depth) becomes a node of that function's CFG, and each CFG gets
 * its own virtual entry and exit nodes.
 *
 * Records executed outside any traced function (thread run-loop glue) are
 * attributed to one synthetic "toplevel" function per thread.
 */

#ifndef WEBSLICE_GRAPH_CFG_HH
#define WEBSLICE_GRAPH_CFG_HH

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/record.hh"
#include "trace/symtab.hh"

namespace webslice {
namespace graph {

/** Dense node index within one function's CFG. */
using NodeId = int32_t;
constexpr NodeId kNoNode = -1;

/** One function's control flow graph at instruction (pc) granularity. */
struct Cfg
{
    /** Conventional node indices. */
    static constexpr NodeId kEntry = 0;
    static constexpr NodeId kExit = 1;

    trace::FuncId func = trace::kNoFunc;

    /** Node -> pc; entry/exit map to kNoPc. */
    std::vector<trace::Pc> nodePc;

    /** pc -> node. */
    std::unordered_map<trace::Pc, NodeId> pcNode;

    std::vector<std::vector<NodeId>> succs;
    std::vector<std::vector<NodeId>> preds;

    /** Nodes whose pc carried a Branch record at least once. */
    std::vector<bool> isBranch;

    /** Get or create the node for a pc. */
    NodeId nodeFor(trace::Pc pc);

    /** Existing node for a pc, or kNoNode. */
    NodeId findNode(trace::Pc pc) const;

    /** Add edge a -> b if not already present. */
    void addEdge(NodeId a, NodeId b);

    size_t nodeCount() const { return nodePc.size(); }
};

/** The full set of per-function CFGs plus per-record attribution. */
struct CfgSet
{
    /**
     * Feed-level totals, defined purely in terms of the record stream.
     * The verification layer's graph linter recomputes each from the
     * raw trace and diffs — a mismatch means the builder dropped or
     * duplicated work.
     */
    struct Stats
    {
        /** Non-pseudo records fed (each drives one CFG transition). */
        uint64_t transitionsObserved = 0;
        /** Call pushes plus synthetic-toplevel frame creations. */
        uint64_t framesOpened = 0;
        /** Ret records that popped a matching frame. */
        uint64_t framesClosed = 0;
        /** Frames still open when finish() closed them out. */
        uint64_t framesOpenAtEnd = 0;
    };

    Stats stats;

    /** CFGs keyed by function id (including synthetic toplevels). */
    std::unordered_map<trace::FuncId, Cfg> byFunc;

    /**
     * Enclosing function of each trace record (parallel to the record
     * array). Pseudo-records inherit their syscall's function.
     */
    std::vector<trace::FuncId> funcOf;

    /** Names of synthetic toplevel functions, keyed by their ids. */
    std::unordered_map<trace::FuncId, std::string> syntheticNames;

    /** First id used for synthetic functions. */
    trace::FuncId firstSynthetic = trace::kNoFunc;

    /** Readable name for any function id this set knows about. */
    std::string functionName(trace::FuncId id,
                             const trace::SymbolTable &symtab) const;

    /**
     * Function ids in a stable order: sorted by the function's entry pc
     * (the first real pc its CFG observed; synthetic toplevels sort by
     * their first executed pc), ties broken by id. byFunc is an
     * unordered_map, so any pass whose output depends on function
     * iteration order (the static fixpoints, --dump-pdg) must walk this
     * instead to be deterministic across runs and library versions.
     */
    std::vector<trace::FuncId> functionsByEntryPc() const;

    /** Entry pc used by functionsByEntryPc() for one function. */
    trace::Pc entryPcOf(trace::FuncId id) const;
};

/**
 * The forward-pass CFG builder: feed records first-to-last, then take
 * the finished CfgSet. Both the in-memory and the file-streaming front
 * ends drive this.
 *
 * feed() performs only the inherently sequential work (call/return
 * frame matching, synthetic-function assignment, per-record
 * attribution) and records one compact transition per record, grouped
 * by function. A small direct-mapped filter per function drops
 * transitions already seen, so the recorded streams hold roughly the
 * *unique* control-flow edges, not one entry per record — loop-heavy
 * traces shrink by orders of magnitude. finish() then replays each
 * function's stream into its Cfg. The filter keeps the first occurrence
 * of every transition in order, so node ids are assigned in first-use
 * order of the pcs, and the replay's addEdge() dedups the occasional
 * duplicate a filter collision lets through.
 */
class CfgBuilder
{
  public:
    explicit CfgBuilder(const trace::SymbolTable &symtab);

    /** Size the attribution array upfront when the trace length is known. */
    void reserveRecords(size_t count);

    /**
     * Consume the next records (records must arrive in trace order).
     * The attribution array grows once per call and is written through
     * a raw pointer: per-record push_back bookkeeping is measurable at
     * this loop's throughput, so feed whole in-memory traces at once.
     */
    void feed(std::span<const trace::Record> records);

    /** Consume the next record. */
    void feed(const trace::Record &record) { feed({&record, 1}); }

    /** Replay the transitions and return the result; the builder is spent. */
    CfgSet finish();

  private:
    struct Frame
    {
        trace::FuncId func = trace::kNoFunc;
        trace::Pc lastPc = trace::kNoPc; ///< kNoPc means "at entry".
    };

    /** One CFG-affecting event within a function. */
    struct Transition
    {
        trace::Pc from = trace::kNoPc; ///< kNoPc means the virtual entry.
        trace::Pc to = trace::kNoPc;
        uint8_t flags = 0;
    };

    enum : uint8_t
    {
        kTransBranch = 1 << 0, ///< `to` executed a Branch record.
        kTransRet = 1 << 1,    ///< `to` returns (edge to virtual exit).
        kTransClose = 1 << 2,  ///< Frame left open at end of trace.
    };

    static constexpr size_t kFilterSlots = 4096;

    /** A function's transition stream plus its duplicate filter. */
    struct FuncStream
    {
        std::vector<Transition> steps;
        uint64_t filtered = 0; ///< Duplicate transitions dropped.

        struct FilterEntry
        {
            trace::Pc from = 0;
            trace::Pc to = 0;
            uint8_t flags = 0;
            uint8_t valid = 0;
        };
        std::vector<FilterEntry> filter; ///< Allocated on first emit.

        void
        emit(trace::Pc from, trace::Pc to, uint8_t flags)
        {
            if (filter.empty())
                filter.resize(kFilterSlots);
            const size_t slot = (from * 2654435761u ^ to) &
                                (kFilterSlots - 1);
            FilterEntry &e = filter[slot];
            if (e.valid && e.from == from && e.to == to &&
                e.flags == flags) {
                ++filtered; // transition already recorded
                return;
            }
            e = FilterEntry{from, to, flags, 1};
            steps.push_back(Transition{from, to, flags});
        }
    };

    std::vector<Frame> &stackFor(trace::ThreadId tid);
    Frame &topFrame(trace::ThreadId tid);
    void touchFunc(trace::FuncId func);
    trace::FuncId step(trace::ThreadId tid, trace::Pc pc, bool is_branch);
    trace::FuncId attribute(const trace::Record &rec);
    static void replay(Cfg &cfg, const std::vector<Transition> &steps);

    const trace::SymbolTable &symtab_;
    CfgSet out_;
    std::vector<FuncStream> funcs_;     ///< Indexed by (dense) FuncId.
    std::vector<uint8_t> touched_;      ///< Parallel to funcs_.
    std::vector<trace::FuncId> funcOrder_; ///< First-touch order.
    std::vector<std::vector<Frame>> threads_; ///< Indexed by ThreadId.
    trace::FuncId nextSynthetic_;
    /** Function of the previous non-pseudo record (pseudo-records
     *  inherit it). */
    trace::FuncId lastFunc_ = trace::kNoFunc;
    bool finished_ = false;

    // One-entry hot-path cache: traces run long same-thread stretches
    // without calls or returns, so the top frame and its function's
    // stream are the same record after record. The Frame pointer
    // survives growth of threads_ itself (moving an inner vector does
    // not move its heap buffer); any push/pop on the same thread's stack
    // or growth of funcs_ goes through the slow path, which recomputes
    // the cache.
    trace::ThreadId cacheTid_ = 0;
    Frame *cacheFrame_ = nullptr;
    FuncStream *cacheStream_ = nullptr;
};

/**
 * Build per-function CFGs from an in-memory dynamic trace (the forward
 * pass).
 *
 * @param records  the dynamic trace
 * @param symtab   symbol table mapping call targets to functions
 *
 * The trailing int is ignored: the forward pass runs on one thread. It
 * remains only so existing callers that pass a thread count still build.
 */
CfgSet buildCfgs(std::span<const trace::Record> records,
                 const trace::SymbolTable &symtab, int = 1);

/**
 * Forward pass over a trace file, streamed in blocks: peak memory is the
 * CFGs plus one per-record function id, not the records themselves. The
 * trailing int is ignored, as in buildCfgs().
 */
CfgSet buildCfgsFromFile(const std::string &path,
                         const trace::SymbolTable &symtab, int = 1);

} // namespace graph
} // namespace webslice

#endif // WEBSLICE_GRAPH_CFG_HH
