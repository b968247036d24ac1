/**
 * @file
 * The traced virtual machine.
 *
 * This is the reproduction's substitute for "x86-64 + Intel Pin": a small
 * RISC-like CPU whose every executed operation appends a trace::Record.
 * The browser substrate is written against this API, so the traces the
 * profiler consumes contain real data- and control-dependence structure:
 *
 *  - Static pcs are derived from C++ call sites (std::source_location), so
 *    the same source site always produces the same pc — the property the
 *    forward pass needs to rebuild CFGs from a dynamic trace.
 *  - Values are RAII register handles; per-thread virtual registers are
 *    recycled, exercising the slicer's register kill/gen logic the same way
 *    real register reuse does.
 *  - branchIf() emits a conditional branch reading the condition value's
 *    register and returns the concrete boolean for the C++ side, so traced
 *    control flow and native control flow cannot diverge.
 *  - Threads are cooperative event loops serialized into a single trace
 *    stream, mirroring the paper's affinity-pinned tab process.
 *  - Syscalls carry explicit memory-effect pseudo-records, the equivalent
 *    of the paper's Linux-manual-derived effect annotations.
 */

#ifndef WEBSLICE_SIM_MACHINE_HH
#define WEBSLICE_SIM_MACHINE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <source_location>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "sim/memory.hh"
#include "support/stats.hh"
#include "trace/criteria.hh"
#include "trace/record.hh"
#include "trace/symtab.hh"
#include "trace/value_log.hh"

namespace webslice {
namespace sim {

class Machine;
class Ctx;

/** Machine construction parameters. */
struct MachineConfig
{
    /** Virtual cycles per utilization-timeline bucket (Figure 2). */
    uint64_t timelineBucket = 20000;
    /** Hard cap on trace length; exceeding it is a panic (runaway guard). */
    uint64_t maxRecords = 400ull * 1000 * 1000;
};

/**
 * RAII handle for a per-thread virtual register holding a concrete 64-bit
 * value. Move-only; the register returns to the thread's free pool on
 * destruction.
 */
class Value
{
  public:
    Value() = default;
    Value(Value &&other) noexcept { moveFrom(other); }

    Value &
    operator=(Value &&other) noexcept
    {
        if (this != &other) {
            release();
            moveFrom(other);
        }
        return *this;
    }

    Value(const Value &) = delete;
    Value &operator=(const Value &) = delete;

    ~Value() { release(); }

    /** True when this handle owns a register. */
    bool valid() const { return machine_ != nullptr; }

    /** The concrete runtime value. */
    uint64_t get() const { return concrete_; }

    /** The virtual register id backing this value. */
    trace::RegId reg() const { return reg_; }

    trace::ThreadId tid() const { return tid_; }

  private:
    friend class Machine;
    friend class Ctx;

    Value(Machine *machine, trace::ThreadId tid, trace::RegId reg,
          uint64_t concrete)
        : machine_(machine), tid_(tid), reg_(reg), concrete_(concrete)
    {}

    void moveFrom(Value &other);
    void release();

    Machine *machine_ = nullptr;
    trace::ThreadId tid_ = 0;
    trace::RegId reg_ = trace::kNoReg;
    uint64_t concrete_ = 0;
};

/**
 * Append-only record storage that grows with realloc. glibc serves
 * blocks this large with mmap and grows them with mremap, so growth
 * neither copies the records nor faults their pages in a second time,
 * as a doubling std::vector does.
 */
class RecordBuffer
{
  public:
    static_assert(std::is_trivially_copyable_v<trace::Record>,
                  "records are moved by realloc");

    RecordBuffer() = default;
    RecordBuffer(RecordBuffer &&other) noexcept;
    RecordBuffer &operator=(RecordBuffer &&other) noexcept;
    RecordBuffer(const RecordBuffer &) = delete;
    RecordBuffer &operator=(const RecordBuffer &) = delete;
    ~RecordBuffer();

    /** Grow the capacity to at least `capacity` records. */
    void reserve(size_t capacity);

    void
    push_back(const trace::Record &rec)
    {
        if (size_ == capacity_)
            reserve(capacity_ ? 2 * capacity_ : 1);
        data_[size_++] = rec;
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    std::span<const trace::Record> span() const { return {data_, size_}; }

  private:
    trace::Record *data_ = nullptr;
    size_t size_ = 0;
    size_t capacity_ = 0;
};

/** A unit of work executed on one simulated thread. */
using Task = std::function<void(Ctx &)>;

/**
 * Execution context bound to (machine, thread). All traced operations are
 * issued through a Ctx; the scheduler passes one to every task.
 */
class Ctx
{
  public:
    Ctx(Machine &machine, trace::ThreadId tid)
        : machine_(machine), tid_(tid)
    {}

    Machine &machine() const { return machine_; }
    trace::ThreadId tid() const { return tid_; }

    using Loc = std::source_location;

    // ---- value producers -------------------------------------------------

    /** Load an immediate constant (no dependencies). */
    Value imm(uint64_t v, Loc loc = Loc::current());

    /** Register-to-register copy. */
    Value copy(const Value &a, Loc loc = Loc::current());

    /** Generic one-operand ALU op with a caller-computed result. */
    Value alu1(const Value &a, uint64_t result, Loc loc = Loc::current());

    /** Generic two-operand ALU op with a caller-computed result. */
    Value alu2(const Value &a, const Value &b, uint64_t result,
               Loc loc = Loc::current());

    /** Generic three-operand ALU op with a caller-computed result. */
    Value alu3(const Value &a, const Value &b, const Value &c,
               uint64_t result, Loc loc = Loc::current());

    // Named arithmetic wrappers (all emit a single Alu record).
    Value add(const Value &a, const Value &b, Loc loc = Loc::current());
    Value sub(const Value &a, const Value &b, Loc loc = Loc::current());
    Value mul(const Value &a, const Value &b, Loc loc = Loc::current());
    Value udiv(const Value &a, const Value &b, Loc loc = Loc::current());
    Value umod(const Value &a, const Value &b, Loc loc = Loc::current());
    Value band(const Value &a, const Value &b, Loc loc = Loc::current());
    Value bor(const Value &a, const Value &b, Loc loc = Loc::current());
    Value bxor(const Value &a, const Value &b, Loc loc = Loc::current());
    Value shl(const Value &a, const Value &b, Loc loc = Loc::current());
    Value shr(const Value &a, const Value &b, Loc loc = Loc::current());

    // Immediate-operand forms (single register dependency).
    Value addi(const Value &a, int64_t k, Loc loc = Loc::current());
    Value muli(const Value &a, uint64_t k, Loc loc = Loc::current());
    Value andi(const Value &a, uint64_t k, Loc loc = Loc::current());
    Value shli(const Value &a, unsigned k, Loc loc = Loc::current());
    Value shri(const Value &a, unsigned k, Loc loc = Loc::current());

    // Comparisons producing 0/1.
    Value eq(const Value &a, const Value &b, Loc loc = Loc::current());
    Value ne(const Value &a, const Value &b, Loc loc = Loc::current());
    Value ltu(const Value &a, const Value &b, Loc loc = Loc::current());
    Value leu(const Value &a, const Value &b, Loc loc = Loc::current());
    Value gtu(const Value &a, const Value &b, Loc loc = Loc::current());
    Value geu(const Value &a, const Value &b, Loc loc = Loc::current());
    Value eqi(const Value &a, uint64_t k, Loc loc = Loc::current());
    Value ltui(const Value &a, uint64_t k, Loc loc = Loc::current());
    Value isZero(const Value &a, Loc loc = Loc::current());

    /** cond ? a : b as a single three-operand select. */
    Value select(const Value &cond, const Value &a, const Value &b,
                 Loc loc = Loc::current());

    // ---- memory ----------------------------------------------------------

    /** Load size bytes from an absolute simulated address. */
    Value load(uint64_t addr, unsigned size, Loc loc = Loc::current());

    /** Load through a traced pointer: addr = base.get() + offset. */
    Value loadVia(const Value &base, int64_t offset, unsigned size,
                  Loc loc = Loc::current());

    /** Store a value to an absolute simulated address. */
    void store(uint64_t addr, unsigned size, const Value &v,
               Loc loc = Loc::current());

    /** Store through a traced pointer: addr = base.get() + offset. */
    void storeVia(const Value &base, int64_t offset, unsigned size,
                  const Value &v, Loc loc = Loc::current());

    // ---- control flow ----------------------------------------------------

    /**
     * Emit a conditional branch on cond and return its concrete outcome.
     * Browser code must route every data-dependent C++ decision through
     * this so the trace's control dependences are faithful.
     */
    bool branchIf(const Value &cond, Loc loc = Loc::current());

    // ---- OS boundary -----------------------------------------------------

    /**
     * Emit a syscall record followed by its memory-effect pseudo-records.
     * @param number  syscall number (see sim/syscalls.hh)
     * @param reads   memory the kernel reads on the process's behalf
     * @param writes  memory the kernel writes on the process's behalf
     * @return the syscall's register result (e.g. byte count), as a Value.
     */
    Value syscall(uint32_t number, uint64_t result,
                  std::span<const trace::MemRange> reads,
                  std::span<const trace::MemRange> writes,
                  Loc loc = Loc::current());

    /**
     * Emit the slicing-criteria marker (the paper's "xchg %r13w,%r13w")
     * and register the given ranges under its fresh ordinal in the
     * machine's criteria set.
     * @return the marker ordinal.
     */
    uint32_t marker(std::span<const trace::MemRange> ranges,
                    Loc loc = Loc::current());

  private:
    friend class TracedScope;

    Machine &machine_;
    trace::ThreadId tid_;
};

/**
 * RAII scope that brackets a traced function's body with Call/Ret records
 * and keeps the machine's per-thread function stack (used to attribute
 * emitted pcs to their enclosing function) in sync.
 */
class TracedScope
{
  public:
    /** Direct call. */
    TracedScope(Ctx &ctx, trace::FuncId callee,
                std::source_location loc = std::source_location::current());

    /**
     * Indirect call: the target came out of a register (e.g. a JS dispatch
     * through a function object); the Call record reads target's register.
     */
    TracedScope(Ctx &ctx, trace::FuncId callee, const Value &target,
                std::source_location loc = std::source_location::current());

    ~TracedScope();

    TracedScope(const TracedScope &) = delete;
    TracedScope &operator=(const TracedScope &) = delete;

  private:
    Machine &machine_;
    trace::ThreadId tid_;
    trace::FuncId callee_;
};

/** The machine: memory + threads + scheduler + trace sink. */
class Machine
{
  public:
    explicit Machine(MachineConfig config = {});

    // ---- setup -----------------------------------------------------------

    /** Create a simulated thread; ids are dense from 0. */
    trace::ThreadId addThread(std::string name);

    const std::string &threadName(trace::ThreadId tid) const;
    size_t threadCount() const { return threads_.size(); }

    /** Register a traced function by qualified name; allocates entry pc. */
    trace::FuncId registerFunction(std::string qualified_name);

    /** Entry pc of a registered function. */
    trace::Pc functionEntry(trace::FuncId id) const;

    // ---- scheduling ------------------------------------------------------

    /** Queue a task on a thread, runnable immediately. */
    void post(trace::ThreadId tid, Task task);

    /** Queue a task runnable after delay virtual cycles. */
    void postDelayed(trace::ThreadId tid, uint64_t delay, Task task);

    /** Run tasks (round-robin across threads) until all queues drain. */
    void run();

    /** Current virtual time in cycles (1 cycle per instruction). */
    uint64_t now() const { return clock_; }

    // ---- memory (host-side / "kernel" view, untraced) ---------------------

    SimMemory &mem() { return memory_; }
    const SimMemory &mem() const { return memory_; }

    uint64_t alloc(uint64_t size, const char *tag = "")
    {
        return allocator_.alloc(size, tag);
    }

    void free(uint64_t addr) { allocator_.free(addr); }

    SimAllocator &allocator() { return allocator_; }

    // ---- outputs ---------------------------------------------------------

    std::span<const trace::Record> records() const { return records_.span(); }
    trace::SymbolTable &symtab() { return symtab_; }
    const trace::SymbolTable &symtab() const { return symtab_; }
    trace::CriteriaSet &pixelCriteria() { return pixelCriteria_; }
    const trace::CriteriaSet &pixelCriteria() const { return pixelCriteria_; }

    /** Executed-instruction count (pseudo-records excluded). */
    uint64_t instructionCount() const { return instructionCount_; }

    /**
     * Capture per-record concrete values and effect-range bytes into a
     * trace::ValueLog (the replay oracle's ground truth). Must be
     * enabled before the first record is emitted; off by default, since
     * the log costs 8 bytes per record plus the effect blobs.
     */
    void enableValueLog();

    /** The captured value log, or nullptr when not enabled. */
    const trace::ValueLog *valueLog() const { return valueLog_.get(); }

    /** Per-thread instructions-per-bucket series (drives Figure 2). */
    const TimeSeries &threadTimeline(trace::ThreadId tid) const;

    uint64_t timelineBucket() const { return config_.timelineBucket; }

  private:
    friend class Ctx;
    friend class Value;
    friend class TracedScope;

    struct Thread
    {
        std::string name;
        std::deque<Task> runQueue;
        std::vector<trace::RegId> freeRegs;
        trace::RegId nextReg = 0;
        std::vector<trace::FuncId> funcStack;
        TimeSeries timeline;
        /** The timeline bucket this thread last counted into, and the
         *  clock at which it ends: emit() divides only when the clock
         *  crosses it. */
        size_t bucket = 0;
        uint64_t bucketEnd = 0;
    };

    struct DelayedTask
    {
        uint64_t readyAt;
        uint64_t seq;
        trace::ThreadId tid;
    };

    struct DelayedOrder
    {
        bool
        operator()(const DelayedTask &a, const DelayedTask &b) const
        {
            if (a.readyAt != b.readyAt)
                return a.readyAt > b.readyAt;
            return a.seq > b.seq;
        }
    };

    trace::RegId allocReg(trace::ThreadId tid);
    void freeReg(trace::ThreadId tid, trace::RegId reg);

    /** Stable static pc for a source site. */
    trace::Pc sitePc(const std::source_location &loc);

    /** Hand out the next static pc; `owned` when the symbol table
     *  already has its owner. */
    trace::Pc allocPc(bool owned);

    /** Double the site table and reinsert every site. */
    void growSiteTable();

    /** Append a record; advances the clock for executed instructions. */
    void emit(trace::Record rec);

    /** Attach the concrete value of the most recently emitted record. */
    void noteValue(uint64_t v);

    /** Append a memory snapshot to the last emitted record's blob. */
    void noteBytes(uint64_t addr, uint64_t size);

    Thread &thread(trace::ThreadId tid);

    MachineConfig config_;
    SimMemory memory_;
    SimAllocator allocator_;
    std::vector<Thread> threads_;

    // Site -> pc in one open-addressing table (linear probing, at most
    // half full; file == nullptr marks an empty slot). Keyed by (file
    // pointer, line, column): file_name() returns a stable pointer per
    // translation unit.
    struct SiteSlot
    {
        const char *file = nullptr;
        uint32_t line = 0;
        uint32_t column = 0;
        trace::Pc pc = 0;
    };

    static constexpr trace::Pc kFirstPc = 0x1000;

    std::vector<SiteSlot> sites_;
    size_t siteCount_ = 0;
    trace::Pc nextPc_ = kFirstPc;

    // Per pc (dense from kFirstPc in steps of 4): nonzero once the
    // symbol table holds its owner, so emit() asks it only once.
    std::vector<uint8_t> owned_;

    RecordBuffer records_;
    std::unique_ptr<trace::ValueLog> valueLog_;
    uint64_t instructionCount_ = 0;
    uint64_t clock_ = 0;

    trace::SymbolTable symtab_;
    std::vector<trace::Pc> funcRetPc_;
    trace::CriteriaSet pixelCriteria_;
    uint32_t nextMarker_ = 0;

    std::priority_queue<DelayedTask, std::vector<DelayedTask>, DelayedOrder>
        delayed_;
    std::unordered_map<uint64_t, Task> delayedBodies_;
    uint64_t delayedSeq_ = 0;
    size_t rrCursor_ = 0;
};

} // namespace sim
} // namespace webslice

#endif // WEBSLICE_SIM_MACHINE_HH
