#include "sim/machine.hh"

#include <cstdlib>
#include <new>

#include "support/logging.hh"

namespace webslice {
namespace sim {

using trace::kNoReg;
using trace::Record;
using trace::RecordKind;

// ---- Value -----------------------------------------------------------------

void
Value::moveFrom(Value &other)
{
    machine_ = other.machine_;
    tid_ = other.tid_;
    reg_ = other.reg_;
    concrete_ = other.concrete_;
    other.machine_ = nullptr;
    other.reg_ = kNoReg;
}

void
Value::release()
{
    if (machine_) {
        machine_->freeReg(tid_, reg_);
        machine_ = nullptr;
        reg_ = kNoReg;
    }
}

// ---- RecordBuffer ----------------------------------------------------------

RecordBuffer::RecordBuffer(RecordBuffer &&other) noexcept
    : data_(other.data_), size_(other.size_), capacity_(other.capacity_)
{
    other.data_ = nullptr;
    other.size_ = other.capacity_ = 0;
}

RecordBuffer &
RecordBuffer::operator=(RecordBuffer &&other) noexcept
{
    if (this != &other) {
        std::free(data_);
        data_ = other.data_;
        size_ = other.size_;
        capacity_ = other.capacity_;
        other.data_ = nullptr;
        other.size_ = other.capacity_ = 0;
    }
    return *this;
}

RecordBuffer::~RecordBuffer()
{
    std::free(data_);
}

void
RecordBuffer::reserve(size_t capacity)
{
    if (capacity <= capacity_)
        return;
    void *grown = std::realloc(data_, capacity * sizeof(trace::Record));
    if (!grown)
        throw std::bad_alloc();
    data_ = static_cast<trace::Record *>(grown);
    capacity_ = capacity;
}

// ---- Machine ---------------------------------------------------------------

Machine::Machine(MachineConfig config) : config_(config), sites_(1024)
{
    records_.reserve(1 << 20);
}

trace::ThreadId
Machine::addThread(std::string name)
{
    const auto tid = static_cast<trace::ThreadId>(threads_.size());
    Thread thread;
    thread.name = std::move(name);
    thread.timeline = TimeSeries(config_.timelineBucket);
    threads_.push_back(std::move(thread));
    return tid;
}

const std::string &
Machine::threadName(trace::ThreadId tid) const
{
    panic_if(tid >= threads_.size(), "bad thread id ", tid);
    return threads_[tid].name;
}

Machine::Thread &
Machine::thread(trace::ThreadId tid)
{
    panic_if(tid >= threads_.size(), "bad thread id ", tid);
    return threads_[tid];
}

trace::FuncId
Machine::registerFunction(std::string qualified_name)
{
    // The symbol table owns both pcs from the start: the entry through
    // addFunction, the ret through the assignPc below.
    const trace::Pc entry = allocPc(/*owned=*/true);
    const trace::Pc ret = allocPc(/*owned=*/true);
    const trace::FuncId id =
        symtab_.addFunction(entry, std::move(qualified_name));
    panic_if(id != funcRetPc_.size(), "function id sequence broken");
    funcRetPc_.push_back(ret);
    symtab_.assignPc(ret, id);
    return id;
}

trace::Pc
Machine::functionEntry(trace::FuncId id) const
{
    return symtab_.symbol(id).entryPc;
}

void
Machine::post(trace::ThreadId tid, Task task)
{
    thread(tid).runQueue.push_back(std::move(task));
}

void
Machine::postDelayed(trace::ThreadId tid, uint64_t delay, Task task)
{
    const uint64_t seq = delayedSeq_++;
    delayed_.push(DelayedTask{clock_ + delay, seq, tid});
    delayedBodies_[seq] = std::move(task);
}

void
Machine::run()
{
    while (true) {
        // Release delayed tasks whose time has come into their thread's
        // run queue.
        while (!delayed_.empty() && delayed_.top().readyAt <= clock_) {
            const DelayedTask top = delayed_.top();
            delayed_.pop();
            auto it = delayedBodies_.find(top.seq);
            thread(top.tid).runQueue.push_back(std::move(it->second));
            delayedBodies_.erase(it);
        }

        // Round-robin across threads with runnable tasks.
        bool ran = false;
        for (size_t i = 0; i < threads_.size(); ++i) {
            const size_t idx = (rrCursor_ + i) % threads_.size();
            auto &queue = threads_[idx].runQueue;
            if (queue.empty())
                continue;
            Task task = std::move(queue.front());
            queue.pop_front();
            rrCursor_ = idx + 1;
            Ctx ctx(*this, static_cast<trace::ThreadId>(idx));
            task(ctx);
            ran = true;
            break;
        }
        if (ran)
            continue;

        // Nothing runnable: jump the clock to the next delayed task, or
        // stop when there is none (this models the idle gaps visible in
        // the paper's Figure 2 utilization plot).
        if (delayed_.empty())
            break;
        clock_ = std::max(clock_, delayed_.top().readyAt);
    }
}

trace::RegId
Machine::allocReg(trace::ThreadId tid)
{
    Thread &t = thread(tid);
    if (!t.freeRegs.empty()) {
        const trace::RegId reg = t.freeRegs.back();
        t.freeRegs.pop_back();
        return reg;
    }
    panic_if(t.nextReg == kNoReg - 1,
             "thread ", tid, " exhausted its virtual registers");
    return t.nextReg++;
}

void
Machine::freeReg(trace::ThreadId tid, trace::RegId reg)
{
    thread(tid).freeRegs.push_back(reg);
}

namespace {

size_t
siteHash(const char *file, uint32_t line, uint32_t column)
{
    uint64_t h = reinterpret_cast<uintptr_t>(file);
    h ^= (static_cast<uint64_t>(line) << 32) | column;
    return static_cast<size_t>((h * 0x9e3779b97f4a7c15ull) >> 32);
}

} // namespace

trace::Pc
Machine::allocPc(bool owned)
{
    const trace::Pc pc = nextPc_;
    nextPc_ += 4;
    owned_.push_back(owned ? 1 : 0);
    return pc;
}

trace::Pc
Machine::sitePc(const std::source_location &loc)
{
    const char *const file = loc.file_name();
    const uint32_t line = loc.line();
    const uint32_t column = loc.column();
    const size_t mask = sites_.size() - 1;
    for (size_t i = siteHash(file, line, column) & mask;;
         i = (i + 1) & mask) {
        SiteSlot &slot = sites_[i];
        if (slot.file == file && slot.line == line && slot.column == column)
            return slot.pc;
        if (!slot.file) {
            // First sighting: pcs follow first-use order.
            const trace::Pc pc = allocPc(/*owned=*/false);
            slot = SiteSlot{file, line, column, pc};
            if (2 * ++siteCount_ > sites_.size())
                growSiteTable();
            return pc;
        }
    }
}

void
Machine::growSiteTable()
{
    std::vector<SiteSlot> old(2 * sites_.size());
    old.swap(sites_);
    const size_t mask = sites_.size() - 1;
    for (const SiteSlot &slot : old) {
        if (!slot.file)
            continue;
        size_t i = siteHash(slot.file, slot.line, slot.column) & mask;
        while (sites_[i].file)
            i = (i + 1) & mask;
        sites_[i] = slot;
    }
}

void
Machine::emit(Record rec)
{
    panic_if(records_.size() >= config_.maxRecords,
             "trace exceeded the configured record cap");
    Thread &t = thread(rec.tid);
    // First owner wins in the symbol table, so only a pc's first
    // sighting under a function needs to reach it.
    uint8_t &owned = owned_[(rec.pc - kFirstPc) >> 2];
    if (!owned && !t.funcStack.empty()) {
        owned = 1;
        symtab_.assignPc(rec.pc, t.funcStack.back());
    }
    if (!rec.isPseudo()) {
        ++instructionCount_;
        if (clock_ >= t.bucketEnd) {
            t.bucket = t.timeline.bucketFor(clock_);
            t.bucketEnd = (t.bucket + 1) * t.timeline.bucketWidth();
        }
        t.timeline.addToBucket(t.bucket, 1.0);
        ++clock_;
    }
    records_.push_back(rec);
    if (valueLog_)
        valueLog_->values.push_back(0);
}

void
Machine::enableValueLog()
{
    panic_if(!records_.empty(),
             "value log must be enabled before the first record");
    valueLog_ = std::make_unique<trace::ValueLog>();
}

void
Machine::noteValue(uint64_t v)
{
    if (valueLog_)
        valueLog_->values.back() = v;
}

void
Machine::noteBytes(uint64_t addr, uint64_t size)
{
    if (!valueLog_)
        return;
    auto &blob = valueLog_->blobs[valueLog_->values.size() - 1];
    const size_t offset = blob.size();
    blob.resize(offset + size);
    memory_.readBytes(addr, blob.data() + offset, size);
}

const TimeSeries &
Machine::threadTimeline(trace::ThreadId tid) const
{
    panic_if(tid >= threads_.size(), "bad thread id ", tid);
    return threads_[tid].timeline;
}

// ---- Ctx -------------------------------------------------------------------

namespace {

Record
baseRecord(trace::ThreadId tid, trace::Pc pc, RecordKind kind)
{
    Record rec;
    rec.tid = tid;
    rec.pc = pc;
    rec.kind = kind;
    return rec;
}

} // namespace

Value
Ctx::imm(uint64_t v, Loc loc)
{
    const trace::RegId rw = machine_.allocReg(tid_);
    Record rec = baseRecord(tid_, machine_.sitePc(loc), RecordKind::LoadImm);
    rec.rw = rw;
    machine_.emit(rec);
    machine_.noteValue(v);
    return Value(&machine_, tid_, rw, v);
}

Value
Ctx::copy(const Value &a, Loc loc)
{
    return alu1(a, a.get(), loc);
}

Value
Ctx::alu1(const Value &a, uint64_t result, Loc loc)
{
    const trace::RegId rw = machine_.allocReg(tid_);
    Record rec = baseRecord(tid_, machine_.sitePc(loc), RecordKind::Alu);
    rec.rr0 = a.reg();
    rec.rw = rw;
    machine_.emit(rec);
    machine_.noteValue(result);
    return Value(&machine_, tid_, rw, result);
}

Value
Ctx::alu2(const Value &a, const Value &b, uint64_t result, Loc loc)
{
    const trace::RegId rw = machine_.allocReg(tid_);
    Record rec = baseRecord(tid_, machine_.sitePc(loc), RecordKind::Alu);
    rec.rr0 = a.reg();
    rec.rr1 = b.reg();
    rec.rw = rw;
    machine_.emit(rec);
    machine_.noteValue(result);
    return Value(&machine_, tid_, rw, result);
}

Value
Ctx::alu3(const Value &a, const Value &b, const Value &c, uint64_t result,
          Loc loc)
{
    const trace::RegId rw = machine_.allocReg(tid_);
    Record rec = baseRecord(tid_, machine_.sitePc(loc), RecordKind::Alu);
    rec.rr0 = a.reg();
    rec.rr1 = b.reg();
    rec.rr2 = c.reg();
    rec.rw = rw;
    machine_.emit(rec);
    machine_.noteValue(result);
    return Value(&machine_, tid_, rw, result);
}

Value
Ctx::add(const Value &a, const Value &b, Loc loc)
{
    return alu2(a, b, a.get() + b.get(), loc);
}

Value
Ctx::sub(const Value &a, const Value &b, Loc loc)
{
    return alu2(a, b, a.get() - b.get(), loc);
}

Value
Ctx::mul(const Value &a, const Value &b, Loc loc)
{
    return alu2(a, b, a.get() * b.get(), loc);
}

Value
Ctx::udiv(const Value &a, const Value &b, Loc loc)
{
    return alu2(a, b, b.get() ? a.get() / b.get() : 0, loc);
}

Value
Ctx::umod(const Value &a, const Value &b, Loc loc)
{
    return alu2(a, b, b.get() ? a.get() % b.get() : 0, loc);
}

Value
Ctx::band(const Value &a, const Value &b, Loc loc)
{
    return alu2(a, b, a.get() & b.get(), loc);
}

Value
Ctx::bor(const Value &a, const Value &b, Loc loc)
{
    return alu2(a, b, a.get() | b.get(), loc);
}

Value
Ctx::bxor(const Value &a, const Value &b, Loc loc)
{
    return alu2(a, b, a.get() ^ b.get(), loc);
}

Value
Ctx::shl(const Value &a, const Value &b, Loc loc)
{
    return alu2(a, b, a.get() << (b.get() & 63), loc);
}

Value
Ctx::shr(const Value &a, const Value &b, Loc loc)
{
    return alu2(a, b, a.get() >> (b.get() & 63), loc);
}

Value
Ctx::addi(const Value &a, int64_t k, Loc loc)
{
    return alu1(a, a.get() + static_cast<uint64_t>(k), loc);
}

Value
Ctx::muli(const Value &a, uint64_t k, Loc loc)
{
    return alu1(a, a.get() * k, loc);
}

Value
Ctx::andi(const Value &a, uint64_t k, Loc loc)
{
    return alu1(a, a.get() & k, loc);
}

Value
Ctx::shli(const Value &a, unsigned k, Loc loc)
{
    return alu1(a, a.get() << (k & 63), loc);
}

Value
Ctx::shri(const Value &a, unsigned k, Loc loc)
{
    return alu1(a, a.get() >> (k & 63), loc);
}

Value
Ctx::eq(const Value &a, const Value &b, Loc loc)
{
    return alu2(a, b, a.get() == b.get() ? 1 : 0, loc);
}

Value
Ctx::ne(const Value &a, const Value &b, Loc loc)
{
    return alu2(a, b, a.get() != b.get() ? 1 : 0, loc);
}

Value
Ctx::ltu(const Value &a, const Value &b, Loc loc)
{
    return alu2(a, b, a.get() < b.get() ? 1 : 0, loc);
}

Value
Ctx::leu(const Value &a, const Value &b, Loc loc)
{
    return alu2(a, b, a.get() <= b.get() ? 1 : 0, loc);
}

Value
Ctx::gtu(const Value &a, const Value &b, Loc loc)
{
    return alu2(a, b, a.get() > b.get() ? 1 : 0, loc);
}

Value
Ctx::geu(const Value &a, const Value &b, Loc loc)
{
    return alu2(a, b, a.get() >= b.get() ? 1 : 0, loc);
}

Value
Ctx::eqi(const Value &a, uint64_t k, Loc loc)
{
    return alu1(a, a.get() == k ? 1 : 0, loc);
}

Value
Ctx::ltui(const Value &a, uint64_t k, Loc loc)
{
    return alu1(a, a.get() < k ? 1 : 0, loc);
}

Value
Ctx::isZero(const Value &a, Loc loc)
{
    return alu1(a, a.get() == 0 ? 1 : 0, loc);
}

Value
Ctx::select(const Value &cond, const Value &a, const Value &b, Loc loc)
{
    return alu3(cond, a, b, cond.get() ? a.get() : b.get(), loc);
}

Value
Ctx::load(uint64_t addr, unsigned size, Loc loc)
{
    const uint64_t value = machine_.mem().read(addr, size);
    const trace::RegId rw = machine_.allocReg(tid_);
    Record rec = baseRecord(tid_, machine_.sitePc(loc), RecordKind::Load);
    rec.addr = addr;
    rec.aux = size;
    rec.rw = rw;
    machine_.emit(rec);
    machine_.noteValue(value);
    return Value(&machine_, tid_, rw, value);
}

Value
Ctx::loadVia(const Value &base, int64_t offset, unsigned size, Loc loc)
{
    const uint64_t addr = base.get() + static_cast<uint64_t>(offset);
    const uint64_t value = machine_.mem().read(addr, size);
    const trace::RegId rw = machine_.allocReg(tid_);
    Record rec = baseRecord(tid_, machine_.sitePc(loc), RecordKind::Load);
    rec.addr = addr;
    rec.aux = size;
    rec.rr0 = base.reg();
    rec.rw = rw;
    machine_.emit(rec);
    machine_.noteValue(value);
    return Value(&machine_, tid_, rw, value);
}

void
Ctx::store(uint64_t addr, unsigned size, const Value &v, Loc loc)
{
    machine_.mem().write(addr, size, v.get());
    Record rec = baseRecord(tid_, machine_.sitePc(loc), RecordKind::Store);
    rec.addr = addr;
    rec.aux = size;
    rec.rr0 = v.reg();
    machine_.emit(rec);
    machine_.noteValue(v.get());
}

void
Ctx::storeVia(const Value &base, int64_t offset, unsigned size,
              const Value &v, Loc loc)
{
    const uint64_t addr = base.get() + static_cast<uint64_t>(offset);
    machine_.mem().write(addr, size, v.get());
    Record rec = baseRecord(tid_, machine_.sitePc(loc), RecordKind::Store);
    rec.addr = addr;
    rec.aux = size;
    rec.rr0 = v.reg();
    rec.rr1 = base.reg();
    machine_.emit(rec);
    machine_.noteValue(v.get());
}

bool
Ctx::branchIf(const Value &cond, Loc loc)
{
    const bool taken = cond.get() != 0;
    Record rec = baseRecord(tid_, machine_.sitePc(loc), RecordKind::Branch);
    rec.rr0 = cond.reg();
    if (taken)
        rec.flags |= trace::kFlagTaken;
    machine_.emit(rec);
    machine_.noteValue(taken ? 1 : 0);
    return taken;
}

Value
Ctx::syscall(uint32_t number, uint64_t result,
             std::span<const trace::MemRange> reads,
             std::span<const trace::MemRange> writes, Loc loc)
{
    const trace::RegId rw = machine_.allocReg(tid_);
    Record rec = baseRecord(tid_, machine_.sitePc(loc), RecordKind::Syscall);
    rec.aux = number;
    rec.rw = rw;
    machine_.emit(rec);
    machine_.noteValue(result);

    for (const auto &range : reads) {
        Record eff =
            baseRecord(tid_, rec.pc, RecordKind::SyscallRead);
        eff.addr = range.addr;
        eff.aux = static_cast<uint32_t>(range.size);
        machine_.emit(eff);
        machine_.noteBytes(range.addr, range.size);
    }
    for (const auto &range : writes) {
        Record eff =
            baseRecord(tid_, rec.pc, RecordKind::SyscallWrite);
        eff.addr = range.addr;
        eff.aux = static_cast<uint32_t>(range.size);
        machine_.emit(eff);
        machine_.noteBytes(range.addr, range.size);
    }
    return Value(&machine_, tid_, rw, result);
}

uint32_t
Ctx::marker(std::span<const trace::MemRange> ranges, Loc loc)
{
    const uint32_t ordinal = machine_.nextMarker_++;
    Record rec = baseRecord(tid_, machine_.sitePc(loc), RecordKind::Marker);
    rec.aux = ordinal;
    machine_.emit(rec);
    for (const auto &range : ranges)
        machine_.pixelCriteria_.add(ordinal, range.addr, range.size);
    // Snapshot the criterion bytes as the merged criteria set reports
    // them, so replay and recording agree on the blob layout.
    for (const auto &range : machine_.pixelCriteria_.forMarker(ordinal))
        machine_.noteBytes(range.addr, range.size);
    return ordinal;
}

// ---- TracedScope -----------------------------------------------------------

TracedScope::TracedScope(Ctx &ctx, trace::FuncId callee,
                         std::source_location loc)
    : machine_(ctx.machine()), tid_(ctx.tid()), callee_(callee)
{
    Record rec = baseRecord(tid_, machine_.sitePc(loc), RecordKind::Call);
    rec.addr = machine_.functionEntry(callee);
    machine_.emit(rec);
    machine_.thread(tid_).funcStack.push_back(callee);
}

TracedScope::TracedScope(Ctx &ctx, trace::FuncId callee, const Value &target,
                         std::source_location loc)
    : machine_(ctx.machine()), tid_(ctx.tid()), callee_(callee)
{
    Record rec = baseRecord(tid_, machine_.sitePc(loc), RecordKind::Call);
    rec.addr = machine_.functionEntry(callee);
    rec.flags |= trace::kFlagIndirect;
    rec.rr0 = target.reg();
    machine_.emit(rec);
    machine_.thread(tid_).funcStack.push_back(callee);
}

TracedScope::~TracedScope()
{
    auto &stack = machine_.thread(tid_).funcStack;
    panic_if(stack.empty() || stack.back() != callee_,
             "unbalanced traced function scopes");
    Record rec = baseRecord(tid_, machine_.funcRetPc_[callee_],
                            RecordKind::Ret);
    machine_.emit(rec);
    stack.pop_back();
}

} // namespace sim
} // namespace webslice
