/**
 * @file
 * Binary trace file I/O.
 *
 * A trace file is a small header followed by densely packed 32-byte
 * Records. Four access paths are provided:
 *  - TraceWriter: append records while the traced program runs;
 *  - loadTrace(): read an entire trace into memory (the common case for
 *    our benchmark-sized traces);
 *  - MappedTrace: zero-copy mmap view of a whole trace — the records are
 *    paged in on demand and never copied, so loadTrace-sized traces can
 *    be profiled without doubling their footprint;
 *  - ForwardTraceReader / ReverseTraceReader: stream records in fixed
 *    size blocks (front-to-back / back-to-front) so the profiler passes
 *    can run in O(live set) memory on traces too large to hold in RAM.
 *    Both overlap disk latency with analysis: a background prefetch
 *    thread reads the next block into a second buffer while the caller
 *    consumes the current one.
 *
 * Two on-disk formats share these access paths. v1 ("WEBTRC1") is the
 * flat 32-byte record array with an optional WEBTIDX1 block-index
 * footer. v2 ("WEBTRC2", trace/columnar.hh) stores the same records as
 * delta+varint column blocks, LZ-compressed, with per-block decoder
 * checkpoints folded into a mandatory block index so ranged and
 * reverse readers seek to any block and decode only it. Every reader
 * here sniffs the magic and decodes transparently; TraceWriter picks
 * the format at construction (v1 stays the default).
 */

#ifndef WEBSLICE_TRACE_TRACE_FILE_HH
#define WEBSLICE_TRACE_TRACE_FILE_HH

#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "trace/record.hh"

namespace webslice {
namespace trace {

class V2TraceFile;
class V2WriterBackend;

/** The two on-disk trace formats. */
enum class TraceFormat : uint8_t
{
    V1 = 1, ///< Flat record array (+ optional WEBTIDX1 footer).
    V2 = 2, ///< Columnar compressed blocks with checkpointed index.
};

/**
 * Identify a trace file's format from its magic; fatal (with the path)
 * when the file is unreadable or carries neither trace magic.
 */
TraceFormat sniffTraceFormat(const std::string &path);

/** On-disk header preceding the record array. */
struct TraceHeader
{
    char magic[8] = {'W', 'E', 'B', 'T', 'R', 'C', '1', '\0'};
    uint64_t recordCount = 0;
};

static_assert(sizeof(TraceHeader) == 16, "header layout must stay fixed");

/** Records covered by one block-index entry. */
constexpr size_t kTraceIndexBlockRecords = 1 << 16;

/**
 * Per-block work counts over a trace, written as an optional magic-gated
 * footer after the record array (TraceWriter with block_index enabled).
 * The executed-instruction counts let a reader size a range of the trace
 * by work without scanning the records, and the fixed block geometry
 * lets ranged loads seek straight to a record. Files without a footer
 * load exactly as before; files with trailing bytes that are not a valid
 * footer still fail loudly.
 */
struct TraceBlockIndex
{
    /** Records per block (kTraceIndexBlockRecords when written by us);
     *  0 when the trace file carries no index. */
    uint64_t blockRecords = 0;

    /** Executed (non-pseudo) records per block; last block may be short. */
    std::vector<uint32_t> instructions;

    /** Pseudo-records (syscall effects) per block. */
    std::vector<uint32_t> pseudoRecords;

    bool present() const { return blockRecords != 0; }
    size_t blockCount() const { return instructions.size(); }
};

/** Buffered appender of trace records to a file. */
class TraceWriter
{
  public:
    /**
     * @param block_index also accumulate and write the per-block work
     *                    index as a footer on close() (v1 only; the v2
     *                    index is structural and always written)
     * @param format      on-disk format; v1 stays the default so every
     *                    existing consumer keeps reading its traces
     * @param atomic      write to <path>.tmp and fsync + rename into
     *                    place on close(), so a crash mid-record can
     *                    never leave a truncated file under the final
     *                    name that later passes loading
     */
    explicit TraceWriter(const std::string &path, bool block_index = false,
                         TraceFormat format = TraceFormat::V1,
                         bool atomic = false);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append one record. */
    void append(const Record &rec);

    /** Records appended so far. */
    uint64_t count() const { return count_; }

    /** Flush buffers and patch the header; called by the destructor too. */
    void close();

  private:
    void flush();

    /** Flush + (when atomic) fsync, close, and rename into place. */
    void finishFile();

    std::string path_;      ///< File being written (temp when atomic).
    std::string finalPath_; ///< Rename target; equals path_ otherwise.
    std::FILE *file_ = nullptr;
    std::vector<Record> buffer_;
    uint64_t count_ = 0;
    bool writeIndex_ = false;
    bool atomic_ = false;
    TraceBlockIndex index_;
    std::unique_ptr<V2WriterBackend> v2_;
};

/** Read a whole trace file into memory. */
std::vector<Record> loadTrace(const std::string &path);

/** Read records [first, first + count) of a trace file. */
std::vector<Record> loadTraceRange(const std::string &path, uint64_t first,
                                   uint64_t count);

/**
 * Read a trace file's block-index footer; the result's present() is
 * false when the file carries none. Corrupt footers fail loudly.
 */
TraceBlockIndex loadTraceBlockIndex(const std::string &path);

/**
 * Zero-copy view of a whole trace file via mmap. When mmap is
 * unavailable (or fails) the file is read into an owned buffer instead,
 * so records() is always valid; mapped() reports which path was taken.
 */
class MappedTrace
{
  public:
    explicit MappedTrace(const std::string &path);
    ~MappedTrace();

    MappedTrace(const MappedTrace &) = delete;
    MappedTrace &operator=(const MappedTrace &) = delete;

    /** Total records in the trace. */
    uint64_t count() const { return count_; }

    /** The record array (zero-copy when mapped). */
    std::span<const Record> records() const
    {
        return {records_, static_cast<size_t>(count_)};
    }

    const Record &operator[](size_t i) const { return records_[i]; }

    /** True when the view is an actual mmap, not a fallback copy. */
    bool mapped() const { return map_ != nullptr; }

    /** The file's block index; present() is false when it has none. */
    const TraceBlockIndex &blockIndex() const { return index_; }

  private:
    void *map_ = nullptr;
    size_t mapBytes_ = 0;
    const Record *records_ = nullptr;
    uint64_t count_ = 0;
    std::vector<Record> fallback_;
    TraceBlockIndex index_;
};

/** Write a whole in-memory trace to a file. */
void saveTrace(const std::string &path, const std::vector<Record> &records,
               TraceFormat format = TraceFormat::V1);

/**
 * Streams a trace file's records first to last in blocks, for forward
 * passes over traces too large to hold in RAM. With prefetch enabled
 * (the default) a background thread double-buffers the reads so disk
 * latency overlaps the caller's analysis.
 */
class ForwardTraceReader
{
  public:
    explicit ForwardTraceReader(const std::string &path,
                                size_t block_records = 1 << 16,
                                bool prefetch = true);
    ~ForwardTraceReader();

    ForwardTraceReader(const ForwardTraceReader &) = delete;
    ForwardTraceReader &operator=(const ForwardTraceReader &) = delete;

    uint64_t count() const { return count_; }

    /** Yield the next record; false at end of trace. */
    bool next(Record &out);

  private:
    void fillBlockSync();
    void takePrefetched();
    void ioLoop();

    /** v2: copy the next in-order chunk (one file block) into `buf`,
     *  given `remaining` records not yet fetched; returns the chunk. */
    size_t fillForwardV2(std::vector<Record> &buf, uint64_t remaining);

    std::FILE *file_ = nullptr;
    std::unique_ptr<V2TraceFile> v2_;
    size_t blockRecords_;
    uint64_t count_ = 0;
    uint64_t consumed_ = 0;
    std::vector<Record> block_;
    size_t blockPos_ = 0;

    // Prefetch machinery: the IO thread owns file_ after construction and
    // hands filled blocks over through ready_.
    bool prefetch_ = false;
    std::thread io_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<Record> ready_;
    bool readyValid_ = false;
    bool stop_ = false;
    uint64_t ioRemaining_ = 0;

    // Prefetch effectiveness; published to the metric registry by the
    // destructor (hit = the next block was already waiting).
    uint64_t prefetchHits_ = 0;
    uint64_t prefetchMisses_ = 0;
    uint64_t syncReads_ = 0;
};

/**
 * Streams a trace file's records from last to first, reading the file in
 * blocks so peak memory stays bounded by the block size. With prefetch
 * enabled (the default) a background thread reads the preceding block
 * while the caller drains the current one — the backward slicing pass
 * never waits for a seek.
 */
class ReverseTraceReader
{
  public:
    explicit ReverseTraceReader(const std::string &path,
                                size_t block_records = 1 << 16,
                                bool prefetch = true);
    ~ReverseTraceReader();

    ReverseTraceReader(const ReverseTraceReader &) = delete;
    ReverseTraceReader &operator=(const ReverseTraceReader &) = delete;

    /** Total records in the file. */
    uint64_t count() const { return count_; }

    /** Records not yet yielded. */
    uint64_t remaining() const { return remaining_; }

    /**
     * Yield the next record, moving backwards through the trace.
     * @retval false when the beginning of the trace has been passed.
     */
    bool next(Record &out);

  private:
    void loadPrecedingBlock();
    void takePrefetched();
    void ioLoop();

    /** v2: copy the preceding chunk (the unread part of one file
     *  block) into `buf`, given `remaining` unfetched records; returns
     *  the chunk size. */
    size_t fillReverseV2(std::vector<Record> &buf, uint64_t remaining);

    std::FILE *file_ = nullptr;
    std::unique_ptr<V2TraceFile> v2_;
    size_t blockRecords_;
    uint64_t count_ = 0;
    uint64_t remaining_ = 0;
    std::vector<Record> block_;
    size_t blockPos_ = 0; ///< Records still unread within block_.

    // Prefetch machinery (see ForwardTraceReader).
    bool prefetch_ = false;
    std::thread io_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<Record> ready_;
    bool readyValid_ = false;
    bool stop_ = false;
    uint64_t ioRemaining_ = 0; ///< Records the IO thread still has to read.

    // Prefetch effectiveness (see ForwardTraceReader).
    uint64_t prefetchHits_ = 0;
    uint64_t prefetchMisses_ = 0;
    uint64_t syncReads_ = 0;
};

} // namespace trace
} // namespace webslice

#endif // WEBSLICE_TRACE_TRACE_FILE_HH
