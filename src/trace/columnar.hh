/**
 * @file
 * Columnar compressed trace format (v2).
 *
 * The v1 trace is a flat array of fixed 32-byte Records: trivially
 * seekable, but at production retention scale the dominant storage and
 * I/O cost — and highly redundant (`cfg.transitions_filtered` shows
 * ~40% of records are repetitive transitions). v2 stores the same
 * records in WEBTIDX1-aligned blocks of kTraceIndexBlockRecords, each
 * block split into per-field columns:
 *
 *   - pc / addr / aux / tid: delta + zigzag varint. Deltas run across
 *     block boundaries; each block-index entry carries the encoder's
 *     live state (the previous value of every delta column) as a
 *     checkpoint, so a reader can seek to any block and decode only it
 *     — no scanning from the ends.
 *   - kind + flags: packed into one byte per record.
 *   - rr0/rr1/rr2/rw: varint of (reg + 1), 0 for kNoReg.
 *
 * The concatenated columns are then block-compressed with the in-repo
 * LZ codec (support/lz.hh). The block index (offsets, sizes, per-block
 * executed/pseudo counts, checkpoints) lives at the end of the file and
 * is located via the header, subsuming the v1 WEBTIDX1 footer: ranged
 * reads seek straight to a block through it.
 *
 * Decoded blocks are cached in a process-wide, byte-budgeted LRU
 * (TraceDecodeCache) shared by ranged reads, the streaming readers, and
 * the service (which folds the budget into --cache-bytes), so repeat
 * touches of a block within the budget do not decode it again.
 *
 * File layout:
 *   V2Header  { "WEBTRC2\0", recordCount, indexOffset }
 *   block 0 .. block N-1   (LZ-compressed column payloads)
 *   V2IndexHeader { "WEBTIDX2", blockRecords, blockCount }
 *   V2BlockEntry[blockCount]
 */

#ifndef WEBSLICE_TRACE_COLUMNAR_HH
#define WEBSLICE_TRACE_COLUMNAR_HH

#include <cstdint>
#include <cstdio>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/record.hh"

namespace webslice {
namespace trace {

/** v2 on-disk header. indexOffset is patched on close. */
struct V2Header
{
    char magic[8] = {'W', 'E', 'B', 'T', 'R', 'C', '2', '\0'};
    uint64_t recordCount = 0;
    uint64_t indexOffset = 0;
};

static_assert(sizeof(V2Header) == 24, "v2 header layout must stay fixed");

/**
 * Delta-decoder live state at a block's first record: the previous
 * value of every delta-coded column. Folding these checkpoints into
 * the block index is what makes every block independently decodable.
 */
struct V2Checkpoint
{
    uint64_t prevAddr = 0;
    uint32_t prevPc = 0;
    uint32_t prevAux = 0;
    uint16_t prevTid = 0;
    uint8_t reserved[6] = {};
};

static_assert(sizeof(V2Checkpoint) == 24,
              "v2 checkpoint layout must stay fixed");

/** One block's index entry. */
struct V2BlockEntry
{
    uint64_t fileOffset = 0;   ///< Offset of the compressed payload.
    uint32_t encodedBytes = 0; ///< Compressed payload size.
    uint32_t rawBytes = 0;     ///< Column payload size before LZ.
    uint32_t records = 0;      ///< Records in this block.
    uint32_t instructions = 0; ///< Executed (non-pseudo) records.
    uint32_t pseudoRecords = 0;
    uint32_t reserved = 0;
    V2Checkpoint checkpoint; ///< Decoder state at the block's start.
};

static_assert(sizeof(V2BlockEntry) == 56,
              "v2 block entry layout must stay fixed");

/** On-disk header of the trailing block index. */
struct V2IndexHeader
{
    char magic[8] = {'W', 'E', 'B', 'T', 'I', 'D', 'X', '2'};
    uint64_t blockRecords = 0;
    uint64_t blockCount = 0;
};

static_assert(sizeof(V2IndexHeader) == 24,
              "v2 index header layout must stay fixed");

/**
 * Stable identity of a trace file on disk (device/inode/size/mtime
 * folded; falls back to path+size). Keys the decode cache and the
 * bytes-on-disk dedup.
 */
uint64_t traceFileIdentity(const std::string &path, uint64_t file_bytes);

/**
 * Count `bytes` into the `trace.bytes_on_disk` counter once per
 * distinct file identity: the counter totals the on-disk footprint of
 * the traces the process touched, not bytes-per-open.
 */
void noteTraceBytesOnDisk(uint64_t identity, uint64_t bytes);

// ---- varint / zigzag primitives (shared with the value-log v2) ---------

/** Append an unsigned LEB128 varint. */
void putVarint(uint64_t v, std::vector<uint8_t> &out);

/** Zigzag-fold a signed delta into a small unsigned. */
inline uint64_t
zigzag(int64_t v)
{
    return (static_cast<uint64_t>(v) << 1) ^
           static_cast<uint64_t>(v >> 63);
}

inline int64_t
unzigzag(uint64_t v)
{
    return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/**
 * Read one varint from [p, end); false on truncation or a value that
 * does not fit 64 bits.
 */
bool getVarint(const uint8_t *&p, const uint8_t *end, uint64_t &v);

// ---- block codec -------------------------------------------------------

/**
 * Column-encode and LZ-compress `records`, appending the compressed
 * payload to `out`. `state` carries the delta columns' running values
 * across consecutive blocks: its value on entry is the block's
 * checkpoint, and it is advanced past the block's last record.
 * @returns the raw (pre-LZ) payload size for the index entry.
 */
uint32_t encodeV2Block(const Record *records, size_t count,
                       V2Checkpoint &state, std::vector<uint8_t> &out);

/**
 * Decode one compressed block payload. Fatal (with `context` naming
 * the file and block) on any malformation: LZ stream corruption,
 * column overrun or underrun, or a record-count mismatch.
 */
void decodeV2Block(const uint8_t *payload, size_t encoded_bytes,
                   size_t raw_bytes, size_t expect_records,
                   const V2Checkpoint &checkpoint,
                   std::vector<Record> &out, const std::string &context);

// ---- v2 file access ----------------------------------------------------

/** Parsed, validated v2 index. */
struct V2Index
{
    uint64_t recordCount = 0;
    uint64_t blockRecords = 0;
    std::vector<V2BlockEntry> blocks;
};

/**
 * An open v2 trace file: header + index parsed and validated up front,
 * per-block decode on demand. Block reads use pread, so concurrent
 * decodeBlock calls from several threads are safe on one shared
 * instance.
 */
class V2TraceFile
{
  public:
    explicit V2TraceFile(const std::string &path);
    ~V2TraceFile();

    V2TraceFile(const V2TraceFile &) = delete;
    V2TraceFile &operator=(const V2TraceFile &) = delete;

    const std::string &path() const { return path_; }
    uint64_t count() const { return index_.recordCount; }
    const V2Index &index() const { return index_; }

    /** Block containing record `i`. */
    size_t blockOf(uint64_t i) const
    {
        return static_cast<size_t>(i / index_.blockRecords);
    }

    /**
     * Decode block `b` into `out` (replacing its contents). Reads and
     * validates the compressed payload; fatal with file + block + byte
     * offset context on corruption.
     */
    void decodeBlock(size_t b, std::vector<Record> &out) const;

    /** Identity for the decode cache: device/inode/size/mtime folded. */
    uint64_t cacheKey() const { return cacheKey_; }

  private:
    std::string path_;
    int fd_ = -1;
    std::FILE *file_ = nullptr; ///< Fallback when pread is unavailable.
    mutable std::mutex fileMutex_; ///< Guards file_ seeks (fallback only).
    V2Index index_;
    uint64_t cacheKey_ = 0;
};

/**
 * Process-wide LRU cache of decoded v2 blocks, keyed by file identity
 * and block number and bounded by a byte budget over the *decoded*
 * record bytes. The service shares its --cache-bytes budget with this
 * cache; standalone CLIs run with the default budget.
 */
class TraceDecodeCache
{
  public:
    static TraceDecodeCache &global();

    /** Cap on decoded bytes held; evicts immediately if now over. */
    void setBudget(uint64_t bytes);

    uint64_t budget() const;

    /**
     * The decoded records of `file`'s block `b`, from cache or by
     * decoding now. The returned block stays valid for the holder even
     * after eviction.
     */
    std::shared_ptr<const std::vector<Record>>
    acquire(const V2TraceFile &file, size_t b);

    /** Drop all cached blocks (tests / budget reconfiguration). */
    void clear();

    struct Stats
    {
        uint64_t entries = 0;
        uint64_t bytes = 0;
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t evictions = 0;
    };

    Stats stats() const;

  private:
    struct Key
    {
        uint64_t file;
        uint64_t block;

        bool operator==(const Key &) const = default;
    };

    struct KeyHash
    {
        size_t
        operator()(const Key &k) const
        {
            return static_cast<size_t>(k.file * 1099511628211ull ^
                                       (k.block + 0x9e3779b97f4a7c15ull));
        }
    };

    struct CacheEntry
    {
        std::shared_ptr<const std::vector<Record>> block;
        std::list<Key>::iterator lruIt;
        uint64_t bytes = 0;
    };

    void evictLocked();

    mutable std::mutex mutex_;
    std::unordered_map<Key, CacheEntry, KeyHash> entries_;
    std::list<Key> lru_; ///< Front = most recently used.
    uint64_t bytes_ = 0;
    uint64_t budget_ = 512ull << 20;
    Stats counters_;
};

// ---- v2 writer backend -------------------------------------------------

/**
 * Streaming v2 encoder used by TraceWriter: buffers one block of
 * records, encodes and writes it when full, and writes the index +
 * patches the header on finish(). File handle ownership stays with the
 * caller (TraceWriter owns open/close/rename so the atomic-rename path
 * is shared between formats).
 */
class V2WriterBackend
{
  public:
    V2WriterBackend(std::FILE *file, std::string path);

    /** Buffer one record; encodes and writes a block when full. */
    void append(const Record &rec);

    /** Flush the final partial block, write the index, patch header. */
    void finish();

  private:
    void flushBlock();

    std::FILE *file_;
    std::string path_;
    std::vector<Record> block_;
    std::vector<uint8_t> encoded_;
    V2Checkpoint state_;
    V2Index index_;
    uint64_t written_ = 0; ///< Records written to disk so far.
};

} // namespace trace
} // namespace webslice

#endif // WEBSLICE_TRACE_COLUMNAR_HH
