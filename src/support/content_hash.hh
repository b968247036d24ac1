/**
 * @file
 * A word-wide 64-bit content hash for artifact identity.
 *
 * The service checks on every query that a recording's files are still
 * the ones its cached session was built from, by hashing every byte of
 * them. Byte-serial FNV-1a does that at ~0.6 GB/s; this hash reads
 * 8-byte little-endian words into four independent lanes (one 32-byte
 * stripe per step), so the lanes' multiplies overlap and the hash runs
 * at memory speed.
 *
 * Per lane and word: lane = rotl(lane + w*K2, 31) * K1, with K1 and K2
 * odd. For a fixed word that is a bijection of the lane, and for a
 * fixed lane it is injective in the word. The lanes are then folded
 * into one value in sequence (each fold injective in its lane), the
 * length is added, the tail (< 32 bytes) is mixed in one byte at a time
 * (each step injective in its byte) and a bijective finalizer ends it.
 * So two inputs of equal length that differ only inside one 8-byte
 * word — in particular in any single byte — always hash differently,
 * the same guarantee FNV-1a gives.
 *
 * The values are persisted nowhere but compared across processes (a
 * fleet routes a recording by it), so the function must not change
 * shape: tests pin golden values.
 */

#ifndef WEBSLICE_SUPPORT_CONTENT_HASH_HH
#define WEBSLICE_SUPPORT_CONTENT_HASH_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace webslice {

/** Streaming form of contentHash64: any split of the input gives the
 *  same digest as hashing it in one piece. */
class ContentHasher
{
  public:
    ContentHasher();

    void update(const void *data, size_t bytes);

    /** Append `value` as 8 little-endian bytes. */
    void addU64(uint64_t value);

    /** Hash of everything added so far; the hasher stays usable. */
    uint64_t digest() const;

  private:
    uint64_t lanes_[4];
    uint8_t pending_[32] = {}; ///< The stripe not yet complete.
    size_t pendingBytes_ = 0;
    uint64_t total_ = 0;
};

/** One-shot content hash of an in-memory buffer. */
uint64_t contentHash64(const void *data, size_t bytes);

/** Size and content hash of a file. */
struct FileHash
{
    bool ok = false;
    uint64_t bytes = 0;
    uint64_t hash = 0;
};

/** Hash a file's contents, streamed through one 64 KiB buffer
 *  (ok=false when it cannot be opened or read). */
FileHash hashFile(const std::string &path);

} // namespace webslice

#endif // WEBSLICE_SUPPORT_CONTENT_HASH_HH
