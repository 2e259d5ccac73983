#ifndef DINOMO_DPM_LOG_H_
#define DINOMO_DPM_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "pm/pm_pool.h"

namespace dinomo {
namespace dpm {

/// Log operation kinds. Inserts and updates are both kPut (the index
/// upserts); deletes are tombstones applied at merge time.
enum class LogOp : uint8_t { kPut = 1, kDelete = 2 };

/// Decoded view of one log entry.
struct LogRecord {
  LogOp op = LogOp::kPut;
  uint64_t seq = 0;
  uint64_t key_hash = 0;
  Slice key;
  Slice value;
};

/// Value pointer as stored in the metadata index, shortcuts and indirect
/// slots: a PM offset to the log entry packed with the entry's size (so a
/// single one-sided read fetches the whole entry) and an "indirect" flag
/// used for selectively-replicated hot keys (§3.4).
///
/// Layout: [63] indirect | [62:44] size in 8-byte units | [43:0] offset.
/// Supports pools up to 16 TB and entries up to 4 MB.
class ValuePtr {
 public:
  ValuePtr() : raw_(0) {}
  explicit ValuePtr(uint64_t raw) : raw_(raw) {}

  static ValuePtr Pack(pm::PmPtr offset, uint32_t entry_size,
                       bool indirect = false);

  bool null() const { return raw_ == 0; }
  pm::PmPtr offset() const { return raw_ & kOffsetMask; }
  uint32_t entry_size() const {
    return static_cast<uint32_t>((raw_ >> kSizeShift) & kSizeMask) * 8;
  }
  bool indirect() const { return (raw_ >> 63) != 0; }
  uint64_t raw() const { return raw_; }

  bool operator==(const ValuePtr& o) const { return raw_ == o.raw_; }

 private:
  static constexpr uint64_t kOffsetMask = (1ULL << 44) - 1;
  static constexpr int kSizeShift = 44;
  static constexpr uint64_t kSizeMask = (1ULL << 19) - 1;

  uint64_t raw_;
};

/// Maximum sizes accepted by the log encoding.
inline constexpr size_t kMaxKeySize = 16 * 1024;
inline constexpr size_t kMaxValueSize = 1 * 1024 * 1024;

/// Default log segment size. The paper (§4) uses 8 MB segments for a
/// 32 GB dataset; this repo scales datasets down ~200x, and at 8 MiB the
/// open tail of each KN worker's segment held 8-16% of a hostbench
/// dataset (EXPERIMENTS.md "Scaling of the testbed"), so the default is
/// scaled down to 2 MiB. Experiments may set smaller segments still.
inline constexpr size_t kDefaultSegmentSize = 2 * 1024 * 1024;

/// Size in bytes an entry with the given key/value lengths occupies,
/// including header, commit marker and 8-byte alignment padding.
size_t EncodedEntrySize(size_t key_len, size_t value_len);

/// Encodes one entry at `buf` (which must have room for EncodedEntrySize
/// bytes). The final byte written is the commit marker — on real PM the
/// marker acts as the seal certifying the entry was fully written [19,52].
/// Returns the encoded size.
size_t EncodeEntry(char* buf, LogOp op, uint64_t seq, uint64_t key_hash,
                   const Slice& key, const Slice& value);

/// Decodes the entry at `buf`. Verifies the commit marker and payload CRC;
/// returns Corruption for torn/partial entries (the crash-recovery path
/// relies on this to find the durable log prefix). On success sets *rec
/// (slices point into buf) and *consumed.
Status DecodeEntry(const char* buf, size_t avail, LogRecord* rec,
                   size_t* consumed);

/// DecodeEntry's structural checks alone (sizes, lengths, commit marker,
/// op) without the payload CRC. Only for bytes a merge already decoded
/// in full and nothing has written since: the log cleaner's walk over a
/// sealed, merged segment, which copies entries verbatim, so every reader
/// still checks the CRC at the copy.
Status ParseEntry(const char* buf, size_t avail, LogRecord* rec,
                  size_t* consumed);

/// Appends an encoded batch (LogBuilder output) into PM at `dst` with the
/// two-phase persist discipline: every byte except the final commit marker
/// is stored and persisted first; only then is the marker stored and
/// persisted, as the publication point. A crash between the phases leaves
/// the last entry marker-less, which DecodeEntry rejects — the committed
/// prefix stays replayable and no torn entry is ever trusted. This is the
/// DPM-local equivalent of the KN's single durable one-sided write, used
/// by DINOMO-N's data reorganization (ReconfigProtocol::Reorganize).
Status AppendBatchPm(pm::PmPool* pool, pm::PmPtr dst, const char* data,
                     size_t len,
                     const pm::SourceLoc& loc = pm::SourceLoc::current());

/// Accumulates encoded entries in KN DRAM; the whole batch is then shipped
/// to the DPM segment with one one-sided RDMA write (§3.6, "asynchronous
/// post-processing of writes").
class LogBuilder {
 public:
  explicit LogBuilder(size_t capacity_hint = 64 * 1024);

  /// Appends a PUT; returns the byte offset of the entry within the batch.
  size_t AddPut(uint64_t seq, uint64_t key_hash, const Slice& key,
                const Slice& value);
  /// Appends a DELETE tombstone; returns the entry's byte offset.
  size_t AddDelete(uint64_t seq, uint64_t key_hash, const Slice& key);

  const char* data() const { return buf_.data(); }
  size_t bytes() const { return buf_.size(); }
  size_t entries() const { return entries_; }
  size_t puts() const { return puts_; }

  void Clear();

 private:
  std::string buf_;
  size_t entries_ = 0;
  size_t puts_ = 0;
};

/// Iterates decoded entries over a byte range (a merged batch inside a
/// segment, or a KN's cached copy of one). Stops at the first invalid
/// entry, which is how recovery finds the committed prefix.
class LogIterator {
 public:
  /// `verify_crc` false walks with ParseEntry (see there for when).
  LogIterator(const char* data, size_t len, bool verify_crc = true)
      : data_(data), len_(len), verify_crc_(verify_crc) {}

  /// Advances to the next valid entry. Returns false at end-of-log or at
  /// the first torn entry (check `status()` to distinguish).
  bool Next(LogRecord* rec);

  /// OK at clean end; Corruption if iteration stopped at a torn entry.
  const Status& status() const { return status_; }
  size_t offset() const { return off_; }

 private:
  const char* data_;
  size_t len_;
  bool verify_crc_;
  size_t off_ = 0;
  Status status_;
};

}  // namespace dpm
}  // namespace dinomo

#endif  // DINOMO_DPM_LOG_H_
