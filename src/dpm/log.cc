#include "dpm/log.h"

#include <cstddef>
#include <cstring>

#include "common/hash.h"
#include "common/logging.h"

namespace dinomo {
namespace dpm {

namespace {

// On-wire entry header. The commit marker is the last byte of the entry.
struct EntryHeader {
  uint32_t entry_size;  // total entry bytes (header + payload + marker + pad)
  uint32_t crc;         // CRC-32C over [op..value]
  uint64_t seq;
  uint64_t key_hash;
  uint32_t key_len;
  uint32_t value_len;
  uint8_t op;
  uint8_t pad[7];
};
static_assert(sizeof(EntryHeader) == 40);

constexpr char kCommitMarker = static_cast<char>(0xC7);

inline size_t AlignUp8(size_t n) { return (n + 7) & ~size_t{7}; }

}  // namespace

ValuePtr ValuePtr::Pack(pm::PmPtr offset, uint32_t entry_size, bool indirect) {
  DINOMO_CHECK(offset <= kOffsetMask);
  DINOMO_CHECK(entry_size % 8 == 0);
  const uint64_t size_q = entry_size / 8;
  DINOMO_CHECK(size_q <= kSizeMask);
  uint64_t raw = (indirect ? (1ULL << 63) : 0) |
                 (size_q << kSizeShift) | offset;
  return ValuePtr(raw);
}

size_t EncodedEntrySize(size_t key_len, size_t value_len) {
  // Header + key + value + commit marker, rounded up to 8 bytes.
  return AlignUp8(sizeof(EntryHeader) + key_len + value_len + 1);
}

size_t EncodeEntry(char* buf, LogOp op, uint64_t seq, uint64_t key_hash,
                   const Slice& key, const Slice& value) {
  DINOMO_CHECK(key.size() <= kMaxKeySize);
  DINOMO_CHECK(value.size() <= kMaxValueSize);
  const size_t total = EncodedEntrySize(key.size(), value.size());

  EntryHeader hdr{};
  hdr.entry_size = static_cast<uint32_t>(total);
  hdr.seq = seq;
  hdr.key_hash = key_hash;
  hdr.key_len = static_cast<uint32_t>(key.size());
  hdr.value_len = static_cast<uint32_t>(value.size());
  hdr.op = static_cast<uint8_t>(op);

  char* p = buf + sizeof(EntryHeader);
  std::memcpy(p, key.data(), key.size());
  std::memcpy(p + key.size(), value.data(), value.size());

  // CRC covers the payload plus the ordering/identity fields.
  uint32_t crc = Crc32c(p, key.size() + value.size());
  crc ^= static_cast<uint32_t>(Mix64(seq ^ key_hash ^ hdr.op));
  hdr.crc = crc;
  std::memcpy(buf, &hdr, sizeof(EntryHeader));

  // Zero padding, then the commit marker as the very last byte: a reader
  // (or recovery) only trusts an entry whose marker is present.
  char* tail = p + key.size() + value.size();
  std::memset(tail, 0, buf + total - tail);
  buf[total - 1] = kCommitMarker;
  return total;
}

Status ParseEntry(const char* buf, size_t avail, LogRecord* rec,
                  size_t* consumed) {
  if (avail < sizeof(EntryHeader)) {
    // A short all-zero tail is a clean end of log; anything else is torn.
    for (size_t i = 0; i < avail; ++i) {
      if (buf[i] != 0) return Status::Corruption("truncated entry header");
    }
    return Status::NotFound("end of log");
  }
  EntryHeader hdr;
  std::memcpy(&hdr, buf, sizeof(EntryHeader));
  if (hdr.entry_size == 0) {
    return Status::NotFound("end of log");  // zeroed region: clean end
  }
  if (hdr.entry_size < sizeof(EntryHeader) + 1 || hdr.entry_size > avail ||
      hdr.entry_size % 8 != 0) {
    return Status::Corruption("bad entry size");
  }
  if (hdr.key_len > kMaxKeySize || hdr.value_len > kMaxValueSize ||
      sizeof(EntryHeader) + hdr.key_len + hdr.value_len + 1 >
          hdr.entry_size) {
    return Status::Corruption("bad key/value lengths");
  }
  if (buf[hdr.entry_size - 1] != kCommitMarker) {
    return Status::Corruption("missing commit marker");
  }
  if (hdr.op != static_cast<uint8_t>(LogOp::kPut) &&
      hdr.op != static_cast<uint8_t>(LogOp::kDelete)) {
    return Status::Corruption("unknown log op");
  }
  const char* payload = buf + sizeof(EntryHeader);
  rec->op = static_cast<LogOp>(hdr.op);
  rec->seq = hdr.seq;
  rec->key_hash = hdr.key_hash;
  rec->key = Slice(payload, hdr.key_len);
  rec->value = Slice(payload + hdr.key_len, hdr.value_len);
  *consumed = hdr.entry_size;
  return Status::Ok();
}

Status DecodeEntry(const char* buf, size_t avail, LogRecord* rec,
                   size_t* consumed) {
  DINOMO_RETURN_IF_ERROR(ParseEntry(buf, avail, rec, consumed));
  uint32_t stored = 0;
  std::memcpy(&stored, buf + offsetof(EntryHeader, crc), sizeof(stored));
  uint32_t crc = Crc32c(rec->key.data(), rec->key.size() + rec->value.size());
  crc ^= static_cast<uint32_t>(
      Mix64(rec->seq ^ rec->key_hash ^ static_cast<uint8_t>(rec->op)));
  if (crc != stored) return Status::Corruption("entry CRC mismatch");
  return Status::Ok();
}

Status AppendBatchPm(pm::PmPool* pool, pm::PmPtr dst, const char* data,
                     size_t len, const pm::SourceLoc& loc) {
  if (len == 0) return Status::InvalidArgument("empty batch");
  if (!pool->Contains(dst, len)) {
    return Status::InvalidArgument("batch outside pool");
  }
  // A well-formed batch is a concatenation of encoded entries, so its very
  // last byte is the final entry's commit marker.
  if (data[len - 1] != kCommitMarker) {
    return Status::InvalidArgument("batch does not end with a commit marker");
  }
  // Phase 1: payload (everything but the final marker) stored + persisted.
  if (len > 1) {
    pool->StoreBytes(dst, data, len - 1, loc);
    pool->Persist(dst, len - 1, loc);
  }
  // Phase 2: the marker seals the batch; persisting it publishes the
  // payload, so the checker verifies phase 1 really came first.
  pool->StoreBytes(dst + len - 1, data + len - 1, 1, loc);
  pool->PersistPublish(dst + len - 1, 1, loc);
  return Status::Ok();
}

LogBuilder::LogBuilder(size_t capacity_hint) { buf_.reserve(capacity_hint); }

size_t LogBuilder::AddPut(uint64_t seq, uint64_t key_hash, const Slice& key,
                          const Slice& value) {
  const size_t off = buf_.size();
  const size_t need = EncodedEntrySize(key.size(), value.size());
  buf_.resize(off + need);
  EncodeEntry(buf_.data() + off, LogOp::kPut, seq, key_hash, key, value);
  entries_++;
  puts_++;
  return off;
}

size_t LogBuilder::AddDelete(uint64_t seq, uint64_t key_hash,
                             const Slice& key) {
  const size_t off = buf_.size();
  const size_t need = EncodedEntrySize(key.size(), 0);
  buf_.resize(off + need);
  EncodeEntry(buf_.data() + off, LogOp::kDelete, seq, key_hash, key, Slice());
  entries_++;
  return off;
}

void LogBuilder::Clear() {
  buf_.clear();
  entries_ = 0;
  puts_ = 0;
}

bool LogIterator::Next(LogRecord* rec) {
  if (off_ >= len_) return false;
  size_t consumed = 0;
  Status st = verify_crc_
                  ? DecodeEntry(data_ + off_, len_ - off_, rec, &consumed)
                  : ParseEntry(data_ + off_, len_ - off_, rec, &consumed);
  if (st.IsNotFound()) return false;  // clean zeroed tail
  if (!st.ok()) {
    status_ = st;
    return false;
  }
  off_ += consumed;
  return true;
}

}  // namespace dpm
}  // namespace dinomo
