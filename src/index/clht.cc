#include "index/clht.h"

#include <cstring>

#include "common/hash.h"
#include "common/logging.h"

namespace dinomo {
namespace index {

namespace {

inline std::atomic_ref<uint64_t> AtomicAt(uint64_t* p) {
  return std::atomic_ref<uint64_t>(*p);
}
inline std::atomic_ref<const uint64_t> AtomicAt(const uint64_t* p) {
  return std::atomic_ref<const uint64_t>(*p);
}

inline uint64_t PackHeader(uint64_t epoch, int log2_buckets) {
  return (epoch << 8) | static_cast<uint64_t>(log2_buckets);
}
inline uint64_t EpochOf(uint64_t packed) { return packed >> 8; }
inline int Log2Of(uint64_t packed) { return static_cast<int>(packed & 0xff); }

// Remote readers: header snapshots tried before giving up on a table that
// keeps resizing, the largest bucket-array log2 whose byte size (64-byte
// buckets) fits in 63 bits, and the chain length taken as a cycle.
constexpr int kHeaderSnapshotAttempts = 8;
constexpr int kMaxRemoteLog2Buckets = 63 - 6;
constexpr uint32_t kMaxRemoteHops = 1u << 20;

// Resize triggers: occupancy or an over-long chain.
constexpr double kMaxLoadFactor = 0.70;
constexpr uint64_t kMaxChainTrigger = 4;

}  // namespace

Clht::Clht(pm::PmPool* pool, pm::PmAllocator* alloc, pm::PmPtr header)
    : pool_(pool), alloc_(alloc), header_ptr_(header) {}

Clht::~Clht() = default;

Result<Clht*> Clht::Create(pm::PmPool* pool, pm::PmAllocator* alloc,
                           int log2_buckets) {
  DINOMO_CHECK(log2_buckets >= 1 && log2_buckets < 40);
  auto header_alloc = alloc->Alloc(sizeof(Header));
  if (!header_alloc.ok()) return header_alloc.status();
  const uint64_t num_buckets = 1ULL << log2_buckets;
  auto buckets_alloc = alloc->Alloc(num_buckets * sizeof(Bucket));
  if (!buckets_alloc.ok()) return buckets_alloc.status();

  auto* table = new Clht(pool, alloc, header_alloc.value());
  Header h{};
  h.buckets = buckets_alloc.value();
  h.count = 0;
  h.resize_lock = 0;
  h.packed = PackHeader(/*epoch=*/1, log2_buckets);
  pool->Store(header_alloc.value(), h);
  pool->Persist(header_alloc.value(), sizeof(Header));
  // Bucket array was zeroed by the allocator; persist it so recovery sees
  // empty (not garbage) buckets.
  pool->Persist(buckets_alloc.value(), num_buckets * sizeof(Bucket));
  return table;
}

Result<Clht*> Clht::Recover(pm::PmPool* pool, pm::PmAllocator* alloc,
                            pm::PmPtr header_ptr) {
  if (!pool->Contains(header_ptr, sizeof(Header))) {
    return Status::InvalidArgument("header outside pool");
  }
  auto* table = new Clht(pool, alloc, header_ptr);
  Header* h = table->header();
  // A crash may have interrupted a resize: the resize lock is volatile
  // state; clear it. (The pre-resize table stays authoritative until the
  // new packed header was persisted, which is the last resize step.)
  h->resize_lock = 0;  // volatile lock word; the PersistAddr below covers it
  pool->PersistAddr(h, sizeof(Header));
  Status st = table->CheckConsistency();
  if (!st.ok()) {
    delete table;
    return st;
  }
  // Recompute the live-entry count, and clear bucket lock words: locks
  // are volatile state, but a bucket's line is flushed while its writer
  // still holds the lock, so the durable image can contain held locks.
  const TableView view = table->CurrentView();
  uint64_t count = 0;
  for (uint64_t i = 0; i < view.num_buckets; ++i) {
    Bucket* b = table->BucketAt(view.buckets, i);
    while (true) {
      b->lock = 0;
      for (int s = 0; s < kSlotsPerBucket; ++s) {
        if (b->keys[s] != 0) count++;
      }
      if (b->next == pm::kNullPmPtr) break;
      b = reinterpret_cast<Bucket*>(pool->Translate(b->next));
    }
  }
  table->count_.store(count, std::memory_order_relaxed);
  return table;
}

Clht::TableView Clht::CurrentView() const {
  const Header* h = header();
  while (true) {
    const uint64_t p1 = AtomicAt(&h->packed).load(std::memory_order_acquire);
    const pm::PmPtr buckets =
        AtomicAt(&h->buckets).load(std::memory_order_acquire);
    const uint64_t p2 = AtomicAt(&h->packed).load(std::memory_order_acquire);
    if (p1 == p2) {
      return TableView{EpochOf(p1), buckets, 1ULL << Log2Of(p1)};
    }
  }
}

void Clht::LockBucket(Bucket* b) {
  auto lock = AtomicAt(&b->lock);
  while (true) {
    uint64_t expected = 0;
    if (lock.compare_exchange_weak(expected, 1, std::memory_order_acquire)) {
      return;
    }
    while (lock.load(std::memory_order_relaxed) != 0) {
      // spin
    }
  }
}

bool Clht::TryLockBucket(Bucket* b) {
  uint64_t expected = 0;
  return AtomicAt(&b->lock).compare_exchange_strong(
      expected, 1, std::memory_order_acquire);
}

void Clht::UnlockBucket(Bucket* b) {
  AtomicAt(&b->lock).store(0, std::memory_order_release);
}

Result<pm::PmPtr> Clht::Upsert(uint64_t key, pm::PmPtr value) {
  DINOMO_CHECK(key != 0);
  DINOMO_CHECK(value != pm::kNullPmPtr);
  while (true) {
    const TableView view = CurrentView();
    const uint64_t idx = Mix64(key) & (view.num_buckets - 1);
    Bucket* head = BucketAt(view.buckets, idx);
    LockBucket(head);
    // The table may have been swapped while we were acquiring the lock.
    if (CurrentView().epoch != view.epoch) {
      UnlockBucket(head);
      continue;
    }

    Bucket* b = head;
    Bucket* empty_bucket = nullptr;
    int empty_slot = -1;
    uint64_t chain_len = 1;
    while (true) {
      for (int s = 0; s < kSlotsPerBucket; ++s) {
        if (b->keys[s] == key) {
          // Log-free in-place update: atomically swing the value pointer.
          const pm::PmPtr old = b->vals[s];
          pool_->StoreRelease64(pool_->OffsetOf(&b->vals[s]), value);
          pool_->PersistAddr(b, sizeof(Bucket));
          UnlockBucket(head);
          return old;
        }
        if (b->keys[s] == 0 && empty_slot < 0) {
          empty_bucket = b;
          empty_slot = s;
        }
      }
      if (b->next == pm::kNullPmPtr) break;
      b = reinterpret_cast<Bucket*>(pool_->Translate(b->next));
      chain_len++;
    }

    if (empty_slot >= 0) {
      // Value before key, single cache-line flush: a reader that sees the
      // key sees the value, and a crash never exposes key-without-value.
      pool_->StoreRelease64(pool_->OffsetOf(&empty_bucket->vals[empty_slot]),
                            value);
      pool_->StoreRelease64(pool_->OffsetOf(&empty_bucket->keys[empty_slot]),
                            key);
      pool_->PersistAddr(empty_bucket, sizeof(Bucket));
    } else {
      // Chain a fresh overflow bucket; initialize and persist it before
      // publishing the next pointer — the persisted next pointer is what
      // makes the bucket reachable, i.e. a publication point.
      auto nb = alloc_->Alloc(sizeof(Bucket));
      if (!nb.ok()) {
        UnlockBucket(head);
        return nb.status();
      }
      Bucket fresh{};
      fresh.vals[0] = value;
      fresh.keys[0] = key;
      pool_->Store(nb.value(), fresh);
      pool_->Persist(nb.value(), sizeof(Bucket));
      pool_->StoreRelease64(pool_->OffsetOf(&b->next), nb.value());
      pool_->PersistPublishAddr(b, sizeof(Bucket));
      chain_len++;
    }
    count_.fetch_add(1, std::memory_order_relaxed);
    uint64_t prev_max = max_chain_.load(std::memory_order_relaxed);
    while (chain_len > prev_max &&
           !max_chain_.compare_exchange_weak(prev_max, chain_len,
                                             std::memory_order_relaxed)) {
    }
    UnlockBucket(head);
    MaybeResize(chain_len);
    return pm::kNullPmPtr;
  }
}

Result<pm::PmPtr> Clht::Remove(uint64_t key) {
  DINOMO_CHECK(key != 0);
  while (true) {
    const TableView view = CurrentView();
    const uint64_t idx = Mix64(key) & (view.num_buckets - 1);
    Bucket* head = BucketAt(view.buckets, idx);
    LockBucket(head);
    if (CurrentView().epoch != view.epoch) {
      UnlockBucket(head);
      continue;
    }
    Bucket* b = head;
    while (true) {
      for (int s = 0; s < kSlotsPerBucket; ++s) {
        if (b->keys[s] == key) {
          const pm::PmPtr old = b->vals[s];
          pool_->StoreRelease64(pool_->OffsetOf(&b->keys[s]), 0);
          pool_->PersistAddr(b, sizeof(Bucket));
          count_.fetch_sub(1, std::memory_order_relaxed);
          UnlockBucket(head);
          return old;
        }
      }
      if (b->next == pm::kNullPmPtr) break;
      b = reinterpret_cast<Bucket*>(pool_->Translate(b->next));
    }
    UnlockBucket(head);
    return pm::kNullPmPtr;
  }
}

bool Clht::ReplaceIf(uint64_t key, pm::PmPtr expected, pm::PmPtr desired) {
  DINOMO_CHECK(key != 0);
  DINOMO_CHECK(desired != pm::kNullPmPtr);
  while (true) {
    const TableView view = CurrentView();
    const uint64_t idx = Mix64(key) & (view.num_buckets - 1);
    Bucket* head = BucketAt(view.buckets, idx);
    LockBucket(head);
    if (CurrentView().epoch != view.epoch) {
      UnlockBucket(head);
      continue;
    }
    for (Bucket* b = head;;) {
      for (int s = 0; s < kSlotsPerBucket; ++s) {
        if (b->keys[s] != key) continue;
        const bool match = b->vals[s] == expected;
        if (match) {
          // The caller persisted what `desired` points at: publication.
          pool_->StoreRelease64(pool_->OffsetOf(&b->vals[s]), desired);
          pool_->PersistPublishAddr(b, sizeof(Bucket));
        }
        UnlockBucket(head);
        return match;
      }
      if (b->next == pm::kNullPmPtr) break;
      b = reinterpret_cast<Bucket*>(pool_->Translate(b->next));
    }
    UnlockBucket(head);
    return false;
  }
}

pm::PmPtr Clht::Lookup(uint64_t key) const {
  DINOMO_CHECK(key != 0);
  while (true) {
    const TableView view = CurrentView();
    const uint64_t idx = Mix64(key) & (view.num_buckets - 1);
    const Bucket* b = BucketAt(view.buckets, idx);
    bool retry = false;
    while (true) {
      for (int s = 0; s < kSlotsPerBucket; ++s) {
        const uint64_t k =
            AtomicAt(&b->keys[s]).load(std::memory_order_acquire);
        if (k != key) continue;
        const pm::PmPtr v =
            AtomicAt(&b->vals[s]).load(std::memory_order_acquire);
        // Atomic snapshot: re-validate the key after reading the value.
        if (AtomicAt(&b->keys[s]).load(std::memory_order_acquire) == key) {
          return v;
        }
        retry = true;
        break;
      }
      if (retry) break;
      const pm::PmPtr next =
          AtomicAt(&b->next).load(std::memory_order_acquire);
      if (next == pm::kNullPmPtr) break;
      b = reinterpret_cast<const Bucket*>(pool_->Translate(next));
    }
    if (retry) continue;
    // A concurrent resize may have migrated the key past us.
    if (CurrentView().epoch != view.epoch) continue;
    return pm::kNullPmPtr;
  }
}

uint64_t Clht::Count() const { return count_.load(std::memory_order_relaxed); }

uint64_t Clht::NumBuckets() const { return CurrentView().num_buckets; }

uint64_t Clht::Epoch() const { return CurrentView().epoch; }

void Clht::MaybeResize(uint64_t chain_len) {
  const TableView view = CurrentView();
  const uint64_t capacity = view.num_buckets * kSlotsPerBucket;
  const bool over_loaded =
      Count() > static_cast<uint64_t>(capacity * kMaxLoadFactor);
  if (over_loaded || chain_len >= kMaxChainTrigger) DoResize();
}

void Clht::DoResize() {
  Header* h = header();
  uint64_t expected = 0;
  if (!AtomicAt(&h->resize_lock)
           .compare_exchange_strong(expected, 1, std::memory_order_acquire)) {
    return;  // another thread is resizing
  }

  const TableView view = CurrentView();
  const uint64_t old_n = view.num_buckets;
  const int new_log2 = Log2Of(AtomicAt(&h->packed).load(
                           std::memory_order_acquire)) + 1;
  const uint64_t new_n = old_n * 2;

  auto new_alloc = alloc_->Alloc(new_n * sizeof(Bucket));
  if (!new_alloc.ok()) {
    // Out of PM for a bigger array: live with longer chains.
    AtomicAt(&h->resize_lock).store(0, std::memory_order_release);
    return;
  }
  const pm::PmPtr new_array = new_alloc.value();

  // Block writers by holding every head-bucket lock of the old array,
  // then rehash. Readers continue lock-free against the old array and
  // re-validate the epoch when they finish.
  for (uint64_t i = 0; i < old_n; ++i) LockBucket(BucketAt(view.buckets, i));

  std::vector<pm::PmPtr> old_overflow;
  for (uint64_t i = 0; i < old_n; ++i) {
    const Bucket* b = BucketAt(view.buckets, i);
    while (true) {
      for (int s = 0; s < kSlotsPerBucket; ++s) {
        if (b->keys[s] != 0) {
          RehashInsert(new_array, new_n, b->keys[s], b->vals[s]);
        }
      }
      if (b->next == pm::kNullPmPtr) break;
      old_overflow.push_back(b->next);
      b = reinterpret_cast<const Bucket*>(pool_->Translate(b->next));
    }
  }
  // One bulk flush makes every rehashed main-array line durable;
  // RehashInsert deliberately skips per-line persists for them.
  pool_->Persist(new_array, new_n * sizeof(Bucket));

  // Publish: buckets pointer first, then the packed epoch/size word, then
  // ONE persist of the header line. Both words share the cache line, so the
  // single line-granular flush commits them atomically: recovery sees
  // either the fully-old or fully-new (array, size, epoch) pair. Persisting
  // between the two stores would expose a torn header — new array with the
  // old size mask — at that crash point (the crash-point sweep in
  // clht_test.cc covers every resize boundary).
  pool_->StoreRelease64(pool_->OffsetOf(&h->buckets), new_array);
  pool_->StoreRelease64(pool_->OffsetOf(&h->packed),
                        PackHeader(view.epoch + 1, new_log2));
  pool_->PersistPublishAddr(h, sizeof(Header));

  for (uint64_t i = 0; i < old_n; ++i) {
    UnlockBucket(BucketAt(view.buckets, i));
  }

  {
    SpinLockHolder lock(retired_mu_);
    retired_.push_back(view.buckets);
    for (pm::PmPtr p : old_overflow) retired_.push_back(p);
  }
  AtomicAt(&h->resize_lock).store(0, std::memory_order_release);
  resizes_.fetch_add(1, std::memory_order_relaxed);
}

void Clht::RehashInsert(pm::PmPtr array, uint64_t num_buckets, uint64_t key,
                        pm::PmPtr value) {
  const uint64_t idx = Mix64(key) & (num_buckets - 1);
  const auto in_main_array = [&](const Bucket* b) {
    const pm::PmPtr off = pool_->OffsetOf(b);
    return off >= array && off < array + num_buckets * sizeof(Bucket);
  };
  Bucket* b = BucketAt(array, idx);
  while (true) {
    for (int s = 0; s < kSlotsPerBucket; ++s) {
      if (b->keys[s] == 0) {
        pool_->StoreRelease64(pool_->OffsetOf(&b->vals[s]), value);
        pool_->StoreRelease64(pool_->OffsetOf(&b->keys[s]), key);
        // Main-array lines are covered by DoResize's one bulk persist —
        // flushing each of them here too would double the resize's PM
        // write traffic (the checker's redundant-flush rule flags it).
        // Overflow buckets live outside that bulk range and must be
        // flushed per line.
        if (!in_main_array(b)) pool_->PersistAddr(b, sizeof(Bucket));
        return;
      }
    }
    if (b->next == pm::kNullPmPtr) {
      auto nb = alloc_->Alloc(sizeof(Bucket));
      DINOMO_CHECK(nb.ok());  // resize sized the region; treat as fatal
      Bucket fresh{};
      fresh.vals[0] = value;
      fresh.keys[0] = key;
      pool_->Store(nb.value(), fresh);
      pool_->Persist(nb.value(), sizeof(Bucket));
      pool_->StoreRelease64(pool_->OffsetOf(&b->next), nb.value());
      if (!in_main_array(b)) pool_->PersistAddr(b, sizeof(Bucket));
      return;
    }
    b = reinterpret_cast<Bucket*>(pool_->Translate(b->next));
  }
}

Status Clht::CheckConsistency() const {
  const TableView view = CurrentView();
  if (!pool_->Contains(view.buckets, view.num_buckets * sizeof(Bucket))) {
    return Status::Corruption("bucket array outside pool");
  }
  for (uint64_t i = 0; i < view.num_buckets; ++i) {
    const Bucket* b = BucketAt(view.buckets, i);
    uint64_t chain = 0;
    while (true) {
      for (int s = 0; s < kSlotsPerBucket; ++s) {
        if (b->keys[s] != 0) {
          // Values are opaque 64-bit payloads (the KVS packs size bits
          // into them); the only structural invariant is non-null —
          // writers store the value slot before the key slot.
          if (b->vals[s] == pm::kNullPmPtr) {
            return Status::Corruption("live key with null value");
          }
        }
      }
      if (b->next == pm::kNullPmPtr) break;
      if (!pool_->Contains(b->next, sizeof(Bucket))) {
        return Status::Corruption("chain pointer outside pool");
      }
      if (++chain > (1u << 20)) {
        return Status::Corruption("chain cycle suspected");
      }
      b = reinterpret_cast<const Bucket*>(pool_->Translate(b->next));
    }
  }
  return Status::Ok();
}

void Clht::ForEach(
    const std::function<void(uint64_t, pm::PmPtr)>& fn) const {
  const TableView view = CurrentView();
  for (uint64_t i = 0; i < view.num_buckets; ++i) {
    const Bucket* b = BucketAt(view.buckets, i);
    while (true) {
      for (int s = 0; s < kSlotsPerBucket; ++s) {
        if (b->keys[s] != 0) fn(b->keys[s], b->vals[s]);
      }
      if (b->next == pm::kNullPmPtr) break;
      b = reinterpret_cast<const Bucket*>(pool_->Translate(b->next));
    }
  }
}

void Clht::FreeRetiredTables() {
  std::vector<pm::PmPtr> to_free;
  {
    SpinLockHolder lock(retired_mu_);
    to_free.swap(retired_);
  }
  for (pm::PmPtr p : to_free) alloc_->Free(p);
}

Result<Clht::RemoteHandle> Clht::FetchRemoteHandle(net::Fabric* fabric,
                                                   int node) const {
  // Reads of the header line until two consecutive snapshots agree (a
  // resize swaps the pointer and the packed word in between).
  Header prev;
  DINOMO_RETURN_IF_ERROR(
      fabric->Read(node, header_ptr_, &prev, sizeof(Header)));
  for (int attempt = 0; attempt < kHeaderSnapshotAttempts; ++attempt) {
    Header cur;
    DINOMO_RETURN_IF_ERROR(
        fabric->Read(node, header_ptr_, &cur, sizeof(Header)));
    if (cur.packed != prev.packed || cur.buckets != prev.buckets) {
      prev = cur;
      continue;
    }
    // The bytes came off the wire: a bucket count whose array could not
    // be addressed (or whose shift is undefined) is corruption.
    const int log2 = Log2Of(cur.packed);
    if (log2 > kMaxRemoteLog2Buckets) {
      return Status::Corruption("index header bucket count out of range");
    }
    return RemoteHandle{EpochOf(cur.packed), cur.buckets, 1ULL << log2};
  }
  return Status::Busy("index header kept changing");
}

Result<Clht::RemoteResult> Clht::RemoteLookup(net::Fabric* fabric, int node,
                                              const RemoteHandle& handle,
                                              uint64_t key) const {
  DINOMO_CHECK(handle.valid());
  RemoteResult result;
  const uint64_t idx = Mix64(key) & (handle.num_buckets - 1);
  pm::PmPtr bucket_ptr = handle.buckets + idx * sizeof(Bucket);
  Bucket local;
  while (bucket_ptr != pm::kNullPmPtr) {
    DINOMO_RETURN_IF_ERROR(
        fabric->Read(node, bucket_ptr, &local, sizeof(Bucket)));
    if (++result.hops > kMaxRemoteHops) {
      return Status::Corruption("index chain cycle suspected");
    }
    for (int s = 0; s < kSlotsPerBucket; ++s) {
      if (local.keys[s] == key) {
        result.found = true;
        result.value = local.vals[s];
        return result;
      }
    }
    bucket_ptr = local.next;
  }
  return result;
}

}  // namespace index
}  // namespace dinomo
