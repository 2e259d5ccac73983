#include "index/skiplist.h"

#include <cstring>

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

}  // namespace

PmSkipList::PmSkipList(pm::PmPool* pool, pm::PmAllocator* alloc,
                       pm::PmPtr header)
    : pool_(pool), alloc_(alloc), header_ptr_(header) {}

Result<PmSkipList*> PmSkipList::Create(pm::PmPool* pool,
                                       pm::PmAllocator* alloc) {
  auto header_alloc = alloc->Alloc(sizeof(Header));
  if (!header_alloc.ok()) return header_alloc.status();
  auto head_alloc = alloc->Alloc(kNodeBytes);
  if (!head_alloc.ok()) return head_alloc.status();
  const pm::PmPtr header_ptr = header_alloc.value();
  const pm::PmPtr head_ptr = head_alloc.value();

  // Head sentinel: full height, all next pointers null (the allocator
  // zeroes blocks). Its okey/value fields are never compared or read.
  NodeHeader head{};
  head.height = kMaxHeight;
  pool->Store(head_ptr, head);
  pool->Persist(head_ptr, kNodeBytes);

  // Header: fields first, magic published last so recovery never attaches
  // to a half-written header.
  Header h{};
  h.head = head_ptr;
  h.version = 1;
  pool->Store(header_ptr, h);
  pool->Persist(header_ptr, sizeof(Header));
  pool->StoreRelease64(header_ptr + offsetof(Header, magic), kMagic);
  pool->PersistPublish(header_ptr + offsetof(Header, magic), sizeof(uint64_t));

  return new PmSkipList(pool, alloc, header_ptr);
}

Result<PmSkipList*> PmSkipList::Recover(pm::PmPool* pool,
                                        pm::PmAllocator* alloc,
                                        pm::PmPtr header_ptr) {
  if (!pool->Contains(header_ptr, sizeof(Header))) {
    return Status::InvalidArgument("skiplist header outside pool");
  }
  auto* list = new PmSkipList(pool, alloc, header_ptr);
  const Header* h = list->header();
  if (h->magic != kMagic) {
    delete list;
    return Status::Corruption("skiplist header magic mismatch");
  }
  Status st = list->CheckConsistency();
  if (!st.ok()) {
    delete list;
    return st;
  }
  // Recount live entries (the count is volatile state).
  uint64_t count = 0;
  pm::PmPtr p = list->LoadNext(h->head, 0);
  while (p != pm::kNullPmPtr) {
    const NodeHeader* n = list->NodeAt(p);
    if (n->value != pm::kNullPmPtr) count++;
    p = list->LoadNext(p, 0);
  }
  list->count_.store(count, std::memory_order_relaxed);
  // Bump the version so KN search-layer caches built before the crash
  // refetch rather than trusting a layer the failed node may never have
  // finished publishing.
  pool->StoreRelease64(header_ptr + kVersionOffset, h->version + 1);
  pool->Persist(header_ptr + kVersionOffset, sizeof(uint64_t));
  return list;
}

uint64_t PmSkipList::OrderedKey(const char* data, size_t len) {
  uint64_t okey = 0;
  for (size_t i = 0; i < 8; ++i) {
    okey = (okey << 8) |
           (i < len ? static_cast<uint8_t>(data[i]) : 0);
  }
  return okey;
}

pm::PmPtr PmSkipList::LoadNext(pm::PmPtr p, int level) const {
  const uint64_t* addr =
      reinterpret_cast<const uint64_t*>(pool_->Translate(NextPtrAt(p, level)));
  return AtomicAt(addr).load(std::memory_order_acquire);
}

void PmSkipList::FindPreds(uint64_t okey, pm::PmPtr preds[kMaxHeight]) const {
  pm::PmPtr p = header()->head;
  for (int level = kMaxHeight - 1; level >= 0; --level) {
    pm::PmPtr next = LoadNext(p, level);
    while (next != pm::kNullPmPtr && NodeAt(next)->okey < okey) {
      p = next;
      next = LoadNext(p, level);
    }
    preds[level] = p;
  }
}

int PmSkipList::RandomHeight() {
  // Geometric with p = 1/4: ~1/64 of nodes reach kSearchLayerHeight, so
  // the KN-cached search layer stays small relative to the list.
  int h = 1;
  while (h < kMaxHeight && (height_rng_.Next() & 3) == 0) h++;
  return h;
}

Result<pm::PmPtr> PmSkipList::Upsert(uint64_t okey, pm::PmPtr value) {
  return UpsertHashed(okey, /*key_hash=*/0, value);
}

Result<pm::PmPtr> PmSkipList::UpsertHashed(uint64_t okey, uint64_t key_hash,
                                           pm::PmPtr value) {
  SpinLockHolder guard(write_mu_);
  pm::PmPtr preds[kMaxHeight];
  FindPreds(okey, preds);
  const pm::PmPtr candidate = LoadNext(preds[0], 0);
  if (candidate != pm::kNullPmPtr && NodeAt(candidate)->okey == okey) {
    // In-place update (or tombstone revival): publish the 8-byte value.
    NodeHeader* n = NodeAt(candidate);
    const pm::PmPtr old = n->value;
    pool_->StoreRelease64(pool_->OffsetOf(&n->value), value);
    pool_->PersistPublish(pool_->OffsetOf(&n->value), sizeof(uint64_t));
    if (old == pm::kNullPmPtr && value != pm::kNullPmPtr) {
      count_.fetch_add(1, std::memory_order_relaxed);
    }
    return old;
  }

  const int height = RandomHeight();
  auto node_alloc = alloc_->Alloc(kNodeBytes);
  if (!node_alloc.ok()) return node_alloc.status();
  const pm::PmPtr node = node_alloc.value();

  // Step 1: write the whole node — fields and successor pointers — and
  // persist it while it is still unreachable.
  NodeHeader nh{};
  nh.okey = okey;
  nh.value = value;
  nh.height = static_cast<uint64_t>(height);
  nh.key_hash = key_hash;
  pool_->Store(node, nh);
  for (int l = 0; l < height; ++l) {
    pool_->Store(NextPtrAt(node, l), LoadNext(preds[l], l));
  }
  pool_->Persist(node, kNodeBytes);

  // Step 2: publication point — the predecessor's level-0 pointer.
  pool_->StoreRelease64(NextPtrAt(preds[0], 0), node);
  pool_->PersistPublish(NextPtrAt(preds[0], 0), sizeof(uint64_t));

  // Step 3: upper levels, one persisted link at a time. A crash between
  // any two leaves every chain consistent (it merely skips this node).
  for (int l = 1; l < height; ++l) {
    pool_->StoreRelease64(NextPtrAt(preds[l], l), node);
    pool_->Persist(NextPtrAt(preds[l], l), sizeof(uint64_t));
  }

  if (height >= kSearchLayerHeight) {
    // A new search-layer node: let KN caches know theirs is stale.
    pool_->StoreRelease64(header_ptr_ + kVersionOffset, Version() + 1);
    pool_->Persist(header_ptr_ + kVersionOffset, sizeof(uint64_t));
  }
  count_.fetch_add(1, std::memory_order_relaxed);
  return pm::kNullPmPtr;
}

Result<pm::PmPtr> PmSkipList::Remove(uint64_t okey) {
  SpinLockHolder guard(write_mu_);
  pm::PmPtr preds[kMaxHeight];
  FindPreds(okey, preds);
  const pm::PmPtr candidate = LoadNext(preds[0], 0);
  if (candidate == pm::kNullPmPtr || NodeAt(candidate)->okey != okey) {
    return pm::kNullPmPtr;
  }
  NodeHeader* n = NodeAt(candidate);
  const pm::PmPtr old = n->value;
  if (old == pm::kNullPmPtr) return pm::kNullPmPtr;  // already a tombstone
  // Tombstone, never unlink: readers hold no locks, so a node must stay
  // reachable (and its memory never reused) once published.
  pool_->StoreRelease64(pool_->OffsetOf(&n->value), pm::kNullPmPtr);
  pool_->PersistPublish(pool_->OffsetOf(&n->value), sizeof(uint64_t));
  count_.fetch_sub(1, std::memory_order_relaxed);
  return old;
}

bool PmSkipList::ReplaceIf(uint64_t okey, pm::PmPtr expected,
                           pm::PmPtr desired) {
  DINOMO_CHECK(expected != pm::kNullPmPtr && desired != pm::kNullPmPtr);
  SpinLockHolder guard(write_mu_);
  pm::PmPtr preds[kMaxHeight];
  FindPreds(okey, preds);
  const pm::PmPtr candidate = LoadNext(preds[0], 0);
  if (candidate == pm::kNullPmPtr || NodeAt(candidate)->okey != okey) {
    return false;
  }
  NodeHeader* n = NodeAt(candidate);
  if (n->value != expected) return false;
  pool_->StoreRelease64(pool_->OffsetOf(&n->value), desired);
  pool_->PersistPublish(pool_->OffsetOf(&n->value), sizeof(uint64_t));
  return true;
}

pm::PmPtr PmSkipList::Lookup(uint64_t okey) const {
  pm::PmPtr preds[kMaxHeight];
  FindPreds(okey, preds);
  const pm::PmPtr candidate = LoadNext(preds[0], 0);
  if (candidate == pm::kNullPmPtr || NodeAt(candidate)->okey != okey) {
    return pm::kNullPmPtr;
  }
  const uint64_t* vaddr = reinterpret_cast<const uint64_t*>(
      pool_->Translate(candidate + offsetof(NodeHeader, value)));
  return AtomicAt(vaddr).load(std::memory_order_acquire);
}

void PmSkipList::ForEach(
    const std::function<void(uint64_t, pm::PmPtr)>& fn) const {
  ForEachFrom(0, [&fn](uint64_t okey, pm::PmPtr value) {
    fn(okey, value);
    return true;
  });
}

void PmSkipList::ForEachFrom(
    uint64_t start, const std::function<bool(uint64_t, pm::PmPtr)>& fn) const {
  pm::PmPtr preds[kMaxHeight];
  FindPreds(start, preds);
  pm::PmPtr p = LoadNext(preds[0], 0);
  while (p != pm::kNullPmPtr) {
    const NodeHeader* n = NodeAt(p);
    const uint64_t* vaddr = reinterpret_cast<const uint64_t*>(
        pool_->Translate(p + offsetof(NodeHeader, value)));
    const pm::PmPtr value = AtomicAt(vaddr).load(std::memory_order_acquire);
    if (value != pm::kNullPmPtr) {
      if (!fn(n->okey, value)) return;
    }
    p = LoadNext(p, 0);
  }
}

uint64_t PmSkipList::Version() const {
  const uint64_t* addr = reinterpret_cast<const uint64_t*>(
      pool_->Translate(header_ptr_ + kVersionOffset));
  return AtomicAt(addr).load(std::memory_order_acquire);
}

Status PmSkipList::CheckConsistency() const {
  const Header* h = header();
  if (h->magic != kMagic) return Status::Corruption("bad skiplist magic");
  if (!pool_->Contains(h->head, kNodeBytes)) {
    return Status::Corruption("skiplist head outside pool");
  }
  if (NodeAt(h->head)->height != kMaxHeight) {
    return Status::Corruption("skiplist head has wrong height");
  }
  // Level 0: strictly ascending okeys, every pointer in-pool, heights in
  // range. Bounded by the pool capacity so a cycle cannot hang the check.
  const uint64_t max_nodes = pool_->capacity() / kNodeBytes + 1;
  uint64_t seen = 0;
  uint64_t prev_okey = 0;
  bool first = true;
  pm::PmPtr p = LoadNext(h->head, 0);
  while (p != pm::kNullPmPtr) {
    if (!pool_->Contains(p, kNodeBytes)) {
      return Status::Corruption("skiplist node outside pool");
    }
    const NodeHeader* n = NodeAt(p);
    if (n->height < 1 || n->height > kMaxHeight) {
      return Status::Corruption("skiplist node height out of range");
    }
    if (!first && n->okey <= prev_okey) {
      return Status::Corruption("skiplist level 0 not strictly ascending");
    }
    first = false;
    prev_okey = n->okey;
    if (++seen > max_nodes) {
      return Status::Corruption("skiplist level 0 contains a cycle");
    }
    p = LoadNext(p, 0);
  }
  // Upper levels: each chain must be a strictly-ascending subsequence of
  // nodes tall enough to appear there. (A chain may legitimately skip a
  // tall node whose upper links were torn by a crash — level 0 still
  // reaches it.)
  for (int level = 1; level < kMaxHeight; ++level) {
    uint64_t hops = 0;
    prev_okey = 0;
    first = true;
    p = LoadNext(h->head, level);
    while (p != pm::kNullPmPtr) {
      if (!pool_->Contains(p, kNodeBytes)) {
        return Status::Corruption("skiplist upper link outside pool");
      }
      const NodeHeader* n = NodeAt(p);
      if (n->height <= static_cast<uint64_t>(level)) {
        return Status::Corruption("skiplist node linked above its height");
      }
      if (!first && n->okey <= prev_okey) {
        return Status::Corruption("skiplist upper level not ascending");
      }
      first = false;
      prev_okey = n->okey;
      if (++hops > seen) {
        return Status::Corruption("skiplist upper level contains a cycle");
      }
      p = LoadNext(p, level);
    }
  }
  return Status::Ok();
}

Result<PmSkipList::RemoteHandle> PmSkipList::FetchRemoteHandle(
    net::Fabric* fabric, int node, pm::PmPtr header) {
  Header h{};
  DINOMO_RETURN_IF_ERROR(fabric->Read(node, header, &h, sizeof(Header)));
  RemoteHandle handle;
  if (h.magic == kMagic) {
    handle.head = h.head;
    handle.version = h.version;
  }
  return handle;
}

Status PmSkipList::ReadRemoteNode(net::Fabric* fabric, int node,
                                  pm::PmPtr ptr, NodeImage* out) {
  char raw[kNodeBytes] = {};
  DINOMO_RETURN_IF_ERROR(fabric->Read(node, ptr, raw, kNodeBytes));
  if (!DecodeNode(raw, out)) {
    return Status::Corruption("undecodable skiplist node");
  }
  return Status::Ok();
}

bool PmSkipList::DecodeNode(const void* raw, NodeImage* out) {
  struct {
    NodeHeader nh;
    pm::PmPtr next[kMaxHeight];
  } img;
  static_assert(sizeof(img) == kNodeBytes);
  std::memcpy(&img, raw, kNodeBytes);
  if (img.nh.height < 1 || img.nh.height > kMaxHeight) return false;
  out->okey = img.nh.okey;
  out->value = img.nh.value;
  out->height = img.nh.height;
  out->key_hash = img.nh.key_hash;
  std::memcpy(out->next, img.next, sizeof(out->next));
  return true;
}

}  // namespace index
}  // namespace dinomo
