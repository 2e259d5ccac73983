#include "kn/search_layer_cache.h"

#include <algorithm>

namespace dinomo {
namespace kn {

namespace {
constexpr int kFetchRetries = 4;
}  // namespace

bool SearchLayerCache::EnsureFresh(net::Fabric* fabric, int fabric_node,
                                   pm::PmPtr header, uint64_t generation) {
  // Version poll: one 8-byte atomic read. A dropped read returns garbage
  // with a parked fault; retry a few times before judging freshness.
  uint64_t cur = 0;
  bool polled = false;
  for (int attempt = 0; attempt < kFetchRetries; ++attempt) {
    (void)net::Fabric::TakePendingFault();
    cur = fabric->AtomicRead64(
        fabric_node, header + index::PmSkipList::kVersionOffset);
    if (!net::Fabric::HasPendingFault()) {
      polled = true;
      break;
    }
    (void)net::Fabric::TakePendingFault();
  }
  const bool matches =
      valid_ && generation_ == generation && header_ == header;
  if (!polled) {
    // The fabric ate every poll. A matching cached layer is still safe to
    // use (nodes never move); with nothing cached the caller must fail.
    return matches;
  }
  if (matches) {
    const uint64_t drift = cur >= version_ ? cur - version_ : version_ - cur;
    if (drift <= kVersionSlack) return true;
  }
  return Rebuild(fabric, fabric_node, header, generation);
}

bool SearchLayerCache::Rebuild(net::Fabric* fabric, int fabric_node,
                               pm::PmPtr header, uint64_t generation) {
  index::PmSkipList::RemoteHandle handle;
  for (int attempt = 0; attempt < kFetchRetries; ++attempt) {
    (void)net::Fabric::TakePendingFault();
    handle = index::PmSkipList::FetchRemoteHandle(fabric, fabric_node,
                                                  header);
    if (!net::Fabric::HasPendingFault() && handle.valid()) break;
    (void)net::Fabric::TakePendingFault();
    handle = index::PmSkipList::RemoteHandle{};
  }
  if (!handle.valid()) return false;

  // Walk the top retained level (every node there is, by definition, part
  // of the search layer) collecting (okey, ptr). One 192-byte one-sided
  // read per tall node; ~1/64 of the list's nodes are tall.
  constexpr int kLevel = index::PmSkipList::kSearchLayerHeight - 1;
  std::vector<Entry> fresh;
  index::PmSkipList::NodeImage img;
  pm::PmPtr p = handle.head;
  bool first = true;
  while (p != pm::kNullPmPtr) {
    bool got = false;
    for (int attempt = 0; attempt < kFetchRetries; ++attempt) {
      (void)net::Fabric::TakePendingFault();
      if (index::PmSkipList::ReadRemoteNode(fabric, fabric_node, p, &img) &&
          !net::Fabric::HasPendingFault()) {
        got = true;
        break;
      }
      (void)net::Fabric::TakePendingFault();
    }
    if (!got) return false;
    if (!first) fresh.push_back(Entry{img.okey, p});
    first = false;
    p = static_cast<int>(img.height) > kLevel ? img.next[kLevel]
                                              : pm::kNullPmPtr;
  }

  entries_ = std::move(fresh);
  valid_ = true;
  generation_ = generation;
  version_ = handle.version;
  header_ = header;
  head_ = handle.head;
  rebuilds_++;
  return true;
}

pm::PmPtr SearchLayerCache::Seek(uint64_t start_okey) const {
  // Last entry with okey < start_okey. The scan's leaf walk starts at the
  // returned node's successor, so a node whose okey equals the start must
  // not be returned: its own row would be skipped.
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), start_okey,
      [](const Entry& e, uint64_t k) { return e.okey < k; });
  if (it == entries_.begin()) return head_;
  return std::prev(it)->node;
}

}  // namespace kn
}  // namespace dinomo
