#include "kn/search_layer_cache.h"

#include <algorithm>

#include "common/backoff.h"

namespace dinomo {
namespace kn {

namespace {

constexpr int kFetchRetries = 4;

// Storage charged per chunk: its reserved slots plus its index entries.
constexpr size_t kChunkBytes =
    (SearchLayerCache::kChunkLinks + 1) * sizeof(SearchLayerCache::Link) +
    sizeof(std::vector<SearchLayerCache::Link>) + sizeof(uint64_t);

bool LinkBefore(const SearchLayerCache::Link& l, uint64_t okey) {
  return l.okey < okey;
}

}  // namespace

SearchLayerCache::SearchLayerCache(size_t link_budget_bytes) {
  // A split needs a second chunk to evict, so budgets under two chunks
  // learn nothing.
  const size_t chunks = link_budget_bytes / kChunkBytes;
  max_chunks_ = chunks >= 2 ? chunks : 0;
}

void SearchLayerCache::Clear() {
  valid_ = false;
  entries_.clear();
  ClearLinks();
}

void SearchLayerCache::ClearLinks() {
  chunks_.clear();
  chunk_front_.clear();
  num_links_ = 0;
  head_known_ = false;
  head_next_ = pm::kNullPmPtr;
}

Status SearchLayerCache::EnsureFresh(net::Fabric* fabric, int fabric_node,
                                     pm::PmPtr header, uint64_t generation) {
  // Version poll: one 8-byte atomic read, retried a few times when the
  // fabric drops it.
  Result<uint64_t> cur = Status::Unavailable("not attempted");
  const Status polled = RetryTransient(kFetchRetries, [&] {
    cur = fabric->AtomicRead64(
        fabric_node, header + index::PmSkipList::kVersionOffset);
    return cur.status();
  });
  const bool matches =
      valid_ && generation_ == generation && header_ == header;
  if (!polled.ok()) {
    // Every poll failed. A matching cached layer is still safe to use
    // (nodes never move); with nothing cached the caller must fail.
    return matches ? Status::Ok() : polled;
  }
  if (matches) {
    const uint64_t drift =
        *cur >= version_ ? *cur - version_ : version_ - *cur;
    if (drift <= kVersionSlack) return Status::Ok();
  }
  return Rebuild(fabric, fabric_node, header, generation);
}

Status SearchLayerCache::Rebuild(net::Fabric* fabric, int fabric_node,
                                 pm::PmPtr header, uint64_t generation) {
  Result<index::PmSkipList::RemoteHandle> fetched =
      Status::Unavailable("not attempted");
  DINOMO_RETURN_IF_ERROR(RetryTransient(kFetchRetries, [&] {
    fetched = index::PmSkipList::FetchRemoteHandle(fabric, fabric_node,
                                                   header);
    return fetched.status();
  }));
  const index::PmSkipList::RemoteHandle& handle = *fetched;
  if (!handle.valid()) return Status::Corruption("no skiplist at header");

  // Walk the top retained level (every node there is, by definition, part
  // of the search layer) collecting (okey, ptr). One 192-byte one-sided
  // read per tall node; ~1/64 of the list's nodes are tall.
  constexpr int kLevel = index::PmSkipList::kSearchLayerHeight - 1;
  std::vector<Entry> fresh;
  index::PmSkipList::NodeImage img;
  pm::PmPtr p = handle.head;
  bool first = true;
  while (p != pm::kNullPmPtr) {
    DINOMO_RETURN_IF_ERROR(RetryTransient(kFetchRetries, [&] {
      return index::PmSkipList::ReadRemoteNode(fabric, fabric_node, p, &img);
    }));
    if (!first) fresh.push_back(Entry{img.okey, p});
    first = false;
    p = static_cast<int>(img.height) > kLevel ? img.next[kLevel]
                                              : pm::kNullPmPtr;
  }

  // Links learned under another placement or list may name nodes of a
  // different pool; a mere version change keeps them (nodes never move).
  if (generation_ != generation || header_ != header) ClearLinks();
  entries_ = std::move(fresh);
  valid_ = true;
  generation_ = generation;
  version_ = handle.version;
  header_ = header;
  head_ = handle.head;
  rebuilds_++;
  return Status::Ok();
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

bool SearchLayerCache::PredictRun(pm::PmPtr header, uint64_t generation,
                                  uint64_t start_okey, size_t limit,
                                  std::vector<pm::PmPtr>* run) const {
  run->clear();
  if (!valid_ || generation_ != generation || header_ != header ||
      chunks_.empty()) {
    return false;
  }
  // The predecessor: the last link with okey < start_okey, else the head.
  // (c, i) then names the next learned link, if any.
  pm::PmPtr pred = head_;
  pm::PmPtr expect = head_next_;
  size_t c = 0;
  size_t i = 0;
  auto f = std::lower_bound(chunk_front_.begin(), chunk_front_.end(),
                            start_okey);
  if (f != chunk_front_.begin()) {
    c = static_cast<size_t>(f - chunk_front_.begin()) - 1;
    const std::vector<Link>& v = chunks_[c];
    // v.front().okey < start_okey, so the position is past v.begin().
    i = static_cast<size_t>(
            std::lower_bound(v.begin(), v.end(), start_okey, LinkBefore) -
            v.begin()) -
        1;
    pred = v[i].node;
    expect = v[i].next;
    if (++i == v.size()) {
      ++c;
      i = 0;
    }
  } else if (!head_known_) {
    return false;
  }
  if (c == chunks_.size()) {
    // P is the last learned node: exact only if it was the list's tail.
    if (expect != pm::kNullPmPtr) return false;
    run->push_back(pred);
    return true;
  }
  // The successor must be the next learned node; anything else (an
  // unlearned node, or a stale link) leaves the gap to start_okey unknown.
  if (chunks_[c][i].node != expect) return false;
  run->push_back(pred);
  while (c < chunks_.size() && run->size() <= limit) {
    const Link& l = chunks_[c][i];
    if (l.node != expect) break;
    run->push_back(l.node);
    expect = l.next;
    if (++i == chunks_[c].size()) {
      ++c;
      i = 0;
    }
  }
  return true;
}

size_t SearchLayerCache::ChunkFor(uint64_t okey) const {
  auto f = std::upper_bound(chunk_front_.begin(), chunk_front_.end(), okey);
  return f == chunk_front_.begin()
             ? 0
             : static_cast<size_t>(f - chunk_front_.begin()) - 1;
}

void SearchLayerCache::Learn(uint64_t okey, pm::PmPtr node, pm::PmPtr next) {
  if (node == head_) {
    head_known_ = true;
    head_next_ = next;
    return;
  }
  if (max_chunks_ == 0) return;
  if (chunks_.empty()) {
    chunks_.emplace_back().reserve(kChunkLinks + 1);
    chunk_front_.push_back(okey);
  }
  size_t c = ChunkFor(okey);
  std::vector<Link>& v = chunks_[c];
  auto it = std::lower_bound(v.begin(), v.end(), okey, LinkBefore);
  if (it != v.end() && it->okey == okey) {
    // Most images repeat what is known: only a moved link is written.
    if (it->node != node || it->next != next) {
      it->node = node;
      it->next = next;
    }
    return;
  }
  v.insert(it, Link{okey, node, next});
  chunk_front_[c] = v.front().okey;
  ++num_links_;
  if (v.size() <= kChunkLinks) return;

  // Split the full chunk in two, first making room under the budget.
  if (chunks_.size() >= max_chunks_) c = EvictChunk(c);
  std::vector<Link>& full = chunks_[c];
  const size_t half = full.size() / 2;
  std::vector<Link> upper;
  upper.reserve(kChunkLinks + 1);
  upper.assign(full.begin() + static_cast<std::ptrdiff_t>(half), full.end());
  full.resize(half);
  chunk_front_.insert(chunk_front_.begin() + static_cast<std::ptrdiff_t>(c) + 1,
                      upper.front().okey);
  chunks_.insert(chunks_.begin() + static_cast<std::ptrdiff_t>(c) + 1,
                 std::move(upper));
}

size_t SearchLayerCache::EvictChunk(size_t keep) {
  size_t victim = evict_cursor_++ % chunks_.size();
  if (victim == keep) victim = (victim + 1) % chunks_.size();
  num_links_ -= chunks_[victim].size();
  chunks_.erase(chunks_.begin() + static_cast<std::ptrdiff_t>(victim));
  chunk_front_.erase(chunk_front_.begin() +
                     static_cast<std::ptrdiff_t>(victim));
  return victim < keep ? keep - 1 : keep;
}

}  // namespace kn
}  // namespace dinomo
