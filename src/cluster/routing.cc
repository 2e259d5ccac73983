#include "cluster/routing.h"

#include <algorithm>

#include "common/hash.h"
#include "common/logging.h"

namespace dinomo {
namespace cluster {

std::vector<uint64_t> RoutingTable::OwnersOf(uint64_t key_hash) const {
  auto it = replicated.find(key_hash);
  if (it != replicated.end() && !it->second.empty()) return it->second;
  return {PrimaryOwner(key_hash)};
}

bool RoutingTable::IsOwner(uint64_t key_hash, uint64_t kn) const {
  auto it = replicated.find(key_hash);
  if (it != replicated.end()) {
    return std::find(it->second.begin(), it->second.end(), kn) !=
           it->second.end();
  }
  return PrimaryOwner(key_hash) == kn;
}

uint64_t RoutingTable::RouteFor(uint64_t key_hash, uint64_t salt) const {
  auto it = replicated.find(key_hash);
  if (it != replicated.end() && !it->second.empty()) {
    return it->second[salt % it->second.size()];
  }
  return PrimaryOwner(key_hash);
}

int RoutingTable::ThreadFor(uint64_t key_hash, uint64_t kn) const {
  if (threads_per_kn <= 1) return 0;
  // Local ring: deterministic key -> thread mapping within the KN.
  return static_cast<int>(Mix64(key_hash ^ (kn * 0x9e3779b97f4a7c15ULL)) %
                          static_cast<uint64_t>(threads_per_kn));
}

int RoutingTable::ReplicationFactor(uint64_t key_hash) const {
  auto it = replicated.find(key_hash);
  if (it == replicated.end()) return 1;
  return static_cast<int>(std::max<size_t>(1, it->second.size()));
}

RoutingService::RoutingService(int threads_per_kn) {
  auto table = std::make_shared<RoutingTable>();
  table->version = 0;
  table->threads_per_kn = threads_per_kn;
  table_ = std::move(table);
}

std::shared_ptr<const RoutingTable> RoutingService::Snapshot() const {
  MutexLock lock(mu_);
  return table_;
}

uint64_t RoutingService::version() const {
  MutexLock lock(mu_);
  return table_->version;
}

uint64_t RoutingService::Mutate(
    const std::function<void(RoutingTable&)>& fn) {
  // Copy, mutate and publish under one critical section so concurrent
  // mutators serialize on the whole read-modify-write, not just the
  // publish (see routing.h).
  MutexLock lock(mu_);
  RoutingTable next = *table_;
  fn(next);
  next.version = table_->version + 1;
  table_ = std::make_shared<const RoutingTable>(std::move(next));
  return table_->version;
}

uint64_t RoutingService::AddKn(uint64_t kn) {
  return Mutate([kn](RoutingTable& next) { next.global_ring.AddNode(kn); });
}

uint64_t RoutingService::RemoveKn(uint64_t kn) {
  return Mutate([kn](RoutingTable& next) {
    next.global_ring.RemoveNode(kn);
    // Drop the departed KN from every replica set.
    for (auto it = next.replicated.begin(); it != next.replicated.end();) {
      auto& owners = it->second;
      owners.erase(std::remove(owners.begin(), owners.end(), kn),
                   owners.end());
      if (owners.empty()) {
        it = next.replicated.erase(it);
      } else {
        ++it;
      }
    }
  });
}

uint64_t RoutingService::SetReplication(uint64_t key_hash,
                                        std::vector<uint64_t> owners) {
  return Mutate([key_hash, &owners](RoutingTable& next) {
    if (owners.size() <= 1) {
      next.replicated.erase(key_hash);
    } else {
      next.replicated[key_hash] = std::move(owners);
    }
  });
}

uint64_t RoutingService::ClearReplication(uint64_t key_hash) {
  return Mutate(
      [key_hash](RoutingTable& next) { next.replicated.erase(key_hash); });
}

}  // namespace cluster
}  // namespace dinomo
