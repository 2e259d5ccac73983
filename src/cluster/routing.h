#ifndef DINOMO_CLUSTER_ROUTING_H_
#define DINOMO_CLUSTER_ROUTING_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cluster/hash_ring.h"
#include "common/mutex.h"
#include "common/random.h"
#include "common/status.h"

namespace dinomo {
namespace cluster {

/// An immutable snapshot of the cluster's ownership metadata: the global
/// hash ring (key -> KN), the per-KN thread fan-out (the local rings), and
/// the selective-replication table mapping hot keys to their full owner
/// sets (§3.4, "the replication metadata is stored along with the mapping
/// information at RNs and KNs"). Clients, KNs and RNs each hold a
/// shared_ptr to a snapshot; updates swap in a new version.
struct RoutingTable {
  uint64_t version = 0;
  HashRing global_ring;
  int threads_per_kn = 1;
  /// key hash -> owner KN ids (primary first). Only hot, selectively
  /// replicated keys appear here.
  std::unordered_map<uint64_t, std::vector<uint64_t>> replicated;

  /// Primary owner of a key.
  uint64_t PrimaryOwner(uint64_t key_hash) const {
    return global_ring.OwnerOf(key_hash);
  }

  /// All owners of a key (the replica set for hot keys, else just the
  /// primary).
  std::vector<uint64_t> OwnersOf(uint64_t key_hash) const;

  /// True if `kn` may serve this key.
  bool IsOwner(uint64_t key_hash, uint64_t kn) const;

  /// Picks the owner a client should send this request to; replicated
  /// keys spread across their owner set using `salt` (e.g. a per-client
  /// counter).
  uint64_t RouteFor(uint64_t key_hash, uint64_t salt) const;

  /// Worker thread within the chosen KN (the KN's local ring).
  int ThreadFor(uint64_t key_hash, uint64_t kn) const;

  /// Replication factor of a key (1 if unreplicated).
  int ReplicationFactor(uint64_t key_hash) const;
};

/// The routing service the RN exposes (paper Figure 1): keeps the master
/// copy of the routing table and hands out snapshots. Membership and
/// replication changes (driven by the M-node) bump the version. Clients
/// refresh after a WrongOwner rejection; KNs are updated as part of the
/// reconfiguration protocol.
class RoutingService {
 public:
  explicit RoutingService(int threads_per_kn);

  /// Current table snapshot (cheap: shared_ptr copy).
  std::shared_ptr<const RoutingTable> Snapshot() const;

  uint64_t version() const;

  /// Membership changes. Each returns the new version.
  uint64_t AddKn(uint64_t kn);
  uint64_t RemoveKn(uint64_t kn);

  /// Sets the owner set of a hot key (primary first). size>=2 replicates;
  /// size<=1 de-replicates. Returns the new version.
  uint64_t SetReplication(uint64_t key_hash, std::vector<uint64_t> owners);
  uint64_t ClearReplication(uint64_t key_hash);

 private:
  /// Copies the current table, applies `fn`, and publishes the result as
  /// the next version — all under mu_. Every mutator goes through here:
  /// a copy taken outside the lock (snapshot, mutate, publish) would let
  /// two concurrent mutators each copy the same base table and the
  /// second publish silently erase the first's change (lost update; see
  /// RoutingServiceTest.ConcurrentMutatorsDoNotLoseUpdates).
  uint64_t Mutate(const std::function<void(RoutingTable&)>& fn)
      EXCLUDES(mu_);

  mutable Mutex mu_;
  std::shared_ptr<const RoutingTable> table_ GUARDED_BY(mu_);
};

}  // namespace cluster
}  // namespace dinomo

#endif  // DINOMO_CLUSTER_ROUTING_H_
