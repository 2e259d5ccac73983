#ifndef DINOMO_PM_PM_ALLOCATOR_H_
#define DINOMO_PM_PM_ALLOCATOR_H_

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "pm/pm_pool.h"

namespace dinomo {
namespace pm {

/// Segregated-fit allocator over a PmPool.
///
/// Allocations are cache-line (64 B) aligned — CLHT buckets require their
/// single-cache-line layout, and log segments want large aligned extents.
/// Small sizes are served from per-class free lists; anything above the
/// largest class falls back to the bump region (and is reusable via an
/// exact-size free list). Allocation happens off the per-request critical
/// path (index resizes, new log segments), so a single lock is sufficient
/// and keeps the metadata simple enough to rebuild after a crash.
class PmAllocator {
 public:
  /// Manages [region_start, region_start + region_size) inside the pool.
  /// region_start must be non-zero (offset 0 is the null PmPtr).
  PmAllocator(PmPool* pool, PmPtr region_start, size_t region_size);

  PmAllocator(const PmAllocator&) = delete;
  PmAllocator& operator=(const PmAllocator&) = delete;

  /// Allocates `size` bytes; returns kNullPmPtr and sets status on
  /// exhaustion. The returned block is 64-byte aligned and zeroed.
  Result<PmPtr> Alloc(size_t size);

  /// Returns a block previously obtained from Alloc.
  void Free(PmPtr p);

  /// Takes over a live block of `size` bytes that a pre-crash allocator
  /// handed out (recovery: a log segment still listed in the directory),
  /// so that Free returns it to this allocator's free lists. Block
  /// headers are volatile, so this stamps the block's header anew.
  void Adopt(PmPtr p, size_t size);

  /// Installs a hook invoked (outside the allocator lock) whenever the
  /// bump pointer grows, with the new absolute high-water offset. The DPM
  /// node persists this into its recovery superblock so a post-crash
  /// allocator can safely resume above all pre-crash allocations.
  void SetHighWaterHook(std::function<void(pm::PmPtr)> hook) {
    high_water_hook_ = std::move(hook);
  }

  /// Bytes currently handed out (allocated minus freed), by user size.
  size_t allocated_bytes() const;
  /// Bytes of the region consumed by the bump pointer so far.
  size_t high_water() const;
  size_t region_size() const { return region_size_; }
  PmPtr region_start() const { return region_start_; }

 private:
  // Size classes: 64 B .. 64 KiB, doubling. Larger blocks use exact-size
  // lists keyed by rounded size.
  static constexpr int kNumClasses = 11;
  static constexpr size_t kMinClass = 64;

  static int ClassFor(size_t size);
  static size_t ClassSize(int cls);
  static size_t RoundUp(size_t size);

  // Block header stored in the 64 bytes before the user block.
  struct BlockHeader {
    uint64_t block_size;  // rounded size of the user block
    uint64_t magic;
  };
  static constexpr uint64_t kMagicAllocated = 0xD1A0C0DEA110CULL;
  static constexpr uint64_t kMagicFree = 0xF7EEF7EEF7EEULL;

  PmPool* pool_;
  PmPtr region_start_;
  size_t region_size_;

  mutable SpinLock mu_;
  PmPtr bump_ GUARDED_BY(mu_);  // next never-allocated offset
  std::array<std::vector<PmPtr>, kNumClasses> free_lists_ GUARDED_BY(mu_);
  // Exact-size free lists for blocks above the largest class.
  std::vector<std::pair<size_t, std::vector<PmPtr>>> large_free_
      GUARDED_BY(mu_);
  size_t allocated_bytes_ GUARDED_BY(mu_) = 0;
  // Installed once before the allocator sees concurrent callers; invoked
  // outside mu_ so the hook may take the DPM node's superblock lock.
  std::function<void(pm::PmPtr)> high_water_hook_;
};

}  // namespace pm
}  // namespace dinomo

#endif  // DINOMO_PM_PM_ALLOCATOR_H_
