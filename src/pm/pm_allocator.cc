#include "pm/pm_allocator.h"

#include <algorithm>

#include "common/logging.h"

namespace dinomo {
namespace pm {

namespace {
constexpr size_t kHeaderSize = kCacheLineSize;
}  // namespace

PmAllocator::PmAllocator(PmPool* pool, PmPtr region_start, size_t region_size)
    : pool_(pool), region_start_(region_start), region_size_(region_size) {
  DINOMO_CHECK(pool != nullptr);
  DINOMO_CHECK(region_start != kNullPmPtr);
  DINOMO_CHECK(region_start % kCacheLineSize == 0);
  DINOMO_CHECK(pool->Contains(region_start, region_size));
  bump_ = region_start_;
}

int PmAllocator::ClassFor(size_t size) {
  size_t cls_size = kMinClass;
  for (int cls = 0; cls < kNumClasses; ++cls) {
    if (size <= cls_size) return cls;
    cls_size <<= 1;
  }
  return -1;  // large allocation
}

size_t PmAllocator::ClassSize(int cls) { return kMinClass << cls; }

size_t PmAllocator::RoundUp(size_t size) {
  const int cls = ClassFor(size);
  if (cls >= 0) return ClassSize(cls);
  return (size + kCacheLineSize - 1) & ~(kCacheLineSize - 1);
}

Result<PmPtr> PmAllocator::Alloc(size_t size) {
  if (size == 0) return Status::InvalidArgument("zero-size allocation");
  const size_t rounded = RoundUp(size);
  const int cls = ClassFor(size);

  PmPtr block = kNullPmPtr;
  PmPtr bumped = kNullPmPtr;
  {
    SpinLockHolder lock(mu_);
    if (cls >= 0) {
      auto& list = free_lists_[cls];
      if (!list.empty()) {
        block = list.back();
        list.pop_back();
      }
    } else {
      for (auto& [list_size, list] : large_free_) {
        if (list_size == rounded && !list.empty()) {
          block = list.back();
          list.pop_back();
          break;
        }
      }
    }
    if (block == kNullPmPtr) {
      const size_t need = kHeaderSize + rounded;
      if (bump_ + need > region_start_ + region_size_) {
        return Status::OutOfMemory("PM region exhausted");
      }
      block = bump_ + kHeaderSize;
      bump_ += need;
      bumped = bump_;
    }
    allocated_bytes_ += rounded;
  }
  if (bumped != kNullPmPtr && high_water_hook_) high_water_hook_(bumped);

  // Allocator metadata is volatile by design: the free lists and block
  // headers are rebuilt from the persisted high-water mark on recovery, so
  // none of these stores needs a persist barrier.
  auto* hdr = reinterpret_cast<BlockHeader*>(
      pool_->Translate(block - kHeaderSize));  // pm-lint: allow(volatile allocator metadata)
  hdr->block_size = rounded;
  hdr->magic = kMagicAllocated;
  std::memset(pool_->Translate(block), 0,
              rounded);  // pm-lint: allow(scratch zeroing, caller persists)
  return block;
}

void PmAllocator::Free(PmPtr p) {
  DINOMO_CHECK(p != kNullPmPtr);
  auto* hdr = reinterpret_cast<BlockHeader*>(
      pool_->Translate(p - kHeaderSize));  // pm-lint: allow(volatile allocator metadata)
  DINOMO_CHECK(hdr->magic == kMagicAllocated);
  hdr->magic = kMagicFree;
  const size_t rounded = hdr->block_size;
  const int cls = ClassFor(rounded);

  SpinLockHolder lock(mu_);
  allocated_bytes_ -= rounded;
  if (cls >= 0 && ClassSize(cls) == rounded) {
    free_lists_[cls].push_back(p);
    return;
  }
  for (auto& [list_size, list] : large_free_) {
    if (list_size == rounded) {
      list.push_back(p);
      return;
    }
  }
  large_free_.emplace_back(rounded, std::vector<PmPtr>{p});
}

void PmAllocator::Adopt(PmPtr p, size_t size) {
  DINOMO_CHECK(p != kNullPmPtr);
  DINOMO_CHECK(pool_->Contains(p - kHeaderSize, kHeaderSize + size));
  const size_t rounded = RoundUp(size);
  auto* hdr = reinterpret_cast<BlockHeader*>(
      pool_->Translate(p - kHeaderSize));  // pm-lint: allow(volatile allocator metadata)
  hdr->block_size = rounded;
  hdr->magic = kMagicAllocated;
  SpinLockHolder lock(mu_);
  allocated_bytes_ += rounded;
}

size_t PmAllocator::allocated_bytes() const {
  SpinLockHolder lock(mu_);
  return allocated_bytes_;
}

size_t PmAllocator::high_water() const {
  SpinLockHolder lock(mu_);
  return bump_ - region_start_;
}

}  // namespace pm
}  // namespace dinomo
