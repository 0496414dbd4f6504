#ifndef PREGELIX_DATAFLOW_OPS_SORT_BY_NORM_H_
#define PREGELIX_DATAFLOW_OPS_SORT_BY_NORM_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

namespace pregelix {

namespace internal_radix {

/// Buckets at most this long are finished by insertion sort: a counting
/// pass over 256 digits costs more than the handful of compares.
constexpr size_t kInsertionSortMax = 32;

template <typename T, typename NormFn>
void InsertionSortByNorm(T* first, T* last, const NormFn& norm) {
  for (T* i = first + 1; i < last; ++i) {
    T v = std::move(*i);
    const uint64_t k = norm(v);
    T* j = i;
    for (; j > first && norm(*(j - 1)) > k; --j) *j = std::move(*(j - 1));
    *j = std::move(v);
  }
}

/// One American-flag pass: partitions [first, last) in place on the byte at
/// `shift`, then recurses into every bucket on the next lower byte that
/// varies anywhere in the batch (`varying` marks those bits).
template <typename T, typename NormFn>
void RadixPass(T* first, T* last, int shift, uint64_t varying,
               const NormFn& norm) {
  const size_t n = static_cast<size_t>(last - first);
  if (n <= kInsertionSortMax) {
    InsertionSortByNorm(first, last, norm);
    return;
  }
  auto digit = [&](const T& v) {
    return static_cast<unsigned>(norm(v) >> shift) & 0xffu;
  };
  size_t end[256] = {};
  for (T* p = first; p < last; ++p) ++end[digit(*p)];
  size_t next[256];
  size_t sum = 0;
  for (unsigned b = 0; b < 256; ++b) {
    next[b] = sum;
    sum += end[b];
    end[b] = sum;
  }
  // Cycle leader: carry the misplaced item to the next free cell of its
  // bucket, picking up whatever sat there, until the cycle closes.
  for (unsigned b = 0; b < 256; ++b) {
    while (next[b] < end[b]) {
      T v = std::move(first[next[b]]);
      unsigned d = digit(v);
      while (d != b) {
        std::swap(v, first[next[d]++]);
        d = digit(v);
      }
      first[next[b]++] = std::move(v);
    }
  }
  int lower = shift - 8;
  while (lower >= 0 && ((varying >> lower) & 0xffu) == 0) lower -= 8;
  if (lower < 0) return;  // every bucket holds one norm value
  size_t begin = 0;
  for (unsigned b = 0; b < 256; ++b) {
    if (end[b] - begin > 1) {
      RadixPass(first + begin, first + end[b], lower, varying, norm);
    }
    begin = end[b];
  }
}

}  // namespace internal_radix

/// Sorts `items` in place by the 64-bit key `norm(item)`: an in-place MSD
/// radix sort (American flag sort, one byte per level) with insertion sort
/// for small buckets. Bytes that are equal across the whole batch (found
/// from the OR and AND of all keys) are never partitioned on, so 4-byte
/// keys cost at most four passes and all-equal keys one scan. Extra memory
/// is two 256-entry count arrays per level (at most eight levels); nothing
/// grows with the batch (DESIGN.md §13). Not stable: items with equal keys
/// end up in an unspecified (but deterministic) order.
template <typename T, typename NormFn>
void SortByNorm(std::span<T> items, const NormFn& norm) {
  if (items.size() < 2) return;
  uint64_t any = 0;
  uint64_t all = ~uint64_t{0};
  for (const T& v : items) {
    const uint64_t k = norm(v);
    any |= k;
    all &= k;
  }
  const uint64_t varying = any & ~all;
  if (varying == 0) return;
  int shift = 56;
  while (((varying >> shift) & 0xffu) == 0) shift -= 8;
  internal_radix::RadixPass(items.data(), items.data() + items.size(), shift,
                            varying, norm);
}

}  // namespace pregelix

#endif  // PREGELIX_DATAFLOW_OPS_SORT_BY_NORM_H_
