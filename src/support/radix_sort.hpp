// Stable LSD radix sort on an unsigned integer key.
#pragma once

#include <array>
#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

namespace codelayout {

/// Sorts `items` by key(item) ascending, keeping the order of equal keys:
/// one counting pass per key byte, least significant first, skipping each
/// byte that every item shares.
template <typename T, typename Key>
void radix_sort(std::vector<T>& items, Key key) {
  using K = std::invoke_result_t<Key&, const T&>;
  static_assert(std::is_unsigned_v<K>);
  constexpr int kBytes = sizeof(K);
  const auto byte = [&key](const T& item, int i) -> std::size_t {
    return (key(item) >> (8 * i)) & 0xff;
  };
  std::array<std::array<std::size_t, 256>, kBytes> counts{};
  for (const T& item : items) {
    for (int i = 0; i < kBytes; ++i) ++counts[i][byte(item, i)];
  }
  std::vector<T> buffer;
  for (int i = 0; i < kBytes; ++i) {
    std::array<std::size_t, 256>& next = counts[i];
    if (items.empty() || next[byte(items.front(), i)] == items.size()) continue;
    std::size_t offset = 0;
    for (std::size_t& c : next) offset += std::exchange(c, offset);
    buffer.resize(items.size());
    for (const T& item : items) buffer[next[byte(item, i)]++] = item;
    items.swap(buffer);
  }
}

}  // namespace codelayout
