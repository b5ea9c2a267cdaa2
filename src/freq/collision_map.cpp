#include "freq/collision_map.hpp"

#include <algorithm>
#include <numeric>

#include "freq/spectrum.hpp"
#include "util/logging.hpp"

namespace qplacer {

CollisionMap::CollisionMap(const std::vector<double> &freqs_hz,
                           const std::vector<int> &group,
                           double threshold_hz)
{
    if (freqs_hz.size() != group.size())
        panic("CollisionMap: freqs/group size mismatch");
    const std::size_t n = freqs_hz.size();
    lists_.resize(n);

    // Sort indices by frequency and sweep a window of width threshold;
    // this is O(n log n + pairs) instead of O(n^2).
    std::vector<std::int32_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::int32_t a, std::int32_t b) {
                  return freqs_hz[a] < freqs_hz[b];
              });

    std::size_t window_start = 0;
    for (std::size_t k = 0; k < n; ++k) {
        const std::int32_t i = order[k];
        while (freqs_hz[i] - freqs_hz[order[window_start]] >=
               threshold_hz) {
            ++window_start;
        }
        for (std::size_t m = window_start; m < k; ++m) {
            const std::int32_t j = order[m];
            if (!mayCollide(freqs_hz[i], group[i], freqs_hz[j], group[j],
                            threshold_hz))
                continue;
            lists_[i].push_back(j);
            lists_[j].push_back(i);
            ++numPairs_;
        }
    }
    for (auto &list : lists_)
        std::sort(list.begin(), list.end());
}

const std::vector<std::int32_t> &
CollisionMap::partners(std::size_t i) const
{
    if (i >= lists_.size())
        panic(str("CollisionMap::partners: index ", i, " out of range"));
    return lists_[i];
}

bool
CollisionMap::collides(std::size_t i, std::size_t j) const
{
    const auto &list = partners(i);
    return std::binary_search(list.begin(), list.end(),
                              static_cast<std::int32_t>(j));
}

} // namespace qplacer
