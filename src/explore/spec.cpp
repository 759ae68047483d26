#include "explore/spec.hpp"

#include <algorithm>
#include <thread>

namespace ssvsp {

std::int64_t ShardRange::countWithin(std::int64_t totalScripts) const {
  const std::int64_t first = std::min(std::max<std::int64_t>(firstScript, 0),
                                      totalScripts);
  const std::int64_t available = totalScripts - first;
  if (numScripts < 0) return available;
  return std::min(numScripts, available);
}

std::vector<ShardRange> planShardRanges(std::int64_t totalScripts,
                                        std::int64_t shardScripts) {
  std::vector<ShardRange> plan;
  if (totalScripts <= 0) return plan;
  if (shardScripts < 1) shardScripts = 1;
  for (std::int64_t first = 0; first < totalScripts; first += shardScripts)
    plan.push_back({first, std::min(shardScripts, totalScripts - first)});
  return plan;
}

std::string reductionSpellingError(std::string_view s) {
  if (s == "symmetry")
    return "reduction 'symmetry' was retired; use symmetry_por (the same "
           "reports from fewer engine runs) or none (the unreduced oracle)";
  return "unknown reduction '" + std::string(s) +
         "' (want none or symmetry_por)";
}

int resolveThreads(int threads) {
  if (threads > 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace ssvsp
