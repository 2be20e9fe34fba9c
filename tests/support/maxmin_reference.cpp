#include "maxmin_reference.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace bass::net {

std::vector<double> max_min_allocate_reference(
    const std::vector<double>& capacities,
    const std::vector<AllocEntity>& entities) {
  const std::size_t nf = entities.size();
  const std::size_t nl = capacities.size();
  std::vector<double> alloc(nf, 0.0);
  std::vector<bool> frozen(nf, false);

  std::vector<double> remaining = capacities;
  std::vector<int> unfrozen_on_link(nl, 0);
  std::vector<std::vector<int>> flows_on_link(nl);

  std::size_t unfrozen_count = 0;
  for (std::size_t f = 0; f < nf; ++f) {
    if (entities[f].demand <= 0.0) {
      frozen[f] = true;
      continue;
    }
    assert(!entities[f].links.empty() && "demanding entity must traverse links");
    ++unfrozen_count;
    for (LinkId l : entities[f].links) {
      assert(l >= 0 && static_cast<std::size_t>(l) < nl);
      ++unfrozen_on_link[l];
      flows_on_link[l].push_back(static_cast<int>(f));
    }
  }

  // Each iteration saturates a link or meets a demand, so the loop runs at
  // most nf + nl times; the +2 is head room for float edge cases.
  std::size_t guard = nf + nl + 2;
  while (unfrozen_count > 0 && guard-- > 0) {
    // Water level increment: smallest equal share that saturates a link or
    // meets a flow's demand.
    double delta = std::numeric_limits<double>::infinity();
    for (std::size_t l = 0; l < nl; ++l) {
      if (unfrozen_on_link[l] > 0) {
        delta = std::min(delta, remaining[l] / unfrozen_on_link[l]);
      }
    }
    for (std::size_t f = 0; f < nf; ++f) {
      if (!frozen[f]) delta = std::min(delta, entities[f].demand - alloc[f]);
    }
    if (!std::isfinite(delta)) break;
    delta = std::max(delta, 0.0);

    for (std::size_t f = 0; f < nf; ++f) {
      if (frozen[f]) continue;
      alloc[f] += delta;
      for (LinkId l : entities[f].links) remaining[l] -= delta;
    }

    // Freeze flows whose demand is met.
    for (std::size_t f = 0; f < nf; ++f) {
      if (frozen[f] || alloc[f] + kAllocEps < entities[f].demand) continue;
      frozen[f] = true;
      --unfrozen_count;
      for (LinkId l : entities[f].links) --unfrozen_on_link[l];
    }
    // Freeze flows crossing a saturated link.
    for (std::size_t l = 0; l < nl; ++l) {
      if (remaining[l] > kAllocEps || unfrozen_on_link[l] == 0) continue;
      for (int f : flows_on_link[l]) {
        if (frozen[f]) continue;
        frozen[f] = true;
        --unfrozen_count;
        for (LinkId fl : entities[f].links) --unfrozen_on_link[fl];
      }
    }
  }

  for (std::size_t f = 0; f < nf; ++f) {
    if (alloc[f] < 0.0) alloc[f] = 0.0;
  }
  return alloc;
}

}  // namespace bass::net
