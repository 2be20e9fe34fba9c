// Test oracle for the max-min kernel: the original O(rounds × flows ×
// links) progressive-filling allocator, kept verbatim outside the library.
// MaxMinSolver must match it within kAllocEps-scale tolerance on every
// instance (tests/maxmin_property_test.cpp); bench_alloc_fastpath also uses
// it as the from-scratch baseline the incremental engine is timed against.
#pragma once

#include <vector>

#include "net/maxmin.h"

namespace bass::net {

std::vector<double> max_min_allocate_reference(
    const std::vector<double>& capacities,
    const std::vector<AllocEntity>& entities);

}  // namespace bass::net
