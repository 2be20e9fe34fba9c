// Test oracle for ShardedOrchestrator::merged_journal(): the original
// line-level merge, kept outside the library. Every zone's JSONL line gets
// its zone annotation in place of the closing brace, zones are
// concatenated in zone order with the coordinator's lines last, and the
// whole set is stable-sorted by t_us. The event-level heap merge must
// reproduce this byte for byte (tests/zone_test.cpp).
#pragma once

#include <string>
#include <vector>

namespace bass::zone {

std::string merged_journal_reference(const std::vector<std::string>& zone_jsonl,
                                     const std::string& coordinator_jsonl);

}  // namespace bass::zone
