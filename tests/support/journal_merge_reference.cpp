#include "journal_merge_reference.h"

#include <algorithm>
#include <cstdlib>

namespace bass::zone {

std::string merged_journal_reference(const std::vector<std::string>& zone_jsonl,
                                     const std::string& coordinator_jsonl) {
  struct Line {
    long long t;
    std::string text;
  };
  std::vector<Line> lines;
  const auto add = [&lines](const std::string& jsonl, int zone) {
    std::size_t start = 0;
    while (start < jsonl.size()) {
      std::size_t end = jsonl.find('\n', start);
      if (end == std::string::npos) end = jsonl.size();
      if (end > start) {
        std::string text = jsonl.substr(start, end - start);
        if (zone >= 0 && text.back() == '}') {
          text.pop_back();
          text += ",\"zone\":" + std::to_string(zone) + "}";
        }
        // Every line opens with {"t_us":<time>.
        const long long t = std::strtoll(text.c_str() + 8, nullptr, 10);
        lines.push_back({t, std::move(text)});
      }
      start = end + 1;
    }
  };
  for (std::size_t z = 0; z < zone_jsonl.size(); ++z) {
    add(zone_jsonl[z], static_cast<int>(z));
  }
  add(coordinator_jsonl, -1);
  std::stable_sort(lines.begin(), lines.end(),
                   [](const Line& a, const Line& b) { return a.t < b.t; });
  std::string merged;
  for (const Line& l : lines) {
    merged += l.text;
    merged += '\n';
  }
  return merged;
}

}  // namespace bass::zone
