// JSON string escaping shared by the obs exporters (journal lines, trace
// export, metrics snapshots). Internal to obs/.
#pragma once

#include <string>

namespace bass::obs {

// Appends `s` to `out` as a quoted JSON string: quotes, backslashes and
// every control character are escaped.
void append_json_string(const std::string& s, std::string& out);

}  // namespace bass::obs
