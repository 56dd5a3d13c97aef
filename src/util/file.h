// Writing a whole text file and reporting failure as a Status.

#ifndef MMJOIN_UTIL_FILE_H_
#define MMJOIN_UTIL_FILE_H_

#include <string>
#include <string_view>

#include "util/status.h"

namespace mmjoin {

// Replaces the file at `path` with `text`, followed by one '\n' when
// `trailing_newline`. `what` names the file in the error: "cannot open
// <what> file '<path>' for writing" or "short write to <what> file
// '<path>'", both Unavailable.
Status WriteTextFile(const std::string& path, std::string_view text,
                     bool trailing_newline, std::string_view what);

}  // namespace mmjoin

#endif  // MMJOIN_UTIL_FILE_H_
