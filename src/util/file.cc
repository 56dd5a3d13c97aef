#include "util/file.h"

#include <cstdio>

namespace mmjoin {

Status WriteTextFile(const std::string& path, std::string_view text,
                     bool trailing_newline, std::string_view what) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return UnavailableError("cannot open " + std::string(what) + " file '" +
                            path + "' for writing");
  }
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), file);
  if (trailing_newline) std::fputc('\n', file);
  const int close_rc = std::fclose(file);
  if (written != text.size() || close_rc != 0) {
    return UnavailableError("short write to " + std::string(what) +
                            " file '" + path + "'");
  }
  return OkStatus();
}

}  // namespace mmjoin
