#include "util/cli.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "util/macros.h"

namespace mmjoin {

CommandLine::CommandLine(int argc, char** argv, std::vector<std::string> flags)
    : known_(std::move(flags)) {
  program_name_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) {
      positional_.emplace_back(arg);
      continue;
    }
    std::string body = arg + 2;
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_.push_back(Flag{body.substr(0, eq), body.substr(eq + 1)});
      continue;
    }
    // "--flag value" form: consume the next token if it is not a flag.
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      flags_.push_back(Flag{body, argv[i + 1]});
      ++i;
    } else {
      flags_.push_back(Flag{body, ""});
    }
  }
  for (const Flag& flag : flags_) {
    if (flag.name == "help") Usage("");
    if (std::find(known_.begin(), known_.end(), flag.name) == known_.end()) {
      Usage("unknown flag --" + flag.name);
    }
  }
}

// An empty `error` is --help: the usage line alone, to stdout, exit 0.
// Otherwise the error and the usage line go to stderr and the process exits
// with 2 -- a usage error, not a crash.
void CommandLine::Usage(const std::string& error) const {
  std::FILE* out = error.empty() ? stdout : stderr;
  if (!error.empty()) {
    std::fprintf(out, "%s: %s\n", program_name_.c_str(), error.c_str());
  }
  std::fprintf(out,
               "usage: %s [--flag=value | --flag value | --flag] ..., "
               "--flag one of:",
               program_name_.c_str());
  for (const std::string& flag : known_) {
    std::fprintf(out, " --%s", flag.c_str());
  }
  std::fputc('\n', out);
  std::exit(error.empty() ? 0 : 2);
}

void CommandLine::Malformed(const std::string& name,
                            const std::string& text) const {
  Usage("malformed value for --" + name + ": '" + text + "'");
}

const CommandLine::Flag* CommandLine::Find(const std::string& name) const {
  MMJOIN_CHECK(std::find(known_.begin(), known_.end(), name) !=
                   known_.end() &&
               "flag read but not declared");
  for (const Flag& flag : flags_) {
    if (flag.name == name) return &flag;
  }
  return nullptr;
}

bool CommandLine::Has(const std::string& name) const {
  return Find(name) != nullptr;
}

int64_t CommandLine::GetInt(const std::string& name, int64_t def) const {
  const Flag* flag = Find(name);
  if (flag == nullptr) return def;
  char* end = nullptr;
  errno = 0;
  const int64_t value = std::strtoll(flag->value.c_str(), &end, 0);
  if (flag->value.empty() || *end != '\0' || errno == ERANGE) {
    Malformed(name, flag->value);
  }
  return value;
}

double CommandLine::GetDouble(const std::string& name, double def) const {
  const Flag* flag = Find(name);
  if (flag == nullptr) return def;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(flag->value.c_str(), &end);
  if (flag->value.empty() || *end != '\0' || errno == ERANGE) {
    Malformed(name, flag->value);
  }
  return value;
}

bool CommandLine::GetBool(const std::string& name, bool def) const {
  const Flag* flag = Find(name);
  if (flag == nullptr) return def;
  if (flag->value.empty() || flag->value == "true" || flag->value == "1") {
    return true;
  }
  if (flag->value == "false" || flag->value == "0") return false;
  Malformed(name, flag->value);
}

std::string CommandLine::GetString(const std::string& name,
                                   const std::string& def) const {
  const Flag* flag = Find(name);
  return flag == nullptr ? def : flag->value;
}

}  // namespace mmjoin
