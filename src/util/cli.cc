#include "util/cli.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mmjoin {
namespace {

// A value that does not parse is a usage error, not a crash.
[[noreturn]] void Malformed(const std::string& program,
                            const std::string& name,
                            const std::string& text) {
  std::fprintf(stderr,
               "%s: malformed value for --%s: '%s'\n"
               "usage: %s [--name=value | --name value | --name] ...\n",
               program.c_str(), name.c_str(), text.c_str(), program.c_str());
  std::exit(2);
}

}  // namespace

CommandLine::CommandLine(int argc, char** argv) {
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
}

const CommandLine::Flag* CommandLine::Find(const std::string& name) const {
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
    Malformed(program_name_, name, flag->value);
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
    Malformed(program_name_, name, flag->value);
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
  Malformed(program_name_, name, flag->value);
}

std::string CommandLine::GetString(const std::string& name,
                                   const std::string& def) const {
  const Flag* flag = Find(name);
  return flag == nullptr ? def : flag->value;
}

}  // namespace mmjoin
