#include "util/cli.h"

#include <cstdlib>
#include <cstring>

#include "util/macros.h"

namespace mmjoin {

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
  const int64_t value = std::strtoll(flag->value.c_str(), &end, 0);
  MMJOIN_CHECK(end != nullptr && *end == '\0' && !flag->value.empty());
  return value;
}

double CommandLine::GetDouble(const std::string& name, double def) const {
  const Flag* flag = Find(name);
  if (flag == nullptr) return def;
  char* end = nullptr;
  const double value = std::strtod(flag->value.c_str(), &end);
  MMJOIN_CHECK(end != nullptr && *end == '\0' && !flag->value.empty());
  return value;
}

bool CommandLine::GetBool(const std::string& name, bool def) const {
  const Flag* flag = Find(name);
  if (flag == nullptr) return def;
  if (flag->value.empty() || flag->value == "true" || flag->value == "1") {
    return true;
  }
  if (flag->value == "false" || flag->value == "0") return false;
  MMJOIN_CHECK(false && "boolean flag expects true/false/1/0");
  return def;
}

std::string CommandLine::GetString(const std::string& name,
                                   const std::string& def) const {
  const Flag* flag = Find(name);
  return flag == nullptr ? def : flag->value;
}

}  // namespace mmjoin
