// Minimal command-line flag parsing for the benchmark harnesses and
// examples.
//
// Flags are registered as `--name=value` (or `--name value`) with typed
// accessors and defaults; `--help` prints the registered set. This is
// deliberately tiny -- no external dependency -- but supports everything the
// experiment binaries need.

#ifndef MMJOIN_UTIL_CLI_H_
#define MMJOIN_UTIL_CLI_H_

#include <cstdint>
#include <string>
#include <vector>

namespace mmjoin {

class CommandLine {
 public:
  // Parses argv into `--name=value` / `--name value` / bare `--name` flags
  // and positional arguments. All lookups are by name.
  CommandLine(int argc, char** argv);

  // Typed accessors; `def` is returned when the flag was not supplied.
  int64_t GetInt(const std::string& name, int64_t def) const;
  double GetDouble(const std::string& name, double def) const;
  bool GetBool(const std::string& name, bool def) const;
  std::string GetString(const std::string& name, const std::string& def) const;

  bool Has(const std::string& name) const;

  // Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  const std::string& program_name() const { return program_name_; }

 private:
  struct Flag {
    std::string name;
    std::string value;  // empty value means bare "--flag" (boolean true)
  };

  const Flag* Find(const std::string& name) const;

  std::string program_name_;
  std::vector<Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace mmjoin

#endif  // MMJOIN_UTIL_CLI_H_
