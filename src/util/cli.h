// Minimal command-line flag parsing for the benchmark harnesses and
// examples.
//
// A binary declares the flag names it reads; flags are passed as
// `--name=value` (or `--name value`) and read through typed accessors with
// defaults. An undeclared name is a usage error (exit 2) and `--help`
// prints the declared set. This is deliberately tiny -- no external
// dependency -- but supports everything the experiment binaries need.

#ifndef MMJOIN_UTIL_CLI_H_
#define MMJOIN_UTIL_CLI_H_

#include <cstdint>
#include <string>
#include <vector>

namespace mmjoin {

class CommandLine {
 public:
  // Parses argv into `--name=value` / `--name value` / bare `--name` flags
  // and positional arguments. `flags` is every name the binary reads. A
  // name outside it prints "unknown flag --<name>" and a usage line listing
  // `flags` to stderr and exits with status 2; `--help` prints the usage
  // line to stdout and exits 0.
  CommandLine(int argc, char** argv, std::vector<std::string> flags);

  // Typed accessors; `def` is returned when the flag was not supplied. A
  // value that does not parse as the type (`--threads=abc`, an out-of-range
  // number, a boolean other than true/false/1/0) prints
  // "malformed value for --<name>: '<text>'" and a usage line to stderr and
  // exits the process with status 2. Reading a name that was not declared
  // is a programming error and aborts.
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
  [[noreturn]] void Usage(const std::string& error) const;
  [[noreturn]] void Malformed(const std::string& name,
                              const std::string& text) const;

  std::string program_name_;
  std::vector<std::string> known_;
  std::vector<Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace mmjoin

#endif  // MMJOIN_UTIL_CLI_H_
