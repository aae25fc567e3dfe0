// Minimal command-line flag parser for the CLI tools.
//
// Supports --name value and --name=value forms, typed accessors with
// defaults, required flags, and an auto-generated --help text. A flag
// declared with default "true"/"false" also accepts the bare form
// (--name alone, at the end or before the next --flag) as true. Unknown
// flags are an error (catches typos in experiment scripts).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace dstee::util {

/// Declarative flag set + parser.
class ArgParser {
 public:
  explicit ArgParser(std::string program_description);

  /// Declares a flag. `default_value` empty + required=true → must be set.
  ArgParser& add_flag(const std::string& name, const std::string& help,
                      const std::string& default_value = "",
                      bool required = false);

  /// Parses argv. Returns false (after printing usage) when --help was
  /// requested; throws CheckError on unknown/malformed/missing flags.
  bool parse(int argc, const char* const* argv);

  /// Typed accessors (flag must have been declared).
  std::string get_string(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  /// True when the user supplied the flag explicitly.
  bool was_set(const std::string& name) const;

  /// The generated usage text.
  std::string usage() const;

 private:
  struct Flag {
    std::string help;
    std::string default_value;
    bool required = false;
    std::optional<std::string> value;
  };
  const Flag& find(const std::string& name) const;

  std::string description_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
};

}  // namespace dstee::util
