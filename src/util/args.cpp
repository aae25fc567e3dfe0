#include "util/args.hpp"

#include <iostream>
#include <sstream>

#include "util/check.hpp"
#include "util/string_util.hpp"

namespace dstee::util {

ArgParser::ArgParser(std::string program_description)
    : description_(std::move(program_description)) {}

ArgParser& ArgParser::add_flag(const std::string& name,
                               const std::string& help,
                               const std::string& default_value,
                               bool required) {
  check(!name.empty() && name[0] != '-',
        "flag names are declared without leading dashes");
  check(flags_.find(name) == flags_.end(), "duplicate flag: " + name);
  flags_[name] = Flag{help, default_value, required, std::nullopt};
  order_.push_back(name);
  return *this;
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token == "--help" || token == "-h") {
      std::cout << usage();
      return false;
    }
    check(starts_with(token, "--"), "expected --flag, got: " + token);
    token = token.substr(2);
    std::string value;
    const auto eq = token.find('=');
    if (eq != std::string::npos) {
      value = token.substr(eq + 1);
      token = token.substr(0, eq);
    }
    auto it = flags_.find(token);
    check(it != flags_.end(), "unknown flag: --" + token);
    if (eq == std::string::npos) {
      // A boolean flag (declared default true/false) may stand alone: at
      // the end of argv or followed by another --flag it reads as true.
      const std::string& def = it->second.default_value;
      const bool boolean = def == "true" || def == "false";
      if (boolean && (i + 1 == argc || starts_with(argv[i + 1], "--"))) {
        value = "true";
      } else {
        check(i + 1 < argc, "flag --" + token + " is missing a value");
        value = argv[++i];
      }
    }
    it->second.value = value;
  }
  for (const auto& [name, flag] : flags_) {
    check(!flag.required || flag.value.has_value(),
          "required flag --" + name + " was not provided");
  }
  return true;
}

const ArgParser::Flag& ArgParser::find(const std::string& name) const {
  const auto it = flags_.find(name);
  check(it != flags_.end(), "undeclared flag queried: " + name);
  return it->second;
}

std::string ArgParser::get_string(const std::string& name) const {
  const Flag& flag = find(name);
  return flag.value.value_or(flag.default_value);
}

std::int64_t ArgParser::get_int(const std::string& name) const {
  const std::string text = get_string(name);
  try {
    return std::stoll(text);
  } catch (const std::exception&) {
    fail("flag --" + name + " expects an integer, got: " + text);
  }
}

double ArgParser::get_double(const std::string& name) const {
  const std::string text = get_string(name);
  try {
    return std::stod(text);
  } catch (const std::exception&) {
    fail("flag --" + name + " expects a number, got: " + text);
  }
}

bool ArgParser::get_bool(const std::string& name) const {
  const std::string text = to_lower(get_string(name));
  if (text == "true" || text == "1" || text == "yes" || text == "on") {
    return true;
  }
  if (text == "false" || text == "0" || text == "no" || text == "off") {
    return false;
  }
  fail("flag --" + name + " expects a boolean, got: " + text);
}

bool ArgParser::was_set(const std::string& name) const {
  return find(name).value.has_value();
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << description_ << "\n\nFlags:\n";
  for (const auto& name : order_) {
    const Flag& flag = flags_.at(name);
    os << "  --" << name;
    if (!flag.default_value.empty()) {
      os << " (default: " << flag.default_value << ")";
    } else if (flag.required) {
      os << " (required)";
    }
    os << "\n      " << flag.help << "\n";
  }
  return os.str();
}

}  // namespace dstee::util
