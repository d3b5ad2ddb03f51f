#pragma once

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace aesz {

/// Minimal --flag/--key value parser for the example tools. Positional
/// arguments are collected in order; "--key value" and "--key=value" both
/// work; names in `known_flags` are bare boolean switches ("--verify",
/// queried with has()) that consume no value; names in
/// `optional_value_keys` take a value when one follows ("--once 3") but
/// default to "1" when the next token is another option or argv ends
/// (bare "--once" — kept for callers that predate the key growing a
/// value); unknown flags throw so typos fail loudly.
class CliArgs {
 public:
  CliArgs(int argc, char** argv, std::vector<std::string> known_keys,
          std::vector<std::string> known_flags = {},
          std::vector<std::string> optional_value_keys = {})
      : known_(std::move(known_keys)),
        flags_(std::move(known_flags)),
        optional_(std::move(optional_value_keys)) {
    const auto in = [](const std::vector<std::string>& v,
                       const std::string& k) {
      return std::find(v.begin(), v.end(), k) != v.end();
    };
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(std::move(arg));
        continue;
      }
      std::string key = arg.substr(2);
      std::string value;
      const auto eq = key.find('=');
      if (eq != std::string::npos) {
        value = key.substr(eq + 1);
        key = key.substr(0, eq);
      }
      // Check the key before it can take the next token as its value, so
      // a trailing typo reads "unknown", not "missing value".
      AESZ_CHECK_MSG(in(known_, key) || in(optional_, key) || in(flags_, key),
                     "unknown option --" + key);
      if (eq == std::string::npos) {
        if (in(flags_, key)) {
          // std::string temporary, not a char* assign: GCC 12's -Wrestrict
          // false-fires on the inlined assign(const char*) path here.
          values_[key] = std::string("1");
          continue;
        }
        if (in(optional_, key) &&
            (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0))
          value = std::string("1");
        else if (i + 1 < argc)
          value = argv[++i];
        else
          throw Error("missing value for --" + key);
      }
      if (in(flags_, key)) {
        // Callers test flags by presence (has()), so "--flag=0" /
        // "--flag=false" must drop the key entirely to mean off.
        if (value != "0" && value != "false")
          values_[key] = std::string("1");
        continue;
      }
      values_[key] = value;
    }
  }

  const std::vector<std::string>& positional() const { return positional_; }

  bool has(const std::string& key) const { return values_.count(key) > 0; }

  std::string get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  double get_double(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }

  long get_long(const std::string& key, long fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atol(it->second.c_str());
  }

 private:
  std::vector<std::string> known_;
  std::vector<std::string> flags_;
  std::vector<std::string> optional_;
  std::vector<std::string> positional_;
  std::map<std::string, std::string> values_;
};

}  // namespace aesz
