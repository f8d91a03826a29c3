// Strict command-line parsing for the wantraffic_* tools.
//
// The tools' original ad-hoc scanners only looked at argv from a fixed
// index, so a flag in the "wrong" position — or a typo'd flag anywhere —
// was silently ignored. This parser walks every position: anything
// starting with "--" must be a registered flag (value flags must have a
// value following), everything else is a positional. Unknown flags fail
// loudly so the caller can print usage.
//
// Numeric values are strict too: number() and count() require the whole
// string to parse ("--bin fast" and "--chunk 2.5" used to atof to 0
// and silently reconfigure the run), and count() enforces a lower
// bound so "--chunk 0" is an error, not a surprise. Contradictory
// flag combinations are rejected through reject_together with a
// message naming both spellings.
#pragma once

#include <cerrno>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace wan::tools {

class ArgParser {
 public:
  ArgParser(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  /// Registers a boolean flag, e.g. "--binary".
  void add_flag(const std::string& name) { flags_[name] = false; }
  /// Registers a flag that consumes the next argument, e.g. "--bin 0.1".
  void add_option(const std::string& name) { options_[name] = {}; }

  /// Walks all arguments. Returns false and sets `error` on an unknown
  /// "--" flag or a value flag with no value following.
  bool parse(std::string* error) {
    for (std::size_t i = 0; i < args_.size(); ++i) {
      const std::string& a = args_[i];
      if (a.rfind("--", 0) != 0) {
        positional_.push_back(a);
        continue;
      }
      if (auto f = flags_.find(a); f != flags_.end()) {
        f->second = true;
        continue;
      }
      if (auto o = options_.find(a); o != options_.end()) {
        if (i + 1 >= args_.size()) {
          *error = "flag " + a + " needs a value";
          return false;
        }
        o->second = args_[++i];
        continue;
      }
      *error = "unknown flag " + a;
      return false;
    }
    return true;
  }

  bool has(const std::string& name) const {
    const auto f = flags_.find(name);
    return f != flags_.end() && f->second;
  }

  /// The option's value, or nullptr if absent.
  const std::string* value(const std::string& name) const {
    const auto o = options_.find(name);
    return (o != options_.end() && !o->second.empty()) ? &o->second : nullptr;
  }

  /// True when the argument appeared at all — a set boolean flag or a
  /// value flag that was given (either registration).
  bool given(const std::string& name) const {
    return has(name) || value(name) != nullptr;
  }

  /// Strict numeric value: the whole string must parse as a number.
  /// Throws std::invalid_argument on "--bin fast" or "--bin 1x".
  double number(const std::string& name, double fallback) const {
    const std::string* v = value(name);
    if (v == nullptr) return fallback;
    char* end = nullptr;
    const double d = std::strtod(v->c_str(), &end);
    if (end == v->c_str() || *end != '\0')
      throw std::invalid_argument("flag " + name + " wants a number, got '" +
                                  *v + "'");
    return d;
  }

  /// Strict integer count with a lower bound: fractional, negative,
  /// non-numeric, out-of-range and below-minimum values (e.g.
  /// "--chunk 0" with min_value 1) all throw std::invalid_argument.
  std::size_t count(const std::string& name, std::size_t fallback,
                    std::size_t min_value = 0) const {
    const std::string* v = value(name);
    if (v == nullptr) return fallback;
    char* end = nullptr;
    errno = 0;
    const unsigned long long u = std::strtoull(v->c_str(), &end, 10);
    if (end == v->c_str() || *end != '\0' || errno == ERANGE ||
        v->find_first_not_of("0123456789") != std::string::npos)
      throw std::invalid_argument("flag " + name +
                                  " wants a non-negative integer, got '" + *v +
                                  "'");
    if (u < min_value)
      throw std::invalid_argument("flag " + name + " wants at least " +
                                  std::to_string(min_value) + ", got '" + *v +
                                  "'");
    return static_cast<std::size_t>(u);
  }

  /// Throws std::invalid_argument when both arguments were given —
  /// `why` explains the contradiction in the error message.
  void reject_together(const std::string& a, const std::string& b,
                       const std::string& why) const {
    if (given(a) && given(b))
      throw std::invalid_argument(a + " and " + b +
                                  " are mutually exclusive: " + why);
  }

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::vector<std::string> args_;
  std::map<std::string, bool> flags_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace wan::tools
