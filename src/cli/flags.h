#ifndef TABSKETCH_CLI_FLAGS_H_
#define TABSKETCH_CLI_FLAGS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace tabsketch::cli {

/// Minimal command-line parser for the tabsketch tool: one positional
/// command followed by --key=value (or --key value) flags.
///
///   tabsketch cluster --table=data.tbl --mode=exact --k=20
///
/// Unknown flags are an error (AllowOnly, checked once per run against the
/// command's accepted list), which catches typos like --tile-row=8.
class Flags {
 public:
  /// Parses argv[1..): the first non-flag token is the command, the rest
  /// must be flags. Returns InvalidArgument on malformed input (missing
  /// value, flag before command, repeated flag).
  static util::Result<Flags> Parse(int argc, const char* const* argv);

  /// The positional command ("generate", "cluster", ...); empty if none.
  const std::string& command() const { return command_; }

  bool Has(const std::string& name) const { return values_.count(name) > 0; }

  /// Typed getters: return the flag's value, or `fallback` if absent, or an
  /// error if present but unparsable.
  util::Result<std::string> GetString(const std::string& name,
                                      const std::string& fallback) const;
  util::Result<int64_t> GetInt(const std::string& name,
                               int64_t fallback) const;
  /// A count or size: an integer that must not be negative.
  util::Result<size_t> GetSize(const std::string& name,
                               size_t fallback) const;
  util::Result<double> GetDouble(const std::string& name,
                                 double fallback) const;
  util::Result<bool> GetBool(const std::string& name, bool fallback) const;

  /// A required string flag: error if absent.
  util::Result<std::string> GetRequired(const std::string& name) const;

  /// Errors unless every provided flag is in `allowed`.
  util::Status AllowOnly(const std::vector<std::string>& allowed) const;

 private:
  std::string command_;
  std::map<std::string, std::string> values_;
};

/// Parses "a,b,c,d" into exactly `count` non-negative integers.
util::Result<std::vector<size_t>> ParseSizeList(const std::string& text,
                                                size_t count);

}  // namespace tabsketch::cli

#endif  // TABSKETCH_CLI_FLAGS_H_
