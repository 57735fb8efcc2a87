#include "cli/flags.h"

#include <cstdlib>
#include <sstream>

namespace tabsketch::cli {
namespace {

bool IsFlagToken(const std::string& token) {
  return token.size() > 2 && token[0] == '-' && token[1] == '-';
}

}  // namespace

util::Result<Flags> Flags::Parse(int argc, const char* const* argv) {
  Flags flags;
  int i = 1;
  // Positional command first.
  if (i < argc && !IsFlagToken(argv[i])) {
    flags.command_ = argv[i];
    ++i;
  }
  for (; i < argc; ++i) {
    const std::string token = argv[i];
    if (!IsFlagToken(token)) {
      return util::Status::InvalidArgument(
          "unexpected positional argument '" + token +
          "' (flags are --key=value)");
    }
    const std::string body = token.substr(2);
    std::string name;
    std::string value;
    const size_t equals = body.find('=');
    if (equals != std::string::npos) {
      name = body.substr(0, equals);
      value = body.substr(equals + 1);
    } else {
      name = body;
      if (i + 1 >= argc || IsFlagToken(argv[i + 1])) {
        // Valueless flag: treat as boolean true.
        value = "true";
      } else {
        value = argv[++i];
      }
    }
    if (name.empty()) {
      return util::Status::InvalidArgument("empty flag name in '" + token +
                                           "'");
    }
    if (flags.values_.count(name) > 0) {
      return util::Status::InvalidArgument("flag --" + name +
                                           " given more than once");
    }
    flags.values_[name] = value;
  }
  return flags;
}

util::Result<std::string> Flags::GetString(const std::string& name,
                                           const std::string& fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second;
}

util::Result<int64_t> Flags::GetInt(const std::string& name,
                                    int64_t fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    return util::Status::InvalidArgument("flag --" + name +
                                         " expects an integer, got '" +
                                         it->second + "'");
  }
  return static_cast<int64_t>(parsed);
}

util::Result<size_t> Flags::GetSize(const std::string& name,
                                    size_t fallback) const {
  if (!Has(name)) return fallback;
  TABSKETCH_ASSIGN_OR_RETURN(const int64_t value, GetInt(name, 0));
  if (value < 0) {
    return util::Status::InvalidArgument(
        "flag --" + name + " expects a non-negative integer, got '" +
        values_.at(name) + "'");
  }
  return static_cast<size_t>(value);
}

util::Result<double> Flags::GetDouble(const std::string& name,
                                      double fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    return util::Status::InvalidArgument("flag --" + name +
                                         " expects a number, got '" +
                                         it->second + "'");
  }
  return parsed;
}

util::Result<bool> Flags::GetBool(const std::string& name,
                                  bool fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  if (it->second == "true" || it->second == "1") return true;
  if (it->second == "false" || it->second == "0") return false;
  return util::Status::InvalidArgument("flag --" + name +
                                       " expects true/false, got '" +
                                       it->second + "'");
}

util::Result<std::string> Flags::GetRequired(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) {
    return util::Status::InvalidArgument("missing required flag --" + name);
  }
  return it->second;
}

util::Status Flags::AllowOnly(const std::vector<std::string>& allowed) const {
  for (const auto& [name, value] : values_) {
    bool known = false;
    for (const std::string& candidate : allowed) {
      if (name == candidate) {
        known = true;
        break;
      }
    }
    if (!known) {
      return util::Status::InvalidArgument("unknown flag --" + name);
    }
  }
  return util::Status::OK();
}

util::Result<std::vector<size_t>> ParseSizeList(const std::string& text,
                                                size_t count) {
  std::vector<size_t> out;
  std::istringstream stream(text);
  std::string field;
  while (std::getline(stream, field, ',')) {
    char* end = nullptr;
    const long long parsed = std::strtoll(field.c_str(), &end, 10);
    if (end == field.c_str() || *end != '\0' || parsed < 0) {
      return util::Status::InvalidArgument(
          "expected a non-negative integer, got '" + field + "'");
    }
    out.push_back(static_cast<size_t>(parsed));
  }
  if (out.size() != count) {
    std::ostringstream msg;
    msg << "expected " << count << " comma-separated integers, got "
        << out.size() << " in '" << text << "'";
    return util::Status::InvalidArgument(msg.str());
  }
  return out;
}

}  // namespace tabsketch::cli
