#include "common/config.h"

#include <cstdlib>

#include "common/strings.h"

namespace pstk {

Result<Config> Config::FromArgs(int argc, const char* const* argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Callers strip the flags they accept first, so a flag-like token here
    // is a typo ("--trac=x.json") and must not become a silent key.
    if (!arg.empty() && arg[0] == '-') {
      return InvalidArgument("unknown flag '" + arg + "'");
    }
    const auto eq = arg.find('=');
    if (eq == std::string::npos || eq == 0) {
      return InvalidArgument("expected key=value, got '" + arg + "'");
    }
    config.Set(arg.substr(0, eq), arg.substr(eq + 1));
  }
  return config;
}

void Config::Set(const std::string& key, std::string value) {
  entries_[key] = std::move(value);
}

std::string Config::GetString(const std::string& key,
                              const std::string& fallback) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? fallback : it->second;
}

std::int64_t Config::GetInt(const std::string& key,
                            std::int64_t fallback) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return fallback;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

double Config::GetDouble(const std::string& key, double fallback) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return fallback;
  return std::strtod(it->second.c_str(), nullptr);
}

bool Config::GetBool(const std::string& key, bool fallback) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return fallback;
  const std::string v = ToLower(it->second);
  return v == "1" || v == "true" || v == "yes" || v == "on";
}

}  // namespace pstk
