// Key=value configuration with typed getters; benches use it to expose
// sweep parameters via the command line ("key=value" arguments).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/status.h"

namespace pstk {

class Config {
 public:
  Config() = default;

  /// Parse "key=value" tokens. A token without '=' or with an empty key,
  /// and any token starting with '-' (a flag the caller did not strip),
  /// yields InvalidArgument naming it.
  static Result<Config> FromArgs(int argc, const char* const* argv);

  void Set(const std::string& key, std::string value);

  [[nodiscard]] std::string GetString(const std::string& key,
                                      const std::string& fallback) const;
  [[nodiscard]] std::int64_t GetInt(const std::string& key,
                                    std::int64_t fallback) const;
  [[nodiscard]] double GetDouble(const std::string& key,
                                 double fallback) const;
  [[nodiscard]] bool GetBool(const std::string& key, bool fallback) const;

  [[nodiscard]] const std::map<std::string, std::string>& entries() const {
    return entries_;
  }

 private:
  std::map<std::string, std::string> entries_;
};

}  // namespace pstk
