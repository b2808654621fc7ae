#include "common/strings.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <system_error>

namespace pstk {

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> SplitNonEmpty(std::string_view text, char sep) {
  std::vector<std::string> out;
  for (auto& piece : Split(text, sep)) {
    if (!piece.empty()) out.push_back(std::move(piece));
  }
  return out;
}

std::string_view TrimWhitespace(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::string ToLower(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

Result<double> ParseFiniteNumber(std::string_view text, std::string_view what) {
  const std::string owned(text);
  char* end = nullptr;
  const double value = std::strtod(owned.c_str(), &end);
  if (owned.empty() || end != owned.c_str() + owned.size() ||
      !std::isfinite(value)) {
    return InvalidArgument("bad " + std::string(what) + " '" + owned +
                           "' (want a finite number)");
  }
  return value;
}

Result<std::uint64_t> ParseWholeNumber(std::string_view text,
                                       std::string_view what,
                                       std::uint64_t max) {
  const char* end = text.data() + text.size();
  std::uint64_t value = 0;
  const auto [stop, err] = std::from_chars(text.data(), end, value);
  if (err != std::errc() || stop != end || value > max) {
    return InvalidArgument("bad " + std::string(what) + " '" +
                           std::string(text) +
                           "' (want a whole number from 0 to " +
                           std::to_string(max) + ")");
  }
  return value;
}

}  // namespace pstk
