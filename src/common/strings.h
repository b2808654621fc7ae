// Small string helpers (split/trim/lowercase, number parsing) shared
// across modules.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace pstk {

std::vector<std::string> Split(std::string_view text, char sep);
/// Split, dropping empty fields.
std::vector<std::string> SplitNonEmpty(std::string_view text, char sep);
std::string_view TrimWhitespace(std::string_view text);
std::string ToLower(std::string_view text);

/// All of `text` as a finite number in strtod syntax. Empty text, trailing
/// characters, inf, nan and overflow are errors naming `what`.
Result<double> ParseFiniteNumber(std::string_view text, std::string_view what);

/// All of `text` as a decimal whole number from 0 to `max`. Signs, points,
/// exponents and larger values are errors naming `what`.
Result<std::uint64_t> ParseWholeNumber(std::string_view text,
                                       std::string_view what,
                                       std::uint64_t max);

}  // namespace pstk
