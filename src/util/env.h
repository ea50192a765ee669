// Parsing helpers for comma-separated `key=value` environment specs
// (CUSW_FAULTS and friends). Strict by design: a typo in a spec throws
// std::invalid_argument instead of silently disabling the feature.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cusw::util {

/// Split `spec` ("a=1,b=0.5,c") into (key, value) pairs in order; a field
/// without '=' yields an empty value. Whitespace around fields, keys and
/// values is trimmed; empty fields are skipped. Throws on an empty key.
std::vector<std::pair<std::string, std::string>> parse_kv_spec(
    std::string_view spec);

/// Parse a full string as a double / integer; throws std::invalid_argument
/// (mentioning `what`) on trailing garbage or range errors. Doubles must
/// be finite: "nan", "inf" and overflowing literals are rejected.
double parse_double(std::string_view text, std::string_view what);
long long parse_int(std::string_view text, std::string_view what);

/// Boolean environment toggle with the CUSW_SIM_MEMO convention: unset or
/// empty yields `dflt`; "off", "0" and "false" disable; anything else
/// enables. Read on every call (not cached) so tests and tools can flip a
/// toggle with setenv between operations.
bool env_enabled(const char* name, bool dflt);

}  // namespace cusw::util
