#include "util/env.h"

#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace cusw::util {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
    s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t'))
    s.remove_suffix(1);
  return s;
}

}  // namespace

std::vector<std::pair<std::string, std::string>> parse_kv_spec(
    std::string_view spec) {
  std::vector<std::pair<std::string, std::string>> out;
  while (!spec.empty()) {
    const std::size_t comma = spec.find(',');
    std::string_view field = spec.substr(0, comma);
    spec = comma == std::string_view::npos ? std::string_view{}
                                           : spec.substr(comma + 1);
    field = trim(field);
    if (field.empty()) continue;
    const std::size_t eq = field.find('=');
    const std::string_view key =
        trim(eq == std::string_view::npos ? field : field.substr(0, eq));
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view{}
                                     : trim(field.substr(eq + 1));
    if (key.empty()) {
      throw std::invalid_argument("empty key in spec field '" +
                                  std::string(field) + "'");
    }
    out.emplace_back(std::string(key), std::string(value));
  }
  return out;
}

double parse_double(std::string_view text, std::string_view what) {
  const std::string s(text);
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  // strtod also reads "nan" and "inf" (and overflows to inf); no spec
  // field means either, so they are rejected like trailing garbage.
  if (s.empty() || end != s.c_str() + s.size() || !std::isfinite(v)) {
    throw std::invalid_argument("bad numeric value '" + s + "' for " +
                                std::string(what));
  }
  return v;
}

bool env_enabled(const char* name, bool dflt) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return dflt;
  const std::string_view s(v);
  return s != "off" && s != "0" && s != "false";
}

long long parse_int(std::string_view text, std::string_view what) {
  const std::string s(text);
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (s.empty() || end != s.c_str() + s.size()) {
    throw std::invalid_argument("bad integer value '" + s + "' for " +
                                std::string(what));
  }
  return v;
}

}  // namespace cusw::util
