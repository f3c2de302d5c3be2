// Small string formatting/parsing helpers (no external dependencies).

#ifndef QREG_UTIL_STRING_UTIL_H_
#define QREG_UTIL_STRING_UTIL_H_

#include <string>
#include <vector>

namespace qreg {
namespace util {

/// \brief printf-style formatting into a std::string.
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// \brief Splits `s` on `delim`, keeping empty fields.
std::vector<std::string> Split(const std::string& s, char delim);

/// \brief Removes leading/trailing ASCII whitespace.
std::string Trim(const std::string& s);

/// \brief Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, const std::string& sep);

/// \brief True if `s` starts with `prefix`.
bool StartsWith(const std::string& s, const std::string& prefix);

}  // namespace util
}  // namespace qreg

#endif  // QREG_UTIL_STRING_UTIL_H_
