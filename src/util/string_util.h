// printf-style string formatting (no external dependencies).

#ifndef QREG_UTIL_STRING_UTIL_H_
#define QREG_UTIL_STRING_UTIL_H_

#include <string>

namespace qreg {
namespace util {

/// \brief printf-style formatting into a std::string.
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace util
}  // namespace qreg

#endif  // QREG_UTIL_STRING_UTIL_H_
