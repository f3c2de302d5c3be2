#include "util/string_util.h"

#include <cstdarg>
#include <cstdio>

namespace qreg {
namespace util {

std::string Format(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  const int needed = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  if (needed < 0) {
    va_end(ap2);
    return std::string();
  }
  std::string out(static_cast<size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  va_end(ap2);
  return out;
}

}  // namespace util
}  // namespace qreg
