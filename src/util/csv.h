// Minimal CSV writer for experiment outputs (bench/out/*.csv).

#ifndef QREG_UTIL_CSV_H_
#define QREG_UTIL_CSV_H_

#include <fstream>
#include <string>
#include <vector>

#include "util/status.h"

namespace qreg {
namespace util {

/// \brief Streams rows to a CSV file; fields containing separators are quoted.
class CsvWriter {
 public:
  CsvWriter() = default;

  /// Opens `path` for writing (truncates). Creates parent dirs is NOT done;
  /// callers pass paths in existing directories.
  Status Open(const std::string& path);

  /// Writes a header or data row. No-op with error status if not open.
  Status WriteRow(const std::vector<std::string>& fields);

  /// Convenience: formats doubles with "%.10g".
  Status WriteNumericRow(const std::vector<double>& values);

  Status Close();

  bool is_open() const { return out_.is_open(); }

  /// Escapes one CSV field (quotes if it contains comma/quote/newline).
  static std::string EscapeField(const std::string& field);

 private:
  std::ofstream out_;
  std::string path_;
};

}  // namespace util
}  // namespace qreg

#endif  // QREG_UTIL_CSV_H_
