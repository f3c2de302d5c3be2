// Loading external datasets into the storage engine ("bring your own
// relation"): CSV files with d feature columns and one output column, plus
// Table export for round-tripping.

#ifndef QREG_DATA_LOADER_H_
#define QREG_DATA_LOADER_H_

#include <string>
#include <vector>

#include "storage/table.h"
#include "util/status.h"

namespace qreg {
namespace data {

/// \brief CSV ingestion options.
struct CsvLoadOptions {
  bool has_header = true;
  /// 0-based column indexes of the features, in table order. Empty means
  /// "all columns except `output_column`", in file order.
  std::vector<int32_t> feature_columns;
  /// 0-based column of the output u; -1 means the last column.
  int32_t output_column = -1;
  /// Rows with unparsable or non-finite numerics (nan, inf, overflow) are
  /// skipped (counted) when true; otherwise loading fails on the first bad
  /// row with InvalidArgument naming its line and 0-based column.
  bool skip_bad_rows = false;
};

/// \brief Result of a CSV load.
struct CsvLoadReport {
  int64_t rows_loaded = 0;
  int64_t rows_skipped = 0;
  std::vector<std::string> column_names;  ///< Header names if present.
};

/// \brief Loads `path` into `table` (which must be empty and sized to the
/// feature count). `report` may be null.
util::Status LoadTableFromCsv(const std::string& path, const CsvLoadOptions& options,
                              storage::Table* table, CsvLoadReport* report);

/// \brief Convenience: infer dimensionality from the file and build the
/// table in one call.
util::Result<storage::Table> LoadCsv(const std::string& path,
                                     const CsvLoadOptions& options = CsvLoadOptions(),
                                     CsvLoadReport* report = nullptr);

/// \brief Writes a table to CSV (header: feature names + output name).
util::Status SaveTableToCsv(const storage::Table& table, const std::string& path);

}  // namespace data
}  // namespace qreg

#endif  // QREG_DATA_LOADER_H_
