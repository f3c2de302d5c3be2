#include "data/loader.h"

#include <cmath>
#include <cstdlib>

#include "util/csv.h"
#include "util/string_util.h"

namespace qreg {
namespace data {

namespace {

// Parses one numeric field. strtod also accepts "nan", "inf", "infinity"
// and overflows like "1e400" to ±inf; none of those is a usable feature or
// output, so they are rejected like unparsable text.
util::Status ParseField(const std::string& s, int64_t line, int32_t column,
                        double* out) {
  char* end = nullptr;
  if (!s.empty()) *out = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size()) {
    return util::Status::InvalidArgument(
        util::Format("unparsable numeric '%s' at line %lld, column %d",
                     s.c_str(), static_cast<long long>(line), column));
  }
  if (!std::isfinite(*out)) {
    return util::Status::InvalidArgument(
        util::Format("non-finite value '%s' at line %lld, column %d",
                     s.c_str(), static_cast<long long>(line), column));
  }
  return util::Status::OK();
}

/// Resolves the effective feature/output column indexes for a row width.
util::Status ResolveColumns(const CsvLoadOptions& options, size_t width,
                            std::vector<int32_t>* features, int32_t* output) {
  *output = options.output_column >= 0 ? options.output_column
                                       : static_cast<int32_t>(width) - 1;
  if (*output < 0 || *output >= static_cast<int32_t>(width)) {
    return util::Status::InvalidArgument(
        util::Format("output column %d out of range (width %zu)", *output, width));
  }
  features->clear();
  if (!options.feature_columns.empty()) {
    for (int32_t c : options.feature_columns) {
      if (c < 0 || c >= static_cast<int32_t>(width)) {
        return util::Status::InvalidArgument(
            util::Format("feature column %d out of range (width %zu)", c, width));
      }
      if (c == *output) {
        return util::Status::InvalidArgument(
            "output column listed among feature columns");
      }
      features->push_back(c);
    }
  } else {
    for (int32_t c = 0; c < static_cast<int32_t>(width); ++c) {
      if (c != *output) features->push_back(c);
    }
  }
  if (features->empty()) {
    return util::Status::InvalidArgument("no feature columns");
  }
  return util::Status::OK();
}

}  // namespace

util::Status LoadTableFromCsv(const std::string& path, const CsvLoadOptions& options,
                              storage::Table* table, CsvLoadReport* report) {
  if (table == nullptr) return util::Status::InvalidArgument("null table");
  if (table->num_rows() != 0) {
    return util::Status::FailedPrecondition("target table is not empty");
  }
  util::CsvReader reader;
  QREG_RETURN_NOT_OK(reader.Open(path));

  std::vector<std::string> fields;
  CsvLoadReport local_report;

  if (options.has_header) {
    if (!reader.ReadRow(&fields)) {
      return util::Status::InvalidArgument("empty CSV file: " + path);
    }
    local_report.column_names = fields;
  }

  std::vector<int32_t> features;
  int32_t output = -1;
  bool columns_resolved = false;
  std::vector<double> x;

  while (reader.ReadRow(&fields)) {
    if (fields.size() == 1 && fields[0].empty()) continue;  // blank line
    if (!columns_resolved) {
      QREG_RETURN_NOT_OK(ResolveColumns(options, fields.size(), &features, &output));
      if (features.size() != table->dimension()) {
        return util::Status::InvalidArgument(
            util::Format("CSV has %zu feature columns, table expects %zu",
                         features.size(), table->dimension()));
      }
      columns_resolved = true;
      x.resize(features.size());
    }
    if (fields.size() <= static_cast<size_t>(output)) {
      if (options.skip_bad_rows) {
        ++local_report.rows_skipped;
        continue;
      }
      return util::Status::InvalidArgument(
          util::Format("short row at line %lld",
                       static_cast<long long>(reader.line_number())));
    }
    const int64_t line = reader.line_number();
    util::Status parsed;
    for (size_t j = 0; j < features.size() && parsed.ok(); ++j) {
      parsed = ParseField(fields[static_cast<size_t>(features[j])], line,
                          features[j], &x[j]);
    }
    double u = 0.0;
    if (parsed.ok()) {
      parsed = ParseField(fields[static_cast<size_t>(output)], line, output, &u);
    }
    if (!parsed.ok()) {
      if (options.skip_bad_rows) {
        ++local_report.rows_skipped;
        continue;
      }
      return parsed;
    }
    table->AppendUnchecked(x.data(), u);
    ++local_report.rows_loaded;
  }
  if (report != nullptr) *report = std::move(local_report);
  return util::Status::OK();
}

util::Result<storage::Table> LoadCsv(const std::string& path,
                                     const CsvLoadOptions& options,
                                     CsvLoadReport* report) {
  // Peek the width to size the table.
  util::CsvReader reader;
  QREG_RETURN_NOT_OK(reader.Open(path));
  std::vector<std::string> fields;
  if (!reader.ReadRow(&fields)) {
    return util::Status::InvalidArgument("empty CSV file: " + path);
  }
  const size_t width = fields.size();
  std::vector<int32_t> features;
  int32_t output = -1;
  QREG_RETURN_NOT_OK(ResolveColumns(options, width, &features, &output));

  storage::Table table(features.size());
  QREG_RETURN_NOT_OK(LoadTableFromCsv(path, options, &table, report));
  return table;
}

util::Status SaveTableToCsv(const storage::Table& table, const std::string& path) {
  util::CsvWriter writer;
  QREG_RETURN_NOT_OK(writer.Open(path));
  std::vector<std::string> header = table.schema().feature_names;
  header.push_back(table.schema().output_name);
  QREG_RETURN_NOT_OK(writer.WriteRow(header));
  std::vector<double> row(table.dimension() + 1);
  for (int64_t i = 0; i < table.num_rows(); ++i) {
    const double* x = table.x(i);
    for (size_t j = 0; j < table.dimension(); ++j) row[j] = x[j];
    row[table.dimension()] = table.u(i);
    QREG_RETURN_NOT_OK(writer.WriteNumericRow(row));
  }
  return writer.Close();
}

}  // namespace data
}  // namespace qreg
