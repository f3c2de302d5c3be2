#include "util/csv.h"

#include "util/string_util.h"

namespace qreg {
namespace util {

Status CsvWriter::Open(const std::string& path) {
  if (out_.is_open()) return Status::FailedPrecondition("CsvWriter already open");
  out_.open(path, std::ios::out | std::ios::trunc);
  if (!out_.is_open()) {
    return Status::IoError("cannot open for writing: " + path);
  }
  path_ = path;
  return Status::OK();
}

std::string CsvWriter::EscapeField(const std::string& field) {
  const bool needs_quotes = field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

Status CsvWriter::WriteRow(const std::vector<std::string>& fields) {
  if (!out_.is_open()) return Status::FailedPrecondition("CsvWriter not open");
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out_ << ',';
    out_ << EscapeField(fields[i]);
  }
  out_ << '\n';
  if (!out_.good()) return Status::IoError("write failed: " + path_);
  return Status::OK();
}

Status CsvWriter::WriteNumericRow(const std::vector<double>& values) {
  std::vector<std::string> fields;
  fields.reserve(values.size());
  for (double v : values) fields.push_back(Format("%.10g", v));
  return WriteRow(fields);
}

Status CsvWriter::Close() {
  if (!out_.is_open()) return Status::OK();
  out_.close();
  if (out_.fail()) return Status::IoError("close failed: " + path_);
  return Status::OK();
}

}  // namespace util
}  // namespace qreg
