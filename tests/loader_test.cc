// Tests for CSV ingestion: CsvReader parsing, table loading (column
// selection, bad-row policy), and writer/loader round trips.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>

#include "data/loader.h"
#include "util/csv.h"
#include "util/rng.h"

namespace qreg {
namespace data {
namespace {

std::string WriteTemp(const std::string& name, const std::string& content) {
  const std::string path = testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::trunc);
  out << content;
  return path;
}

// ---------- CsvReader ----------

TEST(CsvReaderTest, ParsesPlainFields) {
  auto f = util::CsvReader::ParseLine("a,b,c");
  EXPECT_EQ(f, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(CsvReaderTest, ParsesQuotedFields) {
  auto f = util::CsvReader::ParseLine("\"a,b\",c,\"say \"\"hi\"\"\"");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "a,b");
  EXPECT_EQ(f[1], "c");
  EXPECT_EQ(f[2], "say \"hi\"");
}

TEST(CsvReaderTest, EmptyFieldsPreserved) {
  auto f = util::CsvReader::ParseLine(",x,");
  EXPECT_EQ(f, (std::vector<std::string>{"", "x", ""}));
}

TEST(CsvReaderTest, ReadsRowsAndHandlesCrlf) {
  const std::string path = WriteTemp("reader_crlf.csv", "a,b\r\n1,2\r\n");
  util::CsvReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  std::vector<std::string> fields;
  ASSERT_TRUE(reader.ReadRow(&fields));
  EXPECT_EQ(fields, (std::vector<std::string>{"a", "b"}));
  ASSERT_TRUE(reader.ReadRow(&fields));
  EXPECT_EQ(fields, (std::vector<std::string>{"1", "2"}));
  EXPECT_FALSE(reader.ReadRow(&fields));
}

TEST(CsvReaderTest, EmbeddedNewlineInQuotedField) {
  const std::string path =
      WriteTemp("reader_nl.csv", "\"line1\nline2\",x\nnext,y\n");
  util::CsvReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  std::vector<std::string> fields;
  ASSERT_TRUE(reader.ReadRow(&fields));
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0], "line1\nline2");
  ASSERT_TRUE(reader.ReadRow(&fields));
  EXPECT_EQ(fields[0], "next");
}

TEST(CsvReaderTest, MissingFileFails) {
  util::CsvReader reader;
  EXPECT_EQ(reader.Open("/no/such/file.csv").code(), util::StatusCode::kIoError);
}

// ---------- LoadCsv ----------

TEST(LoaderTest, LoadsWithHeaderDefaultColumns) {
  const std::string path =
      WriteTemp("load1.csv", "x1,x2,u\n0.1,0.2,1.5\n0.3,0.4,2.5\n");
  CsvLoadReport report;
  auto table = LoadCsv(path, CsvLoadOptions(), &report);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->dimension(), 2u);
  EXPECT_EQ(table->num_rows(), 2);
  EXPECT_DOUBLE_EQ(table->x(0)[0], 0.1);
  EXPECT_DOUBLE_EQ(table->u(1), 2.5);
  EXPECT_EQ(report.rows_loaded, 2);
  EXPECT_EQ(report.column_names, (std::vector<std::string>{"x1", "x2", "u"}));
}

TEST(LoaderTest, LoadsHeaderlessWithExplicitColumns) {
  const std::string path = WriteTemp("load2.csv", "9,0.1,0.2\n8,0.3,0.4\n");
  CsvLoadOptions opts;
  opts.has_header = false;
  opts.feature_columns = {1, 2};
  opts.output_column = 0;  // u is the first column
  auto table = LoadCsv(path, opts);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 2);
  EXPECT_DOUBLE_EQ(table->u(0), 9.0);
  EXPECT_DOUBLE_EQ(table->x(1)[1], 0.4);
}

TEST(LoaderTest, BadRowFailsByDefault) {
  const std::string path = WriteTemp("load3.csv", "x,u\n0.1,1\nnot_a_number,2\n");
  EXPECT_EQ(LoadCsv(path).status().code(), util::StatusCode::kInvalidArgument);
}

TEST(LoaderTest, BadRowsSkippedWhenRequested) {
  const std::string path =
      WriteTemp("load4.csv", "x,u\n0.1,1\nbad,2\n0.3,3\n,\n");
  CsvLoadOptions opts;
  opts.skip_bad_rows = true;
  CsvLoadReport report;
  auto table = LoadCsv(path, opts, &report);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(report.rows_loaded, 2);
  EXPECT_EQ(report.rows_skipped, 2);
}

TEST(LoaderTest, NonFiniteValuesRejectedWithLineAndColumn) {
  // strtod accepts every one of these spellings (the last overflows to inf).
  for (const std::string bad : {"nan", "inf", "-inf", "infinity", "1e400"}) {
    for (const bool in_output : {false, true}) {
      const std::string row = in_output ? "0.2,0.3," + bad : "0.2," + bad + ",3";
      const std::string path = WriteTemp(
          "nonfinite.csv", "x1,x2,u\n0.1,0.1,1\n" + row + "\n0.4,0.4,4\n");
      const std::string where = bad + (in_output ? " in u" : " in x2");

      const auto strict = LoadCsv(path);
      ASSERT_FALSE(strict.ok()) << where;
      EXPECT_EQ(strict.status().code(), util::StatusCode::kInvalidArgument)
          << where;
      const std::string msg = strict.status().message();
      EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
      EXPECT_NE(msg.find(in_output ? "column 2" : "column 1"), std::string::npos)
          << msg;

      CsvLoadOptions skip;
      skip.skip_bad_rows = true;
      CsvLoadReport report;
      const auto table = LoadCsv(path, skip, &report);
      ASSERT_TRUE(table.ok()) << where;
      EXPECT_EQ(report.rows_loaded, 2) << where;
      EXPECT_EQ(report.rows_skipped, 1) << where;
      for (int64_t i = 0; i < table->num_rows(); ++i) {
        EXPECT_TRUE(std::isfinite(table->u(i)));
        EXPECT_TRUE(std::isfinite(table->x(i)[0]) && std::isfinite(table->x(i)[1]));
      }
    }
  }
}

TEST(LoaderTest, RejectsBadColumnSpecs) {
  const std::string path = WriteTemp("load5.csv", "a,b\n1,2\n");
  CsvLoadOptions out_of_range;
  out_of_range.output_column = 7;
  EXPECT_FALSE(LoadCsv(path, out_of_range).ok());

  CsvLoadOptions overlap;
  overlap.feature_columns = {0, 1};
  overlap.output_column = 1;
  EXPECT_FALSE(LoadCsv(path, overlap).ok());
}

TEST(LoaderTest, EmptyFileRejected) {
  const std::string path = WriteTemp("load6.csv", "");
  EXPECT_FALSE(LoadCsv(path).ok());
}

TEST(LoaderTest, SaveLoadRoundTrip) {
  storage::Table original(3);
  util::Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(original
                    .Append({rng.Uniform(), rng.Uniform(), rng.Uniform()},
                            rng.Gaussian())
                    .ok());
  }
  const std::string path = testing::TempDir() + "/roundtrip.csv";
  ASSERT_TRUE(SaveTableToCsv(original, path).ok());

  auto loaded = LoadCsv(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->num_rows(), original.num_rows());
  ASSERT_EQ(loaded->dimension(), original.dimension());
  for (int64_t i = 0; i < original.num_rows(); ++i) {
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(loaded->x(i)[j], original.x(i)[j], 1e-9);
    }
    EXPECT_NEAR(loaded->u(i), original.u(i), 1e-9);
  }
}

TEST(LoaderTest, LoadIntoPreSizedTableValidatesDimension) {
  const std::string path = WriteTemp("load7.csv", "x1,x2,u\n0.1,0.2,1\n");
  storage::Table wrong_dim(3);
  CsvLoadReport report;
  EXPECT_FALSE(
      LoadTableFromCsv(path, CsvLoadOptions(), &wrong_dim, &report).ok());

  storage::Table non_empty(2);
  ASSERT_TRUE(non_empty.Append({0.0, 0.0}, 0.0).ok());
  EXPECT_EQ(LoadTableFromCsv(path, CsvLoadOptions(), &non_empty, &report).code(),
            util::StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace data
}  // namespace qreg
