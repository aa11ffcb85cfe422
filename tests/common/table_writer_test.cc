#include "common/table_writer.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "gtest/gtest.h"

namespace dgt {
namespace {

std::string TmpPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(FormatDoubleTest, Precision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(3.14159, 4), "3.1416");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
}

TEST(TableWriterTest, PrintAlignsColumns) {
  TableWriter t("My Table");
  t.SetHeader({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"long-name", "22"});
  std::ostringstream os;
  t.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("My Table"), std::string::npos);
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("long-name"), std::string::npos);
  // Header separator exists.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TableWriterTest, RaggedRowsTolerated) {
  TableWriter t("");
  t.SetHeader({"a"});
  t.AddRow({"1", "2", "3"});
  t.AddRow({"x"});
  std::ostringstream os;
  t.Print(os);
  EXPECT_NE(os.str().find("3"), std::string::npos);
  EXPECT_NE(os.str().find("x"), std::string::npos);
}

TEST(TableWriterTest, CsvRoundTrip) {
  TableWriter t("title is not written to csv");
  t.SetHeader({"n", "steps"});
  t.AddRow({"100", "29"});
  t.AddRow({"1000", "52"});
  std::string path = TmpPath("table_writer_test.csv");
  ASSERT_TRUE(t.WriteCsv(path).ok());
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "n,steps");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "100,29");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "1000,52");
  EXPECT_FALSE(std::getline(in, line));
  std::remove(path.c_str());
}

TEST(TableWriterTest, CsvEscapesSpecialCells) {
  TableWriter t("");
  t.AddRow({std::string("a,b"), std::string("quote\"inside")});
  std::string path = TmpPath("table_writer_escape.csv");
  ASSERT_TRUE(t.WriteCsv(path).ok());
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "\"a,b\",\"quote\"\"inside\"");
  std::remove(path.c_str());
}

TEST(TableWriterTest, CsvBadPathFails) {
  TableWriter t("");
  t.AddRow({"x"});
  Status s = t.WriteCsv("/nonexistent-dir-zzz/file.csv");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

TEST(TableWriterTest, EmptyTablePrintsNothingButTitle) {
  TableWriter t("only-title");
  std::ostringstream os;
  t.Print(os);
  EXPECT_EQ(os.str(), "only-title\n");
}

}  // namespace
}  // namespace dgt
