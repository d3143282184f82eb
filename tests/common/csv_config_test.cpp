#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "common/config.h"
#include "common/csv.h"

namespace bdps {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class CsvWriterTest : public ::testing::Test {
 protected:
  // Named after the test and the process, so cases running in parallel
  // (ctest -j) never share a file or delete each other's.
  std::string path_ =
      ::testing::TempDir() + "bdps_csv_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
      std::to_string(::getpid()) + ".csv";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvWriterTest, WritesHeaderAndRows) {
  {
    CsvWriter csv(path_, {"a", "b"});
    ASSERT_TRUE(csv.ok());
    csv.row({"1", "2"});
    csv.row_values(3.5, "x");
  }
  EXPECT_EQ(read_file(path_), "a,b\n1,2\n3.5,x\n");
}

TEST_F(CsvWriterTest, EscapesSeparatorsAndQuotes) {
  {
    CsvWriter csv(path_, {"v"});
    csv.row({"a,b"});
    csv.row({"say \"hi\""});
    csv.row({"line\nbreak"});
  }
  EXPECT_EQ(read_file(path_),
            "v\n\"a,b\"\n\"say \"\"hi\"\"\"\n\"line\nbreak\"\n");
}

TEST(KeyValueConfig, ParsesArgs) {
  const char* argv[] = {"prog", "rate=12.5", "out=x.csv", "positional",
                        "flag=true"};
  const auto config = KeyValueConfig::from_args(5, argv);
  EXPECT_DOUBLE_EQ(config.get_double("rate", 0.0), 12.5);
  EXPECT_EQ(config.get_string("out", ""), "x.csv");
  EXPECT_TRUE(config.get_bool("flag", false));
  ASSERT_EQ(config.positional().size(), 1u);
  EXPECT_EQ(config.positional()[0], "positional");
}

TEST(KeyValueConfig, FallbacksWhenMissingOrMalformed) {
  const char* argv[] = {"prog", "n=abc"};
  const auto config = KeyValueConfig::from_args(2, argv);
  EXPECT_EQ(config.get_int("n", 7), 7);
  EXPECT_EQ(config.get_int("missing", 9), 9);
  EXPECT_DOUBLE_EQ(config.get_double("missing", 1.5), 1.5);
  EXPECT_FALSE(config.has("missing"));
  EXPECT_TRUE(config.has("n"));
}

TEST(KeyValueConfig, BoolSpellings) {
  const char* argv[] = {"prog", "a=1", "b=off", "c=yes", "d=maybe"};
  const auto config = KeyValueConfig::from_args(5, argv);
  EXPECT_TRUE(config.get_bool("a", false));
  EXPECT_FALSE(config.get_bool("b", true));
  EXPECT_TRUE(config.get_bool("c", false));
  EXPECT_TRUE(config.get_bool("d", true));  // Unparseable -> fallback.
}

TEST(KeyValueConfig, DoubleLists) {
  const char* argv[] = {"prog", "rates=1,3.5,15"};
  const auto config = KeyValueConfig::from_args(2, argv);
  const auto rates = config.get_double_list("rates", {});
  ASSERT_EQ(rates.size(), 3u);
  EXPECT_DOUBLE_EQ(rates[0], 1.0);
  EXPECT_DOUBLE_EQ(rates[1], 3.5);
  EXPECT_DOUBLE_EQ(rates[2], 15.0);
  const auto fallback = config.get_double_list("missing", {2.0});
  ASSERT_EQ(fallback.size(), 1u);
}

TEST(KeyValueConfig, FromTextWithComments) {
  const auto config = KeyValueConfig::from_text(
      "# comment line\nrate = 10 # trailing\n\nname = hello\n");
  EXPECT_DOUBLE_EQ(config.get_double("rate", 0.0), 10.0);
  EXPECT_EQ(config.get_string("name", ""), "hello");
}

TEST(KeyValueConfig, SetOverrides) {
  KeyValueConfig config;
  config.set("k", "1");
  config.set("k", "2");
  EXPECT_EQ(config.get_int("k", 0), 2);
}

}  // namespace
}  // namespace bdps
