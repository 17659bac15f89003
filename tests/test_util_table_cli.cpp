#include <gtest/gtest.h>

#include "util/cli.hpp"
#include "util/table.hpp"

namespace cbe::util {
namespace {

TEST(Table, RendersHeaderAndRows) {
  Table t("demo");
  t.header({"a", "bb"});
  t.row({"1", "2"});
  t.row({"333", "4"});
  const std::string out = t.render();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("| a "), std::string::npos);
  EXPECT_NE(out.find("| 333 "), std::string::npos);
}

TEST(Table, PadsShortRows) {
  Table t("pad");
  t.header({"x", "y", "z"});
  t.row({"only"});
  EXPECT_NO_THROW(t.render());
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(3.14159, 0), "3");
  EXPECT_EQ(Table::num(-1.5, 1), "-1.5");
}

TEST(Table, SecondsPicksUnit) {
  EXPECT_EQ(Table::seconds(2.5), "2.50s");
  EXPECT_EQ(Table::seconds(0.0025), "2.50ms");
  EXPECT_EQ(Table::seconds(2.5e-6), "2.50us");
}

TEST(Table, RowsAccessible) {
  Table t("rows");
  t.header({"col"});
  t.row({"cell-a"});
  EXPECT_NE(t.render().find("cell-a"), std::string::npos);
}

TEST(AsciiChart, RendersSeriesAndLegend) {
  AsciiChart c("chart", "x", "y");
  c.add_series("s1", {0, 1, 2}, {0, 1, 4});
  const std::string out = c.render(40, 10);
  EXPECT_NE(out.find("-- chart --"), std::string::npos);
  EXPECT_NE(out.find("* = s1"), std::string::npos);
}

TEST(Cli, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--alpha=3", "--name=hello"};
  Cli cli(3, argv);
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_EQ(cli.get("name", ""), "hello");
}

TEST(Cli, ParsesSpaceForm) {
  const char* argv[] = {"prog", "--count", "17"};
  Cli cli(3, argv);
  EXPECT_EQ(cli.get_int("count", 0), 17);
}

TEST(Cli, CountFlags) {
  const char* argv[] = {"prog", "--n=256", "--bare", "--top=8"};
  Cli cli(4, argv);
  EXPECT_EQ(cli.get_count("n", 0, 4096, 1000), 256);
  EXPECT_EQ(cli.get_count("bare", 0, 4096, 1000), 4096);
  EXPECT_EQ(cli.get_count("top", 0, 4096, 8), 8);
  EXPECT_EQ(cli.get_count("absent", 7, 4096, 1000), 7);
  cli.enforce_usage_or_exit("usage");  // all valid: returns

  for (const char* bad : {"--n=0", "--n=-5", "--n=abc", "--n=1001"}) {
    const char* argv_bad[] = {"prog", bad};
    Cli bad_cli(2, argv_bad);
    EXPECT_EQ(bad_cli.get_count("n", 3, 4096, 1000), 3);
    EXPECT_EXIT(bad_cli.enforce_usage_or_exit("usage"),
                testing::ExitedWithCode(2),
                "expects an integer in \\[1, 1000\\]")
        << bad;
  }
}

TEST(Cli, BooleanFlags) {
  const char* argv[] = {"prog", "--fast", "--no-slow"};
  Cli cli(3, argv);
  EXPECT_TRUE(cli.get_bool("fast", false));
  EXPECT_FALSE(cli.get_bool("slow", true));
  EXPECT_TRUE(cli.get_bool("absent", true));
}

TEST(Cli, DefaultsWhenMissing) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv);
  EXPECT_EQ(cli.get_int("n", 42), 42);
  EXPECT_DOUBLE_EQ(cli.get_double("x", 2.5), 2.5);
  EXPECT_EQ(cli.get("s", "def"), "def");
  EXPECT_FALSE(cli.has("n"));
}

TEST(Cli, PositionalArguments) {
  const char* argv[] = {"prog", "input.txt", "--v=1", "other"};
  Cli cli(4, argv);
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "input.txt");
  EXPECT_EQ(cli.positional()[1], "other");
}

TEST(Cli, TracksUnusedFlags) {
  const char* argv[] = {"prog", "--used=1", "--typo=2"};
  Cli cli(3, argv);
  (void)cli.get_int("used", 0);
  const auto unused = cli.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Cli, UnusedFlagsAreReportedAsTyped) {
  // A bare --no-x is stored as x=false; an unknown one must still be
  // reported as the user typed it, not as a flag they never typed.
  const char* argv[] = {"prog", "--no-such-flag", "--typo=2", "--bare"};
  Cli cli(4, argv);
  EXPECT_EQ(cli.unused(),
            (std::vector<std::string>{"bare", "no-such-flag", "typo"}));
}

TEST(Cli, DoubleParsing) {
  const char* argv[] = {"prog", "--rate=0.25"};
  Cli cli(2, argv);
  EXPECT_DOUBLE_EQ(cli.get_double("rate", 0.0), 0.25);
}

}  // namespace
}  // namespace cbe::util
