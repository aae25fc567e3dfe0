// ArgParser tests (the CLI tool's flag handling).
#include <gtest/gtest.h>

#include "util/args.hpp"
#include "util/check.hpp"

namespace dstee {
namespace {

util::ArgParser make_parser() {
  util::ArgParser p("test tool");
  p.add_flag("name", "a string", "default-name")
      .add_flag("count", "an int", "3")
      .add_flag("rate", "a double", "0.5")
      .add_flag("verbose", "a bool", "false")
      .add_flag("needed", "required flag", "", /*required=*/true);
  return p;
}

int parse(util::ArgParser& p, std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return p.parse(static_cast<int>(argv.size()), argv.data()) ? 1 : 0;
}

TEST(Args, DefaultsApplyWhenUnset) {
  auto p = make_parser();
  EXPECT_EQ(parse(p, {"--needed", "x"}), 1);
  EXPECT_EQ(p.get_string("name"), "default-name");
  EXPECT_EQ(p.get_int("count"), 3);
  EXPECT_DOUBLE_EQ(p.get_double("rate"), 0.5);
  EXPECT_FALSE(p.get_bool("verbose"));
  EXPECT_FALSE(p.was_set("name"));
  EXPECT_TRUE(p.was_set("needed"));
}

TEST(Args, SpaceAndEqualsForms) {
  auto p = make_parser();
  EXPECT_EQ(parse(p, {"--needed", "x", "--count", "7", "--rate=1.25"}), 1);
  EXPECT_EQ(p.get_int("count"), 7);
  EXPECT_DOUBLE_EQ(p.get_double("rate"), 1.25);
}

TEST(Args, BooleanSpellings) {
  for (const char* spelling : {"true", "1", "yes", "on"}) {
    auto p = make_parser();
    EXPECT_EQ(parse(p, {"--needed", "x", "--verbose", spelling}), 1);
    EXPECT_TRUE(p.get_bool("verbose")) << spelling;
  }
  for (const char* spelling : {"false", "0", "no", "off"}) {
    auto p = make_parser();
    EXPECT_EQ(parse(p, {"--needed", "x", "--verbose", spelling}), 1);
    EXPECT_FALSE(p.get_bool("verbose")) << spelling;
  }
}

TEST(Args, BareBooleanFlagReadsTrue) {
  auto at_end = make_parser();
  EXPECT_EQ(parse(at_end, {"--needed", "x", "--verbose"}), 1);
  EXPECT_TRUE(at_end.get_bool("verbose"));
  EXPECT_TRUE(at_end.was_set("verbose"));

  auto before_flag = make_parser();
  EXPECT_EQ(parse(before_flag, {"--verbose", "--needed", "x"}), 1);
  EXPECT_TRUE(before_flag.get_bool("verbose"));
  EXPECT_EQ(before_flag.get_string("needed"), "x");

  // Explicit values keep working in both forms.
  auto spaced = make_parser();
  EXPECT_EQ(parse(spaced, {"--verbose", "false", "--needed", "x"}), 1);
  EXPECT_FALSE(spaced.get_bool("verbose"));
  auto equals = make_parser();
  EXPECT_EQ(parse(equals, {"--verbose=false", "--needed", "x"}), 1);
  EXPECT_FALSE(equals.get_bool("verbose"));

  // Only flags declared with a boolean default have a bare form.
  auto non_bool = make_parser();
  EXPECT_THROW(parse(non_bool, {"--needed", "x", "--count"}),
               util::CheckError);
}

TEST(Args, HelpShortCircuits) {
  auto p = make_parser();
  EXPECT_EQ(parse(p, {"--help"}), 0);  // returns false, no required check
}

TEST(Args, UsageListsFlagsAndDefaults) {
  const auto p = make_parser();
  const std::string usage = p.usage();
  EXPECT_NE(usage.find("--count (default: 3)"), std::string::npos);
  EXPECT_NE(usage.find("--needed (required)"), std::string::npos);
}

TEST(Args, ErrorsOnUnknownFlag) {
  auto p = make_parser();
  EXPECT_THROW(parse(p, {"--needed", "x", "--bogus", "1"}),
               util::CheckError);
}

TEST(Args, ErrorsOnMissingValue) {
  auto p = make_parser();
  EXPECT_THROW(parse(p, {"--needed"}), util::CheckError);
}

TEST(Args, ErrorsOnMissingRequired) {
  auto p = make_parser();
  EXPECT_THROW(parse(p, {"--count", "4"}), util::CheckError);
}

TEST(Args, ErrorsOnMalformedNumbers) {
  auto p = make_parser();
  parse(p, {"--needed", "x", "--count", "seven"});
  EXPECT_THROW(p.get_int("count"), util::CheckError);
  auto p2 = make_parser();
  parse(p2, {"--needed", "x", "--verbose", "maybe"});
  EXPECT_THROW(p2.get_bool("verbose"), util::CheckError);
}

TEST(Args, ErrorsOnPositionalArgument) {
  auto p = make_parser();
  EXPECT_THROW(parse(p, {"positional"}), util::CheckError);
}

TEST(Args, DuplicateDeclarationRejected) {
  util::ArgParser p("x");
  p.add_flag("a", "first");
  EXPECT_THROW(p.add_flag("a", "again"), util::CheckError);
  EXPECT_THROW(p.add_flag("--dashed", "bad name"), util::CheckError);
}

TEST(Args, UndeclaredQueryRejected) {
  auto p = make_parser();
  parse(p, {"--needed", "x"});
  EXPECT_THROW(p.get_string("nope"), util::CheckError);
}

}  // namespace
}  // namespace dstee
