// Tests for the mini-YAML parser and the $-expression evaluator,
// including a full parse of the paper's Listing 1 configuration.
#include <gtest/gtest.h>

#include "deisa/config/expr.hpp"
#include "deisa/config/node.hpp"
#include "deisa/config/yaml.hpp"
#include "deisa/util/error.hpp"

namespace cfg = deisa::config;
using deisa::util::ConfigError;

namespace {

TEST(Yaml, ScalarKinds) {
  const auto n = cfg::parse_yaml(R"(
int_v: 42
float_v: 3.5
bool_t: true
bool_f: false
null_v: ~
str_v: hello world
quoted: 'a: b # not comment'
)");
  EXPECT_EQ(n.at("int_v").as_int(), 42);
  EXPECT_DOUBLE_EQ(n.at("float_v").as_double(), 3.5);
  EXPECT_TRUE(n.at("bool_t").as_bool());
  EXPECT_FALSE(n.at("bool_f").as_bool());
  EXPECT_TRUE(n.at("null_v").is_null());
  EXPECT_EQ(n.at("str_v").as_string(), "hello world");
  EXPECT_EQ(n.at("quoted").as_string(), "a: b # not comment");
}

TEST(Yaml, NestedMaps) {
  const auto n = cfg::parse_yaml(R"(
a:
  b:
    c: 1
  d: 2
e: 3
)");
  EXPECT_EQ(n.at("a").at("b").at("c").as_int(), 1);
  EXPECT_EQ(n.at("a").at("d").as_int(), 2);
  EXPECT_EQ(n.at("e").as_int(), 3);
}

TEST(Yaml, BlockSequences) {
  const auto n = cfg::parse_yaml(R"(
sizes:
  - 1
  - '$x'
  - 3.5
)");
  const auto& s = n.at("sizes").as_seq();
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].as_int(), 1);
  EXPECT_EQ(s[1].as_string(), "$x");
  EXPECT_DOUBLE_EQ(s[2].as_double(), 3.5);
}

TEST(Yaml, FlowCollections) {
  const auto n = cfg::parse_yaml(
      "metadata: { step: int, cfg: config_t, rank: int }\n"
      "dims: [2, 4, 8]\n");
  EXPECT_EQ(n.at("metadata").at("step").as_string(), "int");
  EXPECT_EQ(n.at("metadata").at("rank").as_string(), "int");
  const auto& dims = n.at("dims").as_seq();
  ASSERT_EQ(dims.size(), 3u);
  EXPECT_EQ(dims[2].as_int(), 8);
}

TEST(Yaml, ColonInsideFlowPlainScalar) {
  // In a flow collection a plain scalar ends at ':' only when whitespace,
  // ',', ']', '}' or the end of the input follows.
  const auto n = cfg::parse_yaml(
      "x: [http://x, 2]\n"
      "y: {url: http://x, at: [a:b]}\n"
      "metadata: { step: int, cfg: config_t, rank: int }\n");
  EXPECT_EQ(n.at("x").at(0).as_string(), "http://x");
  EXPECT_EQ(n.at("x").at(1).as_int(), 2);
  EXPECT_EQ(n.at("y").at("url").as_string(), "http://x");
  EXPECT_EQ(n.at("y").at("at").at(0).as_string(), "a:b");
  EXPECT_EQ(n.at("metadata").at("cfg").as_string(), "config_t");
  EXPECT_EQ(n.at("metadata").size(), 3u);
  // Keys end at ": ", at ':' before a flow indicator, and at JSON's ':'
  // after a quoted key.
  EXPECT_EQ(cfg::parse_yaml("{\"a\":1}").at("a").as_int(), 1);
  EXPECT_EQ(cfg::parse_yaml("{k: v}").at("k").as_string(), "v");
  EXPECT_TRUE(cfg::parse_yaml("{k:}").at("k").is_null());
  // As in YAML, a plain key glued to its value is one scalar, `a:1`.
  EXPECT_THROW((void)cfg::parse_yaml("{a:1}"), ConfigError);
}

TEST(Yaml, CommentsStripped) {
  const auto n = cfg::parse_yaml(R"(
a: 1  # trailing comment
# full line comment
b: 2
)");
  EXPECT_EQ(n.at("a").as_int(), 1);
  EXPECT_EQ(n.at("b").as_int(), 2);
}

TEST(Yaml, SequenceOfMaps) {
  const auto n = cfg::parse_yaml(R"(
items:
  - name: x
    size: 1
  - name: y
    size: 2
)");
  const auto& items = n.at("items").as_seq();
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].at("name").as_string(), "x");
  EXPECT_EQ(items[1].at("size").as_int(), 2);
}

TEST(Yaml, Listing1FromPaperParses) {
  // Faithful transcription of the paper's Listing 1.
  const auto n = cfg::parse_yaml(R"(
metadata: { step: int, cfg: config_t, rank: int }
data:
  temp: # the main temperature field
    type: array
    subtype: double
    size: [ '$cfg.loc[0]', '$cfg.loc[1]' ]
plugins:
  mpi: # get MPI rank and size
  PdiPluginDeisa:
    scheduler_info: scheduler.json
    init_on: init
    time_step: $step
    deisa_arrays: # Deisa Virtual arrays
      G_temp: # Field name
        type: array
        subtype: double
        size:
          - '$cfg.maxTimeStep'
          - '$cfg.loc[0] * $cfg.proc[0]'
          - '$cfg.loc[1] * $cfg.proc[1]'
        subsize: # Chunk size
          - 1
          - '$cfg.loc[0]'
          - '$cfg.loc[1]'
        start: # Chunk start
          - $step
          - '$cfg.loc[0] * ($rank % $cfg.proc[0])'
          - '$cfg.loc[1] * ($rank / $cfg.proc[0])'
        timedim: 0 # A tag for the time dimension
    map_in: # Deisa array mapping
      temp: G_temp
)");
  const auto& plugin = n.at("plugins").at("PdiPluginDeisa");
  EXPECT_EQ(plugin.at("scheduler_info").as_string(), "scheduler.json");
  EXPECT_EQ(plugin.at("time_step").as_string(), "$step");
  const auto& gtemp = plugin.at("deisa_arrays").at("G_temp");
  EXPECT_EQ(gtemp.at("subtype").as_string(), "double");
  EXPECT_EQ(gtemp.at("timedim").as_int(), 0);
  EXPECT_EQ(gtemp.at("size").size(), 3u);
  EXPECT_EQ(plugin.at("map_in").at("temp").as_string(), "G_temp");
  EXPECT_TRUE(n.at("plugins").at("mpi").is_null());
}

TEST(Yaml, TabIndentRejected) {
  EXPECT_THROW(cfg::parse_yaml("a:\n\tb: 1\n"), ConfigError);
}

TEST(Yaml, MissingKeyThrowsWithName) {
  const auto n = cfg::parse_yaml("a: 1\n");
  try {
    (void)n.at("missing");
    FAIL();
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("missing"), std::string::npos);
  }
}

TEST(Yaml, DefaultsHelpers) {
  const auto n = cfg::parse_yaml("a: 1\nname: x\n");
  EXPECT_EQ(n.get_int("a", 9), 1);
  EXPECT_EQ(n.get_int("zzz", 9), 9);
  EXPECT_EQ(n.get_string("name", "d"), "x");
  EXPECT_EQ(n.get_string("zzz", "d"), "d");
  EXPECT_TRUE(n.get_bool("zzz", true));
}

TEST(Yaml, JsonDocumentParses) {
  const auto n = cfg::parse_yaml(R"(
{
  "empty_map": {},
  "empty_seq": [ ],
  "nested": {"a": [1, {"b": [[], {}]}],
             "c": {"d": "e"}},
  "literals": [true, false, null],
  "numbers": [-12, 3.5e2, -1.25E-3, 0],
  "escapes": "q\" b\\ s\/ \b\f\n\r\t \u00e9 \ud83d\ude00",
  "not a comment": "a # b"
}
)");
  EXPECT_TRUE(n.at("empty_map").is_map());
  EXPECT_EQ(n.at("empty_map").size(), 0u);
  EXPECT_EQ(n.at("empty_seq").kind(), cfg::Node::Kind::kSeq);
  EXPECT_EQ(n.at("empty_seq").size(), 0u);
  const auto& b = n.at("nested").at("a").at(1).at("b");
  EXPECT_EQ(n.at("nested").at("a").at(0).as_int(), 1);
  EXPECT_EQ(b.at(0).kind(), cfg::Node::Kind::kSeq);
  EXPECT_TRUE(b.at(1).is_map());
  EXPECT_EQ(n.at("nested").at("c").at("d").as_string(), "e");
  EXPECT_TRUE(n.at("literals").at(0).as_bool());
  EXPECT_FALSE(n.at("literals").at(1).as_bool());
  EXPECT_TRUE(n.at("literals").at(2).is_null());
  const auto& nums = n.at("numbers");
  EXPECT_EQ(nums.at(0).kind(), cfg::Node::Kind::kInt);
  EXPECT_EQ(nums.at(0).as_int(), -12);
  EXPECT_EQ(nums.at(1).kind(), cfg::Node::Kind::kFloat);
  EXPECT_DOUBLE_EQ(nums.at(1).as_double(), 350.0);
  EXPECT_DOUBLE_EQ(nums.at(2).as_double(), -1.25e-3);
  EXPECT_EQ(nums.at(3).as_int(), 0);
  EXPECT_EQ(n.at("escapes").as_string(),
            "q\" b\\ s/ \b\f\n\r\t \xc3\xa9 \xf0\x9f\x98\x80");
  EXPECT_EQ(n.at("not a comment").as_string(), "a # b");

  const auto top = cfg::parse_yaml("\n  [1, [2, 3],\n   {\"k\": \"v\"}\n]\n");
  ASSERT_EQ(top.kind(), cfg::Node::Kind::kSeq);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top.at(1).at(1).as_int(), 3);
  EXPECT_EQ(top.at(2).at("k").as_string(), "v");
}

TEST(Yaml, DoubleQuotedScalarsDecodeEscapes) {
  const auto n = cfg::parse_yaml(R"(
"tab\tkey \"q\"": "a\nb \\ \/ \u00e9 # kept"  # stripped
single: 'no \n escape'
list:
  - "\ud83d\ude00"
)");
  EXPECT_EQ(n.at("tab\tkey \"q\"").as_string(), "a\nb \\ / \xc3\xa9 # kept");
  EXPECT_EQ(n.at("single").as_string(), "no \\n escape");
  EXPECT_EQ(n.at("list").at(0).as_string(), "\xf0\x9f\x98\x80");
}

TEST(Yaml, SingleQuotesFoldDoubledQuote) {
  const auto n = cfg::parse_yaml(R"(
a: 'it''s'
'k''ey': 'x # y'''  # comment
flow: ['don''t', b]
)");
  EXPECT_EQ(n.at("a").as_string(), "it's");
  EXPECT_EQ(n.at("k'ey").as_string(), "x # y'");
  EXPECT_EQ(n.at("flow").at(0).as_string(), "don't");
  EXPECT_EQ(n.at("flow").at(1).as_string(), "b");
}

TEST(Yaml, MalformedInputNamesItsLine) {
  const auto error_of = [](const std::string& text) -> std::string {
    try {
      (void)cfg::parse_yaml(text);
    } catch (const ConfigError& e) {
      return e.what();
    }
    return "no error";
  };
  EXPECT_EQ(error_of("{\n\"a\": \"open\n}\n"),
            "yaml line 2: unterminated quoted string");
  EXPECT_EQ(error_of("{\"a\": 1,\n\n \"b\": \"\\u12G4\"}"),
            "yaml line 3: bad \\u escape");
  EXPECT_EQ(error_of("[\n\"\\ud83d x\"]"), "yaml line 2: unpaired surrogate");
  EXPECT_EQ(error_of("[\"\\ude00\"]"), "yaml line 1: unpaired surrogate");
  EXPECT_EQ(error_of("{\"a\": [1, 2\n}"),
            "yaml line 2: expected ',' or ']' in flow sequence");
  EXPECT_EQ(error_of("a: 1\nb: \"open\n"),
            "yaml line 2: unterminated quoted string");
}

cfg::Node i64(std::int64_t v) { return cfg::Node{v}; }

cfg::Env listing1_env(std::int64_t rank) {
  cfg::Env env;
  env.set("cfg", cfg::Map{{"loc", cfg::Seq{i64(100), i64(200)}},
                          {"proc", cfg::Seq{i64(4), i64(2)}},
                          {"maxTimeStep", i64(10)}});
  env.set("rank", i64(rank));
  env.set("step", i64(3));
  return env;
}

TEST(Expr, ArithmeticAndPrecedence) {
  cfg::Env env;
  EXPECT_EQ(cfg::eval_int("1 + 2 * 3", env), 7);
  EXPECT_EQ(cfg::eval_int("(1 + 2) * 3", env), 9);
  EXPECT_EQ(cfg::eval_int("7 % 4", env), 3);
  EXPECT_EQ(cfg::eval_int("8 / 2 - 1", env), 3);
  EXPECT_EQ(cfg::eval_int("-4 + 10", env), 6);
}

TEST(Expr, Listing1Expressions) {
  const auto env = listing1_env(/*rank=*/6);
  // rank 6 in a 4x2 grid -> position (6 % 4, 6 / 4) = (2, 1)
  EXPECT_EQ(cfg::eval_int("$cfg.loc[0] * ($rank % $cfg.proc[0])", env), 200);
  EXPECT_EQ(cfg::eval_int("$cfg.loc[1] * ($rank / $cfg.proc[0])", env), 200);
  EXPECT_EQ(cfg::eval_int("$cfg.maxTimeStep", env), 10);
  EXPECT_EQ(cfg::eval_int("$step", env), 3);
  EXPECT_EQ(cfg::eval_int("$cfg.loc[0] * $cfg.proc[0]", env), 400);
}

TEST(Expr, BracedReference) {
  auto env = listing1_env(0);
  EXPECT_EQ(cfg::eval_int("${step} + 1", env), 4);
}

TEST(Expr, PlainStringsPassThrough) {
  cfg::Env env;
  const auto v = cfg::eval_expr("hello", env);
  EXPECT_EQ(v.kind(), cfg::Node::Kind::kString);
  EXPECT_EQ(v.as_string(), "hello");
}

TEST(Expr, UndefinedVariableThrows) {
  cfg::Env env;
  EXPECT_THROW(cfg::eval_int("$nope", env), ConfigError);
}

TEST(Expr, IndexOutOfRangeThrows) {
  const auto env = listing1_env(0);
  EXPECT_THROW(cfg::eval_int("$cfg.loc[5]", env), ConfigError);
}

TEST(Expr, DivisionByZeroThrows) {
  cfg::Env env;
  EXPECT_THROW(cfg::eval_int("1 / 0", env), ConfigError);
  EXPECT_THROW(cfg::eval_int("1 % 0", env), ConfigError);
}

TEST(Expr, FloatArithmetic) {
  cfg::Env env;
  const auto v = cfg::eval_expr("1.5 * 4", env);
  EXPECT_EQ(v.kind(), cfg::Node::Kind::kFloat);
  EXPECT_DOUBLE_EQ(v.as_double(), 6.0);
}

TEST(Expr, ParsedSubtreeIsAnEnvironmentValue) {
  const auto n = cfg::parse_yaml(R"(
cfg:
  loc: [100, 200]
  proc: [4, 2]
  maxTimeStep: 10
)");
  cfg::Env env;
  env.set("cfg", n.at("cfg"));
  EXPECT_EQ(cfg::eval_int("$cfg.loc[1] + $cfg.proc[0]", env), 204);
  // A bare reference evaluates to the node it names.
  EXPECT_EQ(cfg::eval_expr("$cfg.proc", env), n.at("cfg").at("proc"));
}

TEST(Expr, NegativeIndexThrows) {
  const auto env = listing1_env(0);
  EXPECT_THROW(cfg::eval_int("$cfg.loc[-1]", env), ConfigError);
  EXPECT_THROW(cfg::eval_int("$cfg.loc[0 - 2]", env), ConfigError);
}

TEST(Expr, BoolOrNullInArithmeticThrows) {
  cfg::Env env;
  env.set("flag", cfg::Node{true});
  env.set("none", cfg::Node{});
  EXPECT_THROW(cfg::eval_int("$flag + 1", env), ConfigError);
  EXPECT_THROW(cfg::eval_int("2 * $none", env), ConfigError);
  EXPECT_THROW(cfg::eval_int("-$flag", env), ConfigError);
  EXPECT_THROW(cfg::eval_int("$none", env), ConfigError);
}

TEST(Expr, EvalIntTruncatesFloats) {
  const auto env = listing1_env(0);
  EXPECT_EQ(cfg::eval_int("7 / 2.0", env), 3);
  EXPECT_EQ(cfg::eval_int("-7 / 2.0", env), -3);
  EXPECT_EQ(cfg::eval_int("$cfg.loc[1.9]", env), 200);
}

TEST(Expr, EvalIntOnNodes) {
  const auto env = listing1_env(1);
  EXPECT_EQ(cfg::eval_node_int(cfg::Node{std::int64_t{5}}, env), 5);
  EXPECT_EQ(cfg::eval_node_int(cfg::Node{"$rank + 1"}, env), 2);
  EXPECT_THROW(cfg::eval_node_int(cfg::Node{cfg::Seq{}}, env), ConfigError);
}

}  // namespace
