// $-expression evaluator for configuration values, mirroring the PDI
// specification-tree expressions used in the paper's Listing 1, e.g.
//   '$cfg.loc[0] * ($rank % $cfg.proc[0])'
// Supported: integer/float literals, $references with .field and [index]
// access, unary minus, + - * / %, and parentheses.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "deisa/config/node.hpp"

namespace deisa::config {

/// Value domain of expression evaluation.
class Value {
public:
  Value() : v_(std::int64_t{0}) {}
  Value(std::int64_t i) : v_(i) {}                // NOLINT(runtime/explicit)
  Value(double d) : v_(d) {}                      // NOLINT(runtime/explicit)
  Value(std::string s) : v_(std::move(s)) {}      // NOLINT(runtime/explicit)
  Value(std::vector<Value> seq) : v_(std::move(seq)) {}  // NOLINT
  Value(std::map<std::string, Value> m) : v_(std::move(m)) {}  // NOLINT

  bool is_int() const { return std::holds_alternative<std::int64_t>(v_); }
  bool is_float() const { return std::holds_alternative<double>(v_); }
  bool is_number() const { return is_int() || is_float(); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_map() const {
    return std::holds_alternative<std::map<std::string, Value>>(v_);
  }

  std::int64_t as_int() const;
  double as_double() const;
  const std::string& as_string() const;
  const std::vector<Value>& as_seq() const;
  const std::map<std::string, Value>& as_map() const;

  const Value& field(const std::string& name) const;
  const Value& index(std::int64_t i) const;

private:
  std::variant<std::int64_t, double, std::string, std::vector<Value>,
               std::map<std::string, Value>>
      v_;
};

/// Name → value environment for $references.
class Env {
public:
  void set(const std::string& name, Value v) { vars_[name] = std::move(v); }
  const Value& get(const std::string& name) const;
  bool contains(const std::string& name) const {
    return vars_.count(name) != 0;
  }

private:
  std::map<std::string, Value> vars_;
};

/// Evaluate an expression string against an environment.
/// A plain string without '$' and without operators evaluates to itself.
Value eval_expr(std::string_view expr, const Env& env);

/// Evaluate to an integer (throws ConfigError if the result is not a
/// number; floats are truncated toward zero as PDI does).
std::int64_t eval_int(std::string_view expr, const Env& env);

/// Evaluate a config Node that may be a literal or an expression string.
std::int64_t eval_node_int(const Node& node, const Env& env);

/// Convert a parsed config Node into an expression Value (maps/seqs
/// recurse; scalars map to the corresponding Value kind).
Value to_value(const Node& node);

}  // namespace deisa::config
