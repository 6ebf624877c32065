// $-expression evaluator for configuration values, mirroring the PDI
// specification-tree expressions used in the paper's Listing 1, e.g.
//   '$cfg.loc[0] * ($rank % $cfg.proc[0])'
// Supported: integer/float literals, $references with .field and [index]
// access, unary minus, + - * / %, and parentheses. Values are config
// Nodes: a $reference walks a tree exactly as parse_yaml built it, and
// arithmetic on kInt/kFloat nodes yields a kInt or kFloat node.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "deisa/config/node.hpp"

namespace deisa::config {

/// Name → node environment for $references.
class Env {
public:
  void set(const std::string& name, Node v) { vars_[name] = std::move(v); }
  const Node& get(const std::string& name) const;
  bool contains(const std::string& name) const {
    return vars_.count(name) != 0;
  }

private:
  std::map<std::string, Node> vars_;
};

/// Evaluate an expression string against an environment: an int or float
/// node, or the node a bare $reference names. A plain string without '$'
/// and without operators evaluates to itself (a kString node).
Node eval_expr(std::string_view expr, const Env& env);

/// Evaluate to an integer (throws ConfigError if the result is not a
/// number; floats are truncated toward zero as PDI does).
std::int64_t eval_int(std::string_view expr, const Env& env);

/// Evaluate a config Node that may be a literal or an expression string.
std::int64_t eval_node_int(const Node& node, const Env& env);

}  // namespace deisa::config
