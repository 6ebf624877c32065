#include "deisa/config/expr.hpp"

#include <cctype>
#include <charconv>

#include "deisa/util/error.hpp"

namespace deisa::config {

using util::ConfigError;

const Node& Env::get(const std::string& name) const {
  const auto it = vars_.find(name);
  if (it == vars_.end())
    throw ConfigError("undefined expression variable: $" + name);
  return it->second;
}

namespace {

/// Integer value of a number node; floats truncate toward zero as PDI does.
std::int64_t truncate(const Node& v) {
  return v.kind() == Node::Kind::kFloat
             ? static_cast<std::int64_t>(v.as_double())
             : v.as_int();
}

class ExprParser {
public:
  ExprParser(std::string_view s, const Env& env) : s_(s), env_(env) {}

  Node parse() {
    Node v = parse_sum();
    skip_ws();
    if (pos_ != s_.size())
      throw ConfigError("trailing characters in expression: '" +
                        std::string(s_) + "'");
    return v;
  }

private:
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t')) ++pos_;
  }
  char peek() {
    skip_ws();
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }

  static Node arith(char op, const Node& a, const Node& b) {
    if (a.kind() == Node::Kind::kInt && b.kind() == Node::Kind::kInt) {
      const std::int64_t x = a.as_int();
      const std::int64_t y = b.as_int();
      switch (op) {
        case '+': return Node{x + y};
        case '-': return Node{x - y};
        case '*': return Node{x * y};
        case '/':
          if (y == 0) throw ConfigError("division by zero in expression");
          return Node{x / y};
        case '%':
          if (y == 0) throw ConfigError("modulo by zero in expression");
          return Node{x % y};
        default: break;
      }
    }
    const double x = a.as_double();
    const double y = b.as_double();
    switch (op) {
      case '+': return Node{x + y};
      case '-': return Node{x - y};
      case '*': return Node{x * y};
      case '/':
        if (y == 0.0) throw ConfigError("division by zero in expression");
        return Node{x / y};
      case '%': throw ConfigError("modulo of non-integer values");
      default: throw ConfigError("unknown operator");
    }
  }

  Node parse_sum() {
    Node v = parse_term();
    while (true) {
      const char c = peek();
      if (c != '+' && c != '-') return v;
      ++pos_;
      v = arith(c, v, parse_term());
    }
  }

  Node parse_term() {
    Node v = parse_factor();
    while (true) {
      const char c = peek();
      if (c != '*' && c != '/' && c != '%') return v;
      ++pos_;
      v = arith(c, v, parse_factor());
    }
  }

  Node parse_factor() {
    const char c = peek();
    if (c == '(') {
      ++pos_;
      Node v = parse_sum();
      if (peek() != ')') throw ConfigError("missing ')' in expression");
      ++pos_;
      return v;
    }
    if (c == '-') {
      ++pos_;
      const Node v = parse_factor();
      if (v.kind() == Node::Kind::kInt) return Node{-v.as_int()};
      return Node{-v.as_double()};
    }
    if (c == '$') return parse_reference();
    return parse_number();
  }

  Node parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.'))
      ++pos_;
    if (start == pos_)
      throw ConfigError("expected number in expression: '" + std::string(s_) +
                        "' at offset " + std::to_string(pos_));
    std::string_view tok = s_.substr(start, pos_ - start);
    if (tok.find('.') == std::string_view::npos) {
      std::int64_t v = 0;
      auto [ptr, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
      if (ec != std::errc() || ptr != tok.data() + tok.size())
        throw ConfigError("bad integer literal: " + std::string(tok));
      return Node{v};
    }
    double v = 0.0;
    auto [ptr, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
    if (ec != std::errc() || ptr != tok.data() + tok.size())
      throw ConfigError("bad float literal: " + std::string(tok));
    return Node{v};
  }

  std::string parse_ident() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isalnum(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '_'))
      ++pos_;
    if (start == pos_) throw ConfigError("expected identifier after '$'/'.'");
    return std::string(s_.substr(start, pos_ - start));
  }

  Node parse_reference() {
    ++pos_;  // '$'
    // PDI allows ${name}; accept and strip braces.
    bool braced = false;
    if (pos_ < s_.size() && s_[pos_] == '{') {
      braced = true;
      ++pos_;
    }
    const Node* v = &env_.get(parse_ident());
    while (pos_ < s_.size()) {
      if (s_[pos_] == '.') {
        ++pos_;
        v = &v->at(parse_ident());
      } else if (s_[pos_] == '[') {
        ++pos_;
        const std::int64_t i = truncate(parse_sum());
        if (peek() != ']') throw ConfigError("missing ']' in expression");
        ++pos_;
        if (i < 0)
          throw ConfigError("negative index " + std::to_string(i) +
                            " in expression");
        v = &v->at(static_cast<std::size_t>(i));
      } else {
        break;
      }
    }
    if (braced) {
      if (pos_ >= s_.size() || s_[pos_] != '}')
        throw ConfigError("missing '}' in ${...} reference");
      ++pos_;
    }
    return *v;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  const Env& env_;
};

bool looks_like_expression(std::string_view s) {
  return s.find('$') != std::string_view::npos;
}

}  // namespace

Node eval_expr(std::string_view expr, const Env& env) {
  if (!looks_like_expression(expr)) {
    // Literal-only strings still go through the parser when they contain
    // arithmetic; otherwise they are plain strings.
    bool numeric = !expr.empty();
    for (char c : expr) {
      if (std::isdigit(static_cast<unsigned char>(c)) == 0 && c != '.' &&
          c != ' ' && c != '+' && c != '-' && c != '*' && c != '/' &&
          c != '%' && c != '(' && c != ')') {
        numeric = false;
        break;
      }
    }
    if (!numeric) return Node{std::string(expr)};
  }
  return ExprParser(expr, env).parse();
}

std::int64_t eval_int(std::string_view expr, const Env& env) {
  const Node v = eval_expr(expr, env);
  if (!v.is_number())
    throw ConfigError("expression is not numeric: '" + std::string(expr) + "'");
  return truncate(v);
}

std::int64_t eval_node_int(const Node& node, const Env& env) {
  if (node.is_number()) return truncate(node);
  if (node.kind() == Node::Kind::kString)
    return eval_int(std::string_view(node.as_string()), env);
  throw ConfigError("config node is not an integer or expression: " +
                    node.to_string());
}

}  // namespace deisa::config
