#include "deisa/config/yaml.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <optional>
#include <sstream>

#include "deisa/util/error.hpp"
#include "deisa/util/strings.hpp"

namespace deisa::config {

using util::ConfigError;

namespace {

struct Line {
  int indent = 0;
  std::string content;  // without indentation or trailing comment
  std::size_t number = 0;
};

[[noreturn]] void fail(std::size_t line, const std::string& msg) {
  throw ConfigError("yaml line " + std::to_string(line) + ": " + msg);
}

/// Index of the quote closing the quoted scalar opened at s[open], or npos
/// when unterminated. A backslash escapes the next character inside
/// double quotes; '' is a literal quote inside single quotes.
std::size_t closing_quote(std::string_view s, std::size_t open) {
  const char q = s[open];
  for (std::size_t i = open + 1; i < s.size(); ++i) {
    if (q == '"' && s[i] == '\\') ++i;
    else if (s[i] == q && q == '\'' && i + 1 < s.size() && s[i + 1] == q) ++i;
    else if (s[i] == q) return i;
  }
  return std::string_view::npos;
}

/// Strip a trailing comment that is not inside quotes.
std::string_view strip_comment(std::string_view s) {
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\'' || s[i] == '"') {
      i = closing_quote(s, i);
      if (i == std::string_view::npos) break;
    } else if (s[i] == '#' &&
               (i == 0 || s[i - 1] == ' ' || s[i - 1] == '\t')) {
      return s.substr(0, i);
    }
  }
  return s;
}

std::vector<Line> tokenize(std::string_view text) {
  std::vector<Line> lines;
  std::size_t number = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view raw = text.substr(start, end - start);
    ++number;
    start = end + 1;
    if (end == text.size() && raw.empty() && start > text.size()) break;

    int indent = 0;
    while (static_cast<std::size_t>(indent) < raw.size() &&
           raw[static_cast<std::size_t>(indent)] == ' ')
      ++indent;
    if (static_cast<std::size_t>(indent) < raw.size() &&
        raw[static_cast<std::size_t>(indent)] == '\t')
      fail(number, "tabs are not allowed for indentation");
    std::string_view trimmed =
        util::trim(strip_comment(raw.substr(static_cast<std::size_t>(indent))));
    if (trimmed.empty()) continue;
    lines.push_back(Line{indent, std::string(trimmed), number});
    if (end == text.size()) break;
  }
  return lines;
}

/// Parse a plain (unquoted) scalar into the most specific Node kind.
Node plain_scalar(std::string_view s) {
  if (s.empty() || s == "~" || s == "null") return Node{};
  if (s == "true" || s == "True") return Node{true};
  if (s == "false" || s == "False") return Node{false};
  const char* last = s.data() + s.size();
  std::int64_t i = 0;
  if (auto [p, ec] = std::from_chars(s.data(), last, i);
      ec == std::errc() && p == last)
    return Node{i};
  double d = 0.0;
  if (auto [p, ec] = std::from_chars(s.data(), last, d);
      ec == std::errc() && p == last)
    return Node{d};
  return Node{std::string(s)};
}

void append_utf8(std::string& out, unsigned cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
    return;
  }
  static constexpr unsigned char kLead[] = {0, 0, 0xC0, 0xE0, 0xF0};
  const int n = cp < 0x800 ? 2 : cp < 0x10000 ? 3 : 4;  // bytes
  out += static_cast<char>(kLead[n] | (cp >> (6 * (n - 1))));
  for (int i = n - 2; i >= 0; --i)
    out += static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3F));
}

/// Flow values ({...}, [...], quoted and plain scalars). `s` starts on
/// line `line`; a whole JSON document is one flow value over many lines.
class FlowParser {
public:
  FlowParser(std::string_view s, std::size_t line) : s_(s), line_(line) {}

  Node parse() {
    Node n = parse_value();
    skip_ws();
    if (pos_ != s_.size()) fail_here("trailing characters after flow value");
    return n;
  }

private:
  [[noreturn]] void fail_here(const std::string& msg) const {
    const auto upto = s_.substr(0, std::min(pos_, s_.size()));
    fail(line_ + static_cast<std::size_t>(
                     std::count(upto.begin(), upto.end(), '\n')),
         msg);
  }

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r'))
      ++pos_;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  bool at_quote() const { return peek() == '"' || peek() == '\''; }

  Node parse_value() {
    skip_ws();
    if (peek() == '{') return parse_map();
    if (peek() == '[') return parse_seq();
    if (at_quote()) return Node{quoted()};
    return plain_scalar(plain_token());
  }

  /// At a ':' that ends a plain scalar: whitespace, ',', ']', '}' or the
  /// end of the input follows it. So `http://x` is one scalar, as is `a:1`.
  bool at_value_colon() const {
    return peek() == ':' &&
           (pos_ + 1 == s_.size() ||
            std::string_view(" \t\n\r,]}").find(s_[pos_ + 1]) !=
                std::string_view::npos);
  }

  std::string_view plain_token() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] != ',' && s_[pos_] != '}' &&
           s_[pos_] != ']' && !at_value_colon())
      ++pos_;
    return util::trim(s_.substr(start, pos_ - start));
  }

  /// A quoted scalar, decoded: double quotes take the escapes YAML and
  /// JSON share (\" \\ \/ \b \f \n \r \t \uXXXX), single quotes fold ''.
  std::string quoted() {
    const char q = s_[pos_++];
    std::string out;
    while (true) {
      const std::size_t stop = s_.find_first_of(q == '"' ? "\"\\" : "'", pos_);
      if (stop == std::string_view::npos)
        fail_here("unterminated quoted string");
      out.append(s_.substr(pos_, stop - pos_));
      pos_ = stop + 1;
      if (s_[stop] == q) {
        if (q == '"' || peek() != q) return out;
        out += q;  // '' inside single quotes
        ++pos_;
        continue;
      }
      if (pos_ == s_.size()) fail_here("unterminated quoted string");
      const char e = s_[pos_++];
      switch (e) {
        case '"': case '\\': case '/': out += e; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_utf8(out, code_point()); break;
        default: fail_here(std::string("unknown escape '\\") + e + "'");
      }
    }
  }

  unsigned hex4() {
    unsigned v = 0;
    const char* p = s_.data() + pos_;
    if (s_.size() - pos_ < 4 || std::from_chars(p, p + 4, v, 16).ptr != p + 4)
      fail_here("bad \\u escape");
    pos_ += 4;
    return v;
  }

  /// \uXXXX, joining a UTF-16 surrogate pair into one code point.
  unsigned code_point() {
    const unsigned hi = hex4();
    if (hi < 0xD800 || hi > 0xDFFF) return hi;
    if (hi > 0xDBFF || s_.substr(pos_, 2) != "\\u")
      fail_here("unpaired surrogate");
    pos_ += 2;
    const unsigned lo = hex4();
    if (lo < 0xDC00 || lo > 0xDFFF) fail_here("unpaired surrogate");
    return 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
  }

  /// After an item: true on ',', false on `close`.
  bool next_item(char close) {
    skip_ws();
    if (peek() == ',' || peek() == close) return s_[pos_++] == ',';
    fail_here(close == '}' ? "expected ',' or '}' in flow map"
                           : "expected ',' or ']' in flow sequence");
  }

  Node parse_map() {
    ++pos_;  // '{'
    Map map;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Node{std::move(map)};
    }
    do {
      skip_ws();
      std::string key = at_quote() ? quoted() : std::string(plain_token());
      skip_ws();
      if (peek() != ':') fail_here("expected ':' in flow map");
      ++pos_;
      map.emplace_back(std::move(key), parse_value());
    } while (next_item('}'));
    return Node{std::move(map)};
  }

  Node parse_seq() {
    ++pos_;  // '['
    Seq seq;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Node{std::move(seq)};
    }
    do seq.push_back(parse_value());
    while (next_item(']'));
    return Node{std::move(seq)};
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  std::size_t line_;
};

/// A block value: a flow collection or quoted scalar must fill it, any
/// other text is one plain scalar.
Node parse_flow_or_scalar(std::string_view s, std::size_t line) {
  if (!s.empty() && (s.front() == '{' || s.front() == '[' ||
                     s.front() == '"' || s.front() == '\''))
    return FlowParser(s, line).parse();
  return plain_scalar(s);
}

/// Split "key: value" at the first ':' that is outside quotes and not
/// inside a flow collection; a quoted key is decoded. Returns nullopt for
/// non-mapping lines.
std::optional<std::pair<std::string, std::string_view>> split_key_value(
    std::string_view s, std::size_t line) {
  int depth = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '\'' || c == '"') {
      i = closing_quote(s, i);
      if (i == std::string_view::npos) return std::nullopt;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
    } else if (c == ':' && depth == 0 &&
               (i + 1 == s.size() || s[i + 1] == ' ' || s[i + 1] == '\t')) {
      const std::string_view key = util::trim(s.substr(0, i));
      return std::make_pair(
          !key.empty() && (key.front() == '"' || key.front() == '\'')
              ? FlowParser(key, line).parse().as_string()
              : std::string(key),
          util::trim(s.substr(i + 1)));
    }
  }
  return std::nullopt;
}

class BlockParser {
public:
  explicit BlockParser(std::vector<Line> lines) : lines_(std::move(lines)) {}

  Node parse() {
    if (lines_.empty()) return Node{};
    Node root = parse_block(lines_[0].indent);
    if (pos_ != lines_.size())
      fail(lines_[pos_].number, "unexpected dedent/indent structure");
    return root;
  }

private:
  const Line& cur() const { return lines_[pos_]; }
  bool done() const { return pos_ >= lines_.size(); }

  Node parse_block(int indent) {
    if (cur().content.front() == '-' &&
        (cur().content.size() == 1 || cur().content[1] == ' ' ||
         cur().content[1] == '\t'))
      return parse_seq_block(indent);
    return parse_map_block(indent);
  }

  Node parse_map_block(int indent) {
    Map map;
    while (!done() && cur().indent == indent) {
      const Line line = cur();
      auto kv = split_key_value(line.content, line.number);
      if (!kv) fail(line.number, "expected 'key: value' mapping");
      ++pos_;
      auto& [key, value] = *kv;
      if (!value.empty()) {
        map.emplace_back(key, parse_flow_or_scalar(value, line.number));
      } else if (!done() && cur().indent > indent) {
        map.emplace_back(key, parse_block(cur().indent));
      } else {
        map.emplace_back(key, Node{});
      }
    }
    if (!done() && cur().indent > indent)
      fail(cur().number, "unexpected indentation");
    return Node{std::move(map)};
  }

  Node parse_seq_block(int indent) {
    Seq seq;
    while (!done() && cur().indent == indent && cur().content.front() == '-') {
      const Line line = cur();
      std::string rest(util::trim(std::string_view(line.content).substr(1)));
      ++pos_;
      if (rest.empty()) {
        if (!done() && cur().indent > indent) {
          seq.push_back(parse_block(cur().indent));
        } else {
          seq.push_back(Node{});
        }
        continue;
      }
      // "- key: value" starts an inline map item that may continue on the
      // following, deeper-indented lines.
      auto kv = split_key_value(rest, line.number);
      if (kv && rest.front() != '{' && rest.front() != '[') {
        Map item;
        auto& [key, value] = *kv;
        if (!value.empty()) {
          item.emplace_back(key, parse_flow_or_scalar(value, line.number));
        } else if (!done() && cur().indent > indent + 2) {
          item.emplace_back(key, parse_block(cur().indent));
        } else {
          item.emplace_back(key, Node{});
        }
        // Continuation keys aligned two past the dash.
        const int item_indent = indent + 2;
        while (!done() && cur().indent == item_indent) {
          const Line more = cur();
          auto kv2 = split_key_value(more.content, more.number);
          if (!kv2) fail(more.number, "expected mapping in sequence item");
          ++pos_;
          auto& [k2, v2] = *kv2;
          if (!v2.empty()) {
            item.emplace_back(k2, parse_flow_or_scalar(v2, more.number));
          } else if (!done() && cur().indent > item_indent) {
            item.emplace_back(k2, parse_block(cur().indent));
          } else {
            item.emplace_back(k2, Node{});
          }
        }
        seq.push_back(Node{std::move(item)});
      } else {
        seq.push_back(parse_flow_or_scalar(rest, line.number));
      }
    }
    return Node{std::move(seq)};
  }

  std::vector<Line> lines_;
  std::size_t pos_ = 0;
};

}  // namespace

Node parse_yaml(std::string_view text) {
  const std::string_view body = util::trim(text);
  if (!body.empty() && (body.front() == '{' || body.front() == '['))
    return FlowParser(text, 1).parse();  // a JSON document
  return BlockParser(tokenize(text)).parse();
}

Node parse_yaml_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open yaml file: " + path);
  std::ostringstream oss;
  oss << in.rdbuf();
  return parse_yaml(oss.str());
}

}  // namespace deisa::config
