// Document tree: the one dynamic tree of the codebase. The mini-YAML
// parser produces it (for YAML configs and JSON documents such as Chrome
// traces); the PDI layer, the DEISA plugin and the $-expression
// evaluator consume it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace deisa::config {

class Node;

/// Ordered map — YAML mappings preserve key order.
using Map = std::vector<std::pair<std::string, Node>>;
using Seq = std::vector<Node>;

/// One node of a parsed configuration document.
class Node {
public:
  enum class Kind { kNull, kBool, kInt, kFloat, kString, kSeq, kMap };

  Node() : value_(std::monostate{}) {}
  Node(bool b) : value_(b) {}                          // NOLINT(runtime/explicit)
  Node(std::int64_t i) : value_(i) {}                  // NOLINT(runtime/explicit)
  Node(double d) : value_(d) {}                        // NOLINT(runtime/explicit)
  Node(std::string s) : value_(std::move(s)) {}        // NOLINT(runtime/explicit)
  Node(const char* s) : value_(std::string(s)) {}      // NOLINT(runtime/explicit)
  Node(Seq seq) : value_(std::move(seq)) {}            // NOLINT(runtime/explicit)
  Node(Map map) : value_(std::move(map)) {}            // NOLINT(runtime/explicit)

  Kind kind() const;
  bool is_null() const { return kind() == Kind::kNull; }
  bool is_map() const { return kind() == Kind::kMap; }
  /// kInt or kFloat: what as_double() accepts.
  bool is_number() const {
    return kind() == Kind::kInt || kind() == Kind::kFloat;
  }
  bool is_scalar() const;

  // Typed accessors; throw ConfigError on kind mismatch.
  bool as_bool() const;
  std::int64_t as_int() const;
  /// Accepts both kInt and kFloat.
  double as_double() const;
  const std::string& as_string() const;
  const Seq& as_seq() const;
  const Map& as_map() const;

  /// Map lookup; throws ConfigError when missing.
  const Node& at(const std::string& key) const;
  /// Map lookup; returns nullptr when missing (or when not a map).
  const Node* find(const std::string& key) const;
  bool contains(const std::string& key) const { return find(key) != nullptr; }

  /// Sequence element access with bounds check.
  const Node& at(std::size_t index) const;
  std::size_t size() const;

  /// Scalar-with-default helpers for optional config keys.
  std::int64_t get_int(const std::string& key, std::int64_t dflt) const;
  double get_double(const std::string& key, double dflt) const;
  std::string get_string(const std::string& key, const std::string& dflt) const;
  bool get_bool(const std::string& key, bool dflt) const;

  /// Mutable map insertion (builders and tests).
  void set(const std::string& key, Node value);
  void push_back(Node value);

  /// Canonical flow-style rendering (debugging, golden tests).
  std::string to_string() const;

  bool operator==(const Node& other) const { return value_ == other.value_; }

private:
  std::variant<std::monostate, bool, std::int64_t, double, std::string, Seq,
               Map>
      value_;
};

}  // namespace deisa::config
