// Mini-YAML parser — the subset used by PDI-style specification trees
// (block maps and sequences by indentation, flow maps/seqs, quoted
// scalars, comments). Deliberately not a full YAML implementation: no
// anchors, tags, multi-documents, or block scalars.
//
// It also reads JSON, YAML's flow subset: a document whose first
// non-blank character is '{' or '[' is one flow value that may span
// lines, with no comments in it. Double-quoted scalars decode the escapes
// YAML and JSON share (\" \\ \/ \b \f \n \r \t and \uXXXX, surrogate
// pairs included); single-quoted ones fold '' into '. The trace loader
// in src/obs reads Chrome traces back through it.
#pragma once

#include <string>
#include <string_view>

#include "deisa/config/node.hpp"

namespace deisa::config {

/// Parse a YAML document from text; throws util::ConfigError with a line
/// number on malformed input.
Node parse_yaml(std::string_view text);

/// Parse a YAML document from a file.
Node parse_yaml_file(const std::string& path);

}  // namespace deisa::config
