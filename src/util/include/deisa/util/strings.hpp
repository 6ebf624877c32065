// Small string helpers shared by the config parser and the fault-spec
// parser.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace deisa::util {

std::vector<std::string> split(std::string_view s, char sep);
std::string_view trim(std::string_view s);

}  // namespace deisa::util
