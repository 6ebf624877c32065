#include "deisa/dts/policy.hpp"

namespace deisa::dts {

int locality_owner(const std::vector<int>& owners,
                   const std::vector<std::uint64_t>& bytes) {
  // best starts at -1 with best_bytes 0, and the tie clause requires
  // best >= 0, so only a strictly positive byte count can seat a first
  // candidate. That quirk is pinned by tests/test_policy.cpp.
  int best = -1;
  std::uint64_t best_bytes = 0;
  for (std::size_t j = 0; j < owners.size(); ++j) {
    const std::uint64_t b = bytes[j];
    if (b > best_bytes || (b == best_bytes && best >= 0 && owners[j] < best)) {
      best = owners[j];
      best_bytes = b;
    }
  }
  return best;
}

}  // namespace deisa::dts
