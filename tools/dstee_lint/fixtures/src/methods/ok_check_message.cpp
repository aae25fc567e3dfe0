// Fixture: the eager-check-message rule covers src/tensor/, src/nn/ and
// src/kernels/ only; a built message elsewhere stays quiet.
#include <string>

namespace dstee::methods {

void configure(const std::string& name, bool known) {
  util::check(known, "unknown method: " + name);
}

}  // namespace dstee::methods
