// Fixture: a cold-path util::check with a built message, waived with a
// reason (comment-above and same-line forms) — no finding expected.
#include <string>

namespace dstee::nn {

void configure(const std::string& name, bool known) {
  // dstee-lint: allow(eager-check-message) -- runs once at startup
  util::check(known, "unknown layer kind: " + name);
}

void configure_inline(const std::string& name, bool known) {
  util::check(known, "unknown: " + name);  // dstee-lint: allow(eager-check-message) -- fixture
}

}  // namespace dstee::nn
