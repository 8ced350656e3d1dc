// Fixture: R3/codec-safety — the 2^53 bound outside the message codec.
#include <cstdint>

bool peek_nonce(double word, std::uint64_t id) {
  const bool exact_word = word < 9007199254740992.0;  // line 5: R3
  const bool exact_id = id < (1ULL << 53);             // line 6: R3
  const bool wide_id = id < (1ULL << 530 % 64);        // a shift by 530: fine
  return exact_word && exact_id && wide_id;            // "2^53" in a comment: fine
}
