// Pins every registered WireCodec<T>::bits against a hand-computed table
// (the net/wire_codec.h sizing convention: payload bits only, fixed
// widths as declared, 1-bit flags, 32-bit length prefix on vectors). These
// constants ARE the CONGEST cost model — a silent change here would shift
// every charged round count and every byte counter, so the table is explicit
// numbers, never re-derived from the code under test.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "mis/luby_sync.h"
#include "net/wire_codec.h"

namespace deltacol {
namespace {

TEST(MessageBits, ScalarTable) {
  EXPECT_EQ(message_bits(true), 1);
  EXPECT_EQ(message_bits(false), 1);
  EXPECT_EQ(message_bits(std::int32_t{0}), 32);
  EXPECT_EQ(message_bits(std::int32_t{-1}), 32);
  EXPECT_EQ(message_bits(std::uint32_t{0xffffffffu}), 32);
  EXPECT_EQ(message_bits(std::int64_t{0}), 64);
  EXPECT_EQ(message_bits(std::uint64_t{0}), 64);
}

TEST(MessageBits, VectorChargesPrefixPlusElements) {
  EXPECT_EQ(message_bits(std::vector<std::int32_t>{}), 32);  // prefix only
  EXPECT_EQ(message_bits(std::vector<std::int32_t>{1, 2, 3}), 32 + 3 * 32);
  EXPECT_EQ(message_bits(std::vector<bool>{true, false}), 32 + 2);
  // Nested: outer prefix + per-element (inner prefix + payload).
  EXPECT_EQ(message_bits(std::vector<std::vector<std::int64_t>>{{1}, {}}),
            32 + (32 + 64) + 32);
}

TEST(MessageBits, LubyMessageIsSixtyFiveBits) {
  // The literal message-passing MIS sends {1-bit join flag, 64-bit
  // priority}; the constant is exported so tests and benches can factor
  // charged totals without re-deriving the wire format.
  EXPECT_EQ(kLubyMessageBits, 65);
}

}  // namespace
}  // namespace deltacol
