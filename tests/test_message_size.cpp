// Pins every registered MessageSize specialization against a hand-computed
// table (runtime/message_size.h sizing convention: payload bits only, fixed
// widths as declared, 1-bit flags, 32-bit length prefix on vectors). These
// constants ARE the CONGEST cost model — a silent change here would shift
// every charged round count and every byte counter, so the table is explicit
// numbers, never re-derived from the code under test.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "mis/luby_sync.h"
#include "runtime/message_size.h"

namespace deltacol {
namespace {

TEST(MessageSize, ScalarTable) {
  EXPECT_EQ(message_bits(true), 1);
  EXPECT_EQ(message_bits(false), 1);
  EXPECT_EQ(message_bits(std::int32_t{0}), 32);
  EXPECT_EQ(message_bits(std::int32_t{-1}), 32);
  EXPECT_EQ(message_bits(std::uint32_t{0xffffffffu}), 32);
  EXPECT_EQ(message_bits(std::int64_t{0}), 64);
  EXPECT_EQ(message_bits(std::uint64_t{0}), 64);
}

TEST(MessageSize, PairSumsItsFields) {
  EXPECT_EQ(message_bits(std::pair<bool, std::uint64_t>{true, 7}), 65);
  EXPECT_EQ(message_bits(std::pair<std::int32_t, std::int32_t>{1, 2}), 64);
  EXPECT_EQ(
      message_bits(std::pair<std::int64_t, std::pair<bool, bool>>{3, {0, 1}}),
      66);
}

TEST(MessageSize, VectorChargesPrefixPlusElements) {
  EXPECT_EQ(message_bits(std::vector<std::int32_t>{}), 32);  // prefix only
  EXPECT_EQ(message_bits(std::vector<std::int32_t>{1, 2, 3}), 32 + 3 * 32);
  EXPECT_EQ(message_bits(std::vector<bool>{true, false}), 32 + 2);
  // Nested: outer prefix + per-element (inner prefix + payload).
  EXPECT_EQ(message_bits(std::vector<std::vector<std::int64_t>>{{1}, {}}),
            32 + (32 + 64) + 32);
}

TEST(MessageSize, LubyMessageIsSixtyFiveBits) {
  // The literal message-passing MIS sends {1-bit join flag, 64-bit
  // priority}; the constant is exported so tests and benches can factor
  // charged totals without re-deriving the wire format.
  EXPECT_EQ(kLubyMessageBits, 65);
}

}  // namespace
}  // namespace deltacol
