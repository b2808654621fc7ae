#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "serde/serde.h"

namespace pstk::serde {
namespace {

template <typename T>
void RoundTrip(const T& value) {
  const Buffer buf = EncodeToBuffer(value);
  auto back = DecodeFromBuffer<T>(buf);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), value);
}

TEST(SerdeTest, Primitives) {
  RoundTrip<std::int32_t>(-123);
  RoundTrip<std::uint64_t>(0xDEADBEEFCAFEBABEULL);
  RoundTrip<double>(3.14159);
  RoundTrip<bool>(true);
  RoundTrip<char>('x');
}

TEST(SerdeTest, Strings) {
  RoundTrip(std::string(""));
  RoundTrip(std::string("hello world"));
  RoundTrip(std::string(10000, 'z'));
  std::string binary("\x00\x01\xFF", 3);
  RoundTrip(binary);
}

TEST(SerdeTest, Pairs) {
  RoundTrip(std::pair<std::string, std::int64_t>{"answers", 42});
  RoundTrip(std::pair<double, double>{1.5, -2.5});
}

TEST(SerdeTest, Tuples) {
  RoundTrip(std::tuple<int, std::string, double>{7, "seven", 7.7});
}

TEST(SerdeTest, Vectors) {
  RoundTrip(std::vector<std::int32_t>{});
  RoundTrip(std::vector<std::int32_t>{1, 2, 3});
  RoundTrip(std::vector<std::string>{"a", "", "ccc"});
  RoundTrip(std::vector<std::pair<std::string, std::int64_t>>{
      {"q1", 3}, {"q2", 0}});
}

TEST(SerdeTest, NestedVectors) {
  RoundTrip(std::vector<std::vector<std::uint64_t>>{{1, 2}, {}, {3}});
}

TEST(SerdeTest, VarintBoundaries) {
  Writer w;
  const std::vector<std::uint64_t> values = {
      0, 1, 127, 128, 16383, 16384, (1ULL << 32), ~0ULL};
  for (auto v : values) w.WriteVarint(v);
  Reader r(w.buffer());
  for (auto v : values) {
    auto got = r.ReadVarint();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), v);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, UnderrunDetected) {
  const Buffer buf = EncodeToBuffer<std::uint64_t>(5);
  Buffer truncated(buf.begin(), buf.begin() + 3);
  auto res = DecodeFromBuffer<std::uint64_t>(truncated);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kOutOfRange);
}

TEST(SerdeTest, TrailingBytesDetected) {
  Buffer buf = EncodeToBuffer<std::uint32_t>(5);
  buf.push_back(0);
  auto res = DecodeFromBuffer<std::uint32_t>(buf);
  EXPECT_FALSE(res.ok());
}

TEST(SerdeTest, CorruptStringLengthDetected) {
  Writer w;
  w.WriteVarint(1000);  // claims 1000 bytes, provides none
  auto res = DecodeFromBuffer<std::string>(w.buffer());
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kOutOfRange);
}

TEST(SerdeTest, HostileVectorCountsFailCleanly) {
  // A count the payload cannot back must fail the decode, not the
  // allocation: 10^9 strings in a 5-byte payload, then 2^62 strings.
  for (const std::uint64_t count : {std::uint64_t{1'000'000'000},
                                    std::uint64_t{1} << 62}) {
    Writer w;
    w.WriteVarint(count);
    auto res = DecodeFromBuffer<std::vector<std::string>>(w.buffer());
    ASSERT_FALSE(res.ok()) << count;
    EXPECT_EQ(res.status().code(), StatusCode::kOutOfRange) << count;
  }
}

// The bytes of a vector encoded one WriteRaw per element: the format the
// block encoding of numeric vectors must keep.
template <typename T>
Buffer ElementByElement(const std::vector<T>& values) {
  Writer w;
  w.WriteVarint(values.size());
  for (const T& value : values) w.WriteRaw(value);
  return w.TakeBuffer();
}

TEST(SerdeTest, NumericVectorsEncodeAsPinnedBytes) {
  const std::vector<std::int64_t> ints = {1, -2, 0x0102030405060708};
  const Buffer int_bytes = {3,    1,    0,    0,    0,    0,    0,    0,
                            0,    0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                            0xFF, 8,    7,    6,    5,    4,    3,    2,
                            1};
  EXPECT_EQ(EncodeToBuffer(ints), int_bytes);
  EXPECT_EQ(ElementByElement(ints), int_bytes);
  RoundTrip(ints);

  const std::vector<double> doubles = {1.0, -0.5};
  const Buffer double_bytes = {2, 0, 0, 0, 0, 0, 0, 0xF0, 0x3F,
                               0, 0, 0, 0, 0, 0, 0xE0, 0xBF};
  EXPECT_EQ(EncodeToBuffer(doubles), double_bytes);
  EXPECT_EQ(ElementByElement(doubles), double_bytes);
  RoundTrip(doubles);

  const std::vector<std::uint8_t> bytes = {0, 0x7F, 0x80, 0xFF};
  const Buffer byte_bytes = {4, 0, 0x7F, 0x80, 0xFF};
  EXPECT_EQ(EncodeToBuffer(bytes), byte_bytes);
  EXPECT_EQ(ElementByElement(bytes), byte_bytes);
  RoundTrip(bytes);

  RoundTrip(std::vector<double>{});
  EXPECT_EQ(EncodeToBuffer(std::vector<std::int64_t>{}), Buffer{0});
}

TEST(SerdeTest, BoolVectorsKeepOneBytePerElement) {
  const std::vector<bool> flags = {true, false, true};
  const Buffer expected = {3, 1, 0, 1};
  EXPECT_EQ(EncodeToBuffer(flags), expected);
  RoundTrip(flags);
}

TEST(SerdeTest, NumericVectorCountBeyondPayloadIsOutOfRange) {
  // One element short, a count of 2^62, and counts whose count * 8 wraps
  // around to a small number: each fails before any allocation.
  const auto decode_int64 = [](std::uint64_t count, std::size_t payload) {
    Writer w;
    w.WriteVarint(count);
    for (std::size_t i = 0; i < payload; ++i) w.WriteRaw<std::uint8_t>(7);
    return DecodeFromBuffer<std::vector<std::int64_t>>(w.buffer());
  };
  for (const auto& [count, payload] :
       std::vector<std::pair<std::uint64_t, std::size_t>>{
           {2, 15},
           {1, 7},
           {std::uint64_t{1} << 62, 64},
           {(std::uint64_t{1} << 61) + 1, 16},
           {~0ULL >> 1, 16}}) {
    auto res = decode_int64(count, payload);
    ASSERT_FALSE(res.ok()) << count;
    EXPECT_EQ(res.status().code(), StatusCode::kOutOfRange) << count;
  }
  EXPECT_TRUE(decode_int64(2, 16).ok());
  Writer w;
  w.WriteVarint(5);
  for (int i = 0; i < 4; ++i) w.WriteRaw<std::uint8_t>(1);
  auto res = DecodeFromBuffer<std::vector<std::uint8_t>>(w.buffer());
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kOutOfRange);
}

TEST(SerdeTest, ReadViewPastEndLeavesCursor) {
  const Buffer buf = {'a', 'b', 'c'};
  Reader r(buf);
  auto past = r.ReadView(4);
  ASSERT_FALSE(past.ok());
  EXPECT_EQ(past.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(r.remaining(), 3u);
  auto first = r.ReadView(2);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value(), "ab");
  EXPECT_FALSE(r.ReadView(2).ok());
  EXPECT_EQ(r.ReadView(1).value(), "c");
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, EncodedSizeMatchesBuffer) {
  const std::vector<std::string> v{"abc", "defg"};
  EXPECT_EQ(EncodedSize(v), EncodeToBuffer(v).size());
}

// Property-style sweep: random vectors of pairs round-trip for many sizes.
class SerdeSweep : public ::testing::TestWithParam<int> {};

TEST_P(SerdeSweep, RandomKvVectorsRoundTrip) {
  const int n = GetParam();
  std::vector<std::pair<std::string, std::uint64_t>> kv;
  kv.reserve(n);
  std::uint64_t state = 88172645463325252ULL + n;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int i = 0; i < n; ++i) {
    std::string key(next() % 32, 'a' + static_cast<char>(next() % 26));
    kv.emplace_back(std::move(key), next());
  }
  RoundTrip(kv);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SerdeSweep,
                         ::testing::Values(0, 1, 2, 16, 100, 1000));

// Seeded mutations of encoded shuffle buckets: truncated, bit-flipped and
// spliced buffers. Each decode must return a value or a non-OK Status,
// never abort or read out of bounds (the ASan leg checks the latter).
template <typename T>
void DecodeMutations(const std::vector<Buffer>& corpus, Rng& rng) {
  constexpr int kCases = 1500;
  int rejected = 0;
  for (int c = 0; c < kCases; ++c) {
    Buffer bytes = corpus[rng.Below(corpus.size())];
    switch (rng.Below(3)) {
      case 0:
        bytes.resize(rng.Below(bytes.size() + 1));
        break;
      case 1:
        for (std::uint64_t k = 1 + rng.Below(4); k > 0; --k) {
          bytes[rng.Below(bytes.size())] ^=
              static_cast<std::uint8_t>(1U << rng.Below(8));
        }
        break;
      default: {
        const Buffer& other = corpus[rng.Below(corpus.size())];
        bytes.resize(rng.Below(bytes.size() + 1));
        bytes.insert(bytes.end(), other.begin() + static_cast<std::ptrdiff_t>(
                                                      rng.Below(other.size())),
                     other.end());
        break;
      }
    }
    if (!DecodeFromBytes<T>(buf::Bytes::FromVector(std::move(bytes))).ok()) {
      ++rejected;
    }
  }
  // Both outcomes occur, so the mutations reach past the first byte.
  EXPECT_GT(rejected, 0);
  EXPECT_LT(rejected, kCases);
}

TEST(SerdeTest, ShuffleDecodersSurviveSeededMutations) {
  Rng rng(23);
  std::vector<Buffer> adjacency;
  std::vector<Buffer> ranks;
  std::vector<Buffer> strings;
  for (int b = 0; b < 8; ++b) {
    std::vector<std::pair<long, std::vector<long>>> links;
    std::vector<std::pair<long, double>> contribs;
    std::vector<std::pair<std::string, std::string>> words;
    for (std::uint64_t i = 1 + rng.Below(40); i > 0; --i) {
      std::vector<long> targets(rng.Below(12));
      for (long& t : targets) t = static_cast<long>(rng.Below(1 << 20));
      links.emplace_back(static_cast<long>(rng.Next()), std::move(targets));
      contribs.emplace_back(static_cast<long>(rng.Below(1000)),
                            rng.Uniform());
      words.emplace_back(std::string(rng.Below(20), 'k'),
                         std::string(rng.Below(200), 'v'));
    }
    adjacency.push_back(EncodeToBuffer(links));
    ranks.push_back(EncodeToBuffer(contribs));
    strings.push_back(EncodeToBuffer(words));
  }
  DecodeMutations<std::vector<std::pair<long, std::vector<long>>>>(adjacency,
                                                                   rng);
  DecodeMutations<std::vector<std::pair<long, double>>>(ranks, rng);
  DecodeMutations<std::vector<std::pair<std::string, std::string>>>(strings,
                                                                    rng);
}

}  // namespace
}  // namespace pstk::serde
