/**
 * @file
 * Unit tests for the util layer: CRCs, byte cursors, hashing, status,
 * formatting, and the panic/fatal termination paths.
 */
#include <gtest/gtest.h>

#include "util/bytes.h"
#include "util/crc.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/panic.h"
#include "util/ring.h"
#include "util/status.h"
#include "util/strings.h"

namespace remora::util {
namespace {

// ----------------------------------------------------------------------
// CRC
// ----------------------------------------------------------------------

TEST(Crc32, MatchesIeeeCheckValue)
{
    // The canonical CRC-32 check: crc("123456789") == 0xCBF43926.
    const char *s = "123456789";
    std::span<const uint8_t> data(reinterpret_cast<const uint8_t *>(s), 9);
    EXPECT_EQ(crc32Ieee(data), 0xCBF43926u);
}

TEST(Crc32, EmptyInputIsZero)
{
    EXPECT_EQ(crc32Ieee({}), 0u);
}

TEST(Crc32, IncrementalEqualsOneShot)
{
    std::vector<uint8_t> data(1000);
    for (size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<uint8_t>(i * 7 + 3);
    }
    Crc32 inc;
    // Feed in ragged chunks.
    size_t pos = 0;
    size_t chunks[] = {1, 7, 48, 300, 644};
    for (size_t c : chunks) {
        size_t n = std::min(c, data.size() - pos);
        inc.update(std::span<const uint8_t>(data.data() + pos, n));
        pos += n;
    }
    ASSERT_EQ(pos, data.size());
    EXPECT_EQ(inc.value(), crc32Ieee(data));
}

/** Bit-at-a-time CRC-32, independent of the table implementation. */
uint32_t
crc32Bitwise(std::span<const uint8_t> data)
{
    uint32_t crc = 0xffffffffu;
    for (uint8_t b : data) {
        crc ^= b;
        for (int bit = 0; bit < 8; ++bit) {
            crc = (crc & 1u) ? (crc >> 1) ^ 0xedb88320u : crc >> 1;
        }
    }
    return ~crc;
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndAlignment)
{
    std::vector<uint8_t> data(1024 + 8);
    for (size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<uint8_t>(i * 131 + 7);
    }
    for (size_t start = 0; start < 8; ++start) {
        for (size_t len = 0; len + start <= 1024; ++len) {
            std::span<const uint8_t> s(data.data() + start, len);
            ASSERT_EQ(crc32Ieee(s), crc32Bitwise(s))
                << "start " << start << " length " << len;
        }
    }
}

TEST(Crc32, UpdateSplitAtEveryOffsetEqualsOneCall)
{
    std::vector<uint8_t> data(100);
    for (size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<uint8_t>(i * 29 + 11);
    }
    uint32_t whole = crc32Ieee(data);
    std::span<const uint8_t> all(data);
    for (size_t cut = 0; cut <= data.size(); ++cut) {
        Crc32 c;
        c.update(all.first(cut));
        c.update(all.subspan(cut));
        EXPECT_EQ(c.value(), whole) << "cut at " << cut;
    }
}

/** slicing-by-8 over @p data from the initial register: the reference. */
uint32_t
sliceBy8Reference(std::span<const uint8_t> data)
{
    return ~detail::crc32Slice8(0xffffffffu, data);
}

TEST(Crc32, FoldEqualsSliceBy8AtEveryLengthAndOffset)
{
    std::vector<uint8_t> data(9000 + 16);
    for (size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<uint8_t>(i * 131 + 7 + (i >> 9));
    }
    bool fold = detail::crc32FoldAvailable();
    for (size_t start = 0; start < 16; ++start) {
        for (size_t len = 0; len <= 9000; ++len) {
            std::span<const uint8_t> s(data.data() + start, len);
            uint32_t want = sliceBy8Reference(s);
            ASSERT_EQ(crc32Ieee(s), want)
                << "start " << start << " length " << len;
            if (fold && len >= kFoldMinBytes) {
                ASSERT_EQ(~detail::crc32Fold(0xffffffffu, s), want)
                    << "start " << start << " length " << len;
            }
        }
    }
}

TEST(Crc32, UpdateSplitAtEveryPointOfOneKilobyteEqualsSliceBy8)
{
    std::vector<uint8_t> data(1024);
    for (size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<uint8_t>(i * 29 + 11 + (i >> 7));
    }
    std::span<const uint8_t> all(data);
    uint32_t want = sliceBy8Reference(all);
    for (size_t cut = 0; cut <= data.size(); ++cut) {
        // Either side may take the fold or the short path, and the
        // fold must pick up from any register the first part left.
        Crc32 c;
        c.update(all.first(cut));
        c.update(all.subspan(cut));
        ASSERT_EQ(c.value(), want) << "cut at " << cut;
    }
}

// ----------------------------------------------------------------------
// Ring FIFO
// ----------------------------------------------------------------------

TEST(RingFifo, KeepsOrderAcrossWrapAround)
{
    RingFifo<int> q;
    int next = 0;
    int expect = 0;
    for (int i = 0; i < 6; ++i) {
        q.push(next++);
    }
    size_t cap = q.capacity();
    // Hold the depth at 5 or 6 while 1000 values pass: the head laps
    // the ring many times and it never needs to grow.
    for (int round = 0; round < 1000; ++round) {
        ASSERT_EQ(q.front(), expect++);
        q.pop();
        q.push(next++);
    }
    EXPECT_EQ(q.capacity(), cap);
    while (!q.empty()) {
        ASSERT_EQ(q.front(), expect++);
        q.pop();
    }
    EXPECT_EQ(expect, next);
}

TEST(RingFifo, GrowingWhileWrappedKeepsOrder)
{
    RingFifo<int> q;
    int next = 0;
    int expect = 0;
    for (int i = 0; i < 8; ++i) {
        q.push(next++);
    }
    size_t cap = q.capacity();
    ASSERT_EQ(q.size(), cap); // full
    // Move the head to the middle, so the live values wrap the end.
    for (int i = 0; i < 5; ++i) {
        ASSERT_EQ(q.front(), expect++);
        q.pop();
        q.push(next++);
    }
    // Full and wrapped: the next push has to unwrap into a larger ring.
    q.push(next++);
    EXPECT_GT(q.capacity(), cap);
    for (int i = 0; i < 40; ++i) {
        q.push(next++);
    }
    EXPECT_EQ(q.size(), static_cast<size_t>(next - expect));
    while (!q.empty()) {
        ASSERT_EQ(q.front(), expect++);
        q.pop();
    }
    EXPECT_EQ(expect, next);
}

// ----------------------------------------------------------------------
// Byte cursors
// ----------------------------------------------------------------------

TEST(Bytes, ScalarRoundTrip)
{
    ByteWriter w;
    w.putU8(0xab);
    w.putU16(0x1234);
    w.putU32(0xdeadbeef);
    w.putU64(0x0123456789abcdefull);
    auto buf = w.take();
    EXPECT_EQ(buf.size(), 1u + 2 + 4 + 8);

    ByteReader r(buf);
    EXPECT_EQ(r.getU8(), 0xab);
    EXPECT_EQ(r.getU16(), 0x1234);
    EXPECT_EQ(r.getU32(), 0xdeadbeefu);
    EXPECT_EQ(r.getU64(), 0x0123456789abcdefull);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(Bytes, LittleEndianOnTheWire)
{
    ByteWriter w;
    w.putU32(0x11223344);
    auto buf = w.take();
    EXPECT_EQ(buf[0], 0x44);
    EXPECT_EQ(buf[1], 0x33);
    EXPECT_EQ(buf[2], 0x22);
    EXPECT_EQ(buf[3], 0x11);
}

TEST(Bytes, OverflowSetsFlagAndReturnsZero)
{
    std::vector<uint8_t> two = {0xff, 0xff};
    ByteReader r(two);
    EXPECT_EQ(r.getU32(), 0u);
    EXPECT_FALSE(r.ok());
    // Further reads stay zero and harmless.
    EXPECT_EQ(r.getU8(), 0u);
    EXPECT_EQ(r.getU64(), 0u);
}

TEST(Bytes, StringRoundTripWithPadding)
{
    for (const std::string &s :
         {std::string(""), std::string("a"), std::string("abcd"),
          std::string("hello world"), std::string(300, 'x')}) {
        ByteWriter w;
        w.putString(s);
        EXPECT_EQ(w.size() % 4, 0u) << "XDR padding violated for len "
                                    << s.size();
        auto buf = w.take();
        ByteReader r(buf);
        EXPECT_EQ(r.getString(), s);
        EXPECT_TRUE(r.ok());
        EXPECT_EQ(r.remaining(), 0u);
    }
}

TEST(Bytes, ViewAndSkip)
{
    ByteWriter w;
    w.putBytes(std::vector<uint8_t>{1, 2, 3, 4, 5, 6});
    auto buf = w.take();
    ByteReader r(buf);
    r.skip(2);
    auto view = r.viewBytes(3);
    ASSERT_EQ(view.size(), 3u);
    EXPECT_EQ(view[0], 3);
    EXPECT_EQ(view[2], 5);
    EXPECT_EQ(r.remaining(), 1u);
}

class BytesRoundTrip : public ::testing::TestWithParam<size_t>
{};

TEST_P(BytesRoundTrip, ArbitraryPayloads)
{
    size_t n = GetParam();
    std::vector<uint8_t> payload(n);
    for (size_t i = 0; i < n; ++i) {
        payload[i] = static_cast<uint8_t>(mix64(i) >> 32);
    }
    ByteWriter w;
    w.putU32(static_cast<uint32_t>(n));
    w.putBytes(payload);
    auto buf = w.take();
    ByteReader r(buf);
    EXPECT_EQ(r.getU32(), n);
    auto view = r.viewBytes(n);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(std::vector<uint8_t>(view.begin(), view.end()), payload);
    EXPECT_EQ(r.remaining(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BytesRoundTrip,
                         ::testing::Values(0, 1, 3, 40, 48, 53, 1024, 8192,
                                           65535));

// ----------------------------------------------------------------------
// Hashing
// ----------------------------------------------------------------------

TEST(Hash, Fnv1aKnownValue)
{
    // FNV-1a 64-bit of empty input is the offset basis.
    EXPECT_EQ(fnv1a(std::string_view("")), 0xcbf29ce484222325ull);
    // And it is stable (the cluster-wide hash contract).
    EXPECT_EQ(fnv1a(std::string_view("remora")),
              fnv1a(std::string_view("remora")));
    EXPECT_NE(fnv1a(std::string_view("remora")),
              fnv1a(std::string_view("remorb")));
}

TEST(Hash, SpanAndStringAgree)
{
    std::string s = "segment-name";
    std::span<const uint8_t> bytes(
        reinterpret_cast<const uint8_t *>(s.data()), s.size());
    EXPECT_EQ(fnv1a(bytes), fnv1a(std::string_view(s)));
}

TEST(Hash, Mix64Scatters)
{
    // Adjacent inputs must land far apart (avalanche sanity).
    uint64_t a = mix64(1), b = mix64(2);
    EXPECT_NE(a, b);
    int differing = __builtin_popcountll(a ^ b);
    EXPECT_GT(differing, 16);
}

// ----------------------------------------------------------------------
// Status / Result
// ----------------------------------------------------------------------

TEST(Status, DefaultIsOk)
{
    Status s;
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(s.code(), ErrorCode::kOk);
    EXPECT_EQ(s.toString(), "ok");
}

TEST(Status, ErrorCarriesCodeAndMessage)
{
    Status s(ErrorCode::kStaleGeneration, "gen 4 != 5");
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), ErrorCode::kStaleGeneration);
    EXPECT_EQ(s.toString(), "stale_generation: gen 4 != 5");
}

TEST(Result, ValueAndTake)
{
    Result<std::string> r(std::string("payload"));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), "payload");
    EXPECT_EQ(r.take(), "payload");
}

TEST(Result, ErrorPropagates)
{
    Result<int> r{Status(ErrorCode::kNotFound, "nope")};
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::kNotFound);
}

TEST(Status, EveryCodeHasAName)
{
    for (int c = 0; c <= static_cast<int>(ErrorCode::kInternal); ++c) {
        EXPECT_STRNE(errorCodeName(static_cast<ErrorCode>(c)), "unknown");
    }
}

// ----------------------------------------------------------------------
// Formatting
// ----------------------------------------------------------------------

TEST(Strings, FormatDuration)
{
    EXPECT_EQ(formatDuration(500), "500 ns");
    EXPECT_EQ(formatDuration(45000), "45.0 us");
    EXPECT_EQ(formatDuration(2500000), "2.50 ms");
    EXPECT_EQ(formatDuration(3000000000ll), "3.000 s");
}

TEST(Strings, FormatCount)
{
    EXPECT_EQ(formatCount(0), "0");
    EXPECT_EQ(formatCount(999), "999");
    EXPECT_EQ(formatCount(28860744), "28,860,744");
}

TEST(Strings, ParseNumberTakesOnlyWholeNumbers)
{
    uint64_t u = 99;
    EXPECT_TRUE(parseNumber("42", u));
    EXPECT_EQ(u, 42u);
    EXPECT_TRUE(parseNumber("0x10", u));
    EXPECT_EQ(u, 16u);
    for (const char *bad : {"", "abc", "5x", "1.5", "-1", "+1", " 5",
                            "99999999999999999999"}) {
        u = 7;
        EXPECT_FALSE(parseNumber(bad, u)) << bad;
        EXPECT_EQ(u, 7u) << bad;
    }
    EXPECT_FALSE(parseNumber(nullptr, u));

    double d = -1;
    EXPECT_TRUE(parseNumber("0.05", d));
    EXPECT_EQ(d, 0.05);
    EXPECT_TRUE(parseNumber("1e-2", d));
    EXPECT_EQ(d, 0.01);
    for (const char *bad : {"", "abc", "0.5%", " 0.5", "1e999"}) {
        d = 3;
        EXPECT_FALSE(parseNumber(bad, d)) << bad;
        EXPECT_EQ(d, 3.0) << bad;
    }
}

TEST(Strings, TextTableAlignsColumns)
{
    TextTable t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"longer-name", "22"});
    std::string out = t.render();
    // Header, separator, two rows.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
    // Numeric column right-aligns: "22" ends both data lines.
    EXPECT_NE(out.find(" 1\n"), std::string::npos);
    EXPECT_NE(out.find("22\n"), std::string::npos);
}

// ----------------------------------------------------------------------
// JSON parsing
// ----------------------------------------------------------------------

TEST(JsonValue, ParsesEveryValueKind)
{
    auto r = JsonValue::parse(
        R"({"n":null,"t":true,"f":false,"num":-12.5e1,"s":"hi",)"
        R"("a":[1,2,3],"o":{"k":"v"}})");
    ASSERT_TRUE(r.ok()) << r.status().toString();
    const JsonValue &v = r.value();
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.size(), 7u);
    EXPECT_TRUE(v.find("n")->isNull());
    EXPECT_TRUE(v.find("t")->asBool());
    EXPECT_FALSE(v.find("f")->asBool());
    EXPECT_DOUBLE_EQ(v.find("num")->asNumber(), -125.0);
    EXPECT_EQ(v.find("s")->asString(), "hi");
    ASSERT_TRUE(v.find("a")->isArray());
    ASSERT_EQ(v.find("a")->size(), 3u);
    EXPECT_DOUBLE_EQ(v.find("a")->items()[2].asNumber(), 3.0);
    EXPECT_EQ(v.find("o")->find("k")->asString(), "v");
    EXPECT_EQ(v.find("absent"), nullptr);
    // Document order is preserved for walkers that care.
    EXPECT_EQ(v.members()[0].first, "n");
    EXPECT_EQ(v.members()[6].first, "o");
}

TEST(JsonValue, DecodesEscapes)
{
    auto r = JsonValue::parse(R"("a\"b\\c\n\tAé")");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().asString(), "a\"b\\c\n\tA\xc3\xa9");

    // Surrogate pair: U+1F600 as 😀.
    auto pair = JsonValue::parse(R"("😀")");
    ASSERT_TRUE(pair.ok());
    EXPECT_EQ(pair.value().asString(), "\xf0\x9f\x98\x80");
}

TEST(JsonValue, RejectsMalformedInputWithOffset)
{
    for (const char *bad :
         {"", "{", "[1,]", "{\"k\":}", "tru", "1.2.3", "\"unterminated",
          "{\"a\":1} trailing", "[1 2]", "{\"k\" 1}"}) {
        auto r = JsonValue::parse(bad);
        EXPECT_FALSE(r.ok()) << "accepted: " << bad;
        EXPECT_NE(r.status().toString().find("offset"), std::string::npos)
            << r.status().toString();
    }
}

TEST(JsonValue, RoundTripsJsonWriterOutput)
{
    JsonWriter w;
    w.beginObject()
        .kv("name", "bench \"quoted\"")
        .key("values")
        .beginArray()
        .value(1.5)
        .value(true)
        .endArray()
        .endObject();
    auto r = JsonValue::parse(w.str());
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_EQ(r.value().find("name")->asString(), "bench \"quoted\"");
    EXPECT_DOUBLE_EQ(r.value().find("values")->items()[0].asNumber(), 1.5);
    EXPECT_TRUE(r.value().find("values")->items()[1].asBool());
}

// ----------------------------------------------------------------------
// Panic / fatal termination paths
// ----------------------------------------------------------------------

TEST(PanicDeathTest, AssertFailurePrintsConditionText)
{
    EXPECT_DEATH(REMORA_ASSERT(2 + 2 == 5),
                 "remora panic: .*test_util.cc.*assertion failed: "
                 "2 \\+ 2 == 5");
}

TEST(PanicDeathTest, PassingAssertIsSilent)
{
    REMORA_ASSERT(2 + 2 == 4);
}

TEST(PanicDeathTest, PanicAborts)
{
    EXPECT_DEATH(REMORA_PANIC("invariant broken"),
                 "remora panic: .*invariant broken");
}

TEST(PanicDeathTest, FatalExitsWithStatusOne)
{
    // fatal() is a configuration error, not a bug: clean exit(1), no
    // core, but the same message shape on stderr.
    EXPECT_EXIT(REMORA_FATAL("impossible topology"),
                ::testing::ExitedWithCode(1),
                "remora fatal: .*impossible topology");
}

} // namespace
} // namespace remora::util
