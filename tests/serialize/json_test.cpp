/// The JSON layer's contract: deterministic writing, strict parsing, and —
/// the property snapshots rely on — bit-exact double round trips.

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serialize/json.hpp"

namespace sisd::serialize {
namespace {

double RoundTrip(double value) {
  JsonValue doc = JsonValue::Object();
  doc.Set("x", JsonValue::Double(value));
  Result<JsonValue> parsed = JsonValue::Parse(doc.Write());
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  Result<const JsonValue*> x = parsed.Value().Get("x");
  EXPECT_TRUE(x.ok());
  Result<double> back = x.Value()->GetDouble();
  EXPECT_TRUE(back.ok()) << back.status().ToString();
  return back.Value();
}

TEST(JsonDoubleTest, BitExactRoundTrips) {
  const double values[] = {0.0,
                           1.0,
                           -1.0,
                           0.1,
                           1.0 / 3.0,
                           M_PI,
                           1e-308,
                           5e-324,  // min subnormal
                           1.7976931348623157e308,
                           123456789.123456789,
                           -2.2250738585072014e-308};
  for (double v : values) {
    const double back = RoundTrip(v);
    EXPECT_EQ(std::memcmp(&v, &back, sizeof v), 0)
        << "value " << v << " came back as " << back;
  }
}

TEST(JsonDoubleTest, NegativeZeroKeepsItsSign) {
  const double back = RoundTrip(-0.0);
  EXPECT_TRUE(std::signbit(back));
  EXPECT_EQ(FormatJsonDouble(-0.0), "-0.0");
}

TEST(JsonDoubleTest, NonFiniteUsesStringEncoding) {
  EXPECT_EQ(FormatJsonDouble(std::numeric_limits<double>::infinity()),
            "\"Infinity\"");
  EXPECT_EQ(FormatJsonDouble(-std::numeric_limits<double>::infinity()),
            "\"-Infinity\"");
  EXPECT_EQ(FormatJsonDouble(std::nan("")), "\"NaN\"");
  EXPECT_TRUE(std::isinf(RoundTrip(std::numeric_limits<double>::infinity())));
  EXPECT_LT(RoundTrip(-std::numeric_limits<double>::infinity()), 0.0);
  EXPECT_TRUE(std::isnan(RoundTrip(std::nan(""))));
}

/// The double encoding as printf defines it: "%.17g", plus ".0" when the
/// text has no '.', 'e' or 'E'. The writer must match it byte for byte:
/// dataset fingerprints hash this text.
std::string ReferenceJsonDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  std::string out(buf);
  if (out.find_first_of(".eE") == std::string::npos) out += ".0";
  return out;
}

TEST(JsonDoubleTest, WriterMatchesPrintfReference) {
  std::vector<double> values = {0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e15, 1e16,
                                1e17, 1e21, 1e22, 123456789012345678.0,
                                std::numeric_limits<double>::max(),
                                -std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::denorm_min(),
                                -std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::epsilon()};
  for (int e = -330; e <= 310; ++e) {
    const double p = std::pow(10.0, e);
    values.push_back(p);
    values.push_back(-p);
    values.push_back(std::nextafter(p, 0.0));
    values.push_back(std::nextafter(p, HUGE_VAL));
  }
  for (int64_t i = -1000; i <= 1000; ++i) values.push_back(double(i));
  for (int k = 0; k < 64; ++k) {
    values.push_back(std::ldexp(1.0, k));
    values.push_back(std::ldexp(1.0, k) - 1.0);
  }
  std::mt19937_64 rng(2018);
  for (int i = 0; i < 20000; ++i) {
    // Subnormals: a zero exponent field with a random mantissa.
    const uint64_t sign_and_mantissa =
        (uint64_t{1} << 63) | ((uint64_t{1} << 52) - 1);
    values.push_back(std::bit_cast<double>(rng() & sign_and_mantissa));
  }
  for (int i = 0; i < 1000000; ++i) {
    const double v = std::bit_cast<double>(rng());
    if (std::isfinite(v)) values.push_back(v);
  }
  for (double v : values) {
    if (!std::isfinite(v)) continue;  // string encodings, tested above
    const std::string want = ReferenceJsonDouble(v);
    if (FormatJsonDouble(v) != want) {
      FAIL() << "bits " << std::bit_cast<uint64_t>(v) << ": wrote "
             << FormatJsonDouble(v) << ", printf gives " << want;
    }
  }
  // The writer's in-tree path (arrays of doubles) uses the same encoding.
  JsonValue array = JsonValue::Array();
  std::string want = "[";
  for (size_t i = 0; i < 1000; ++i) {
    array.Append(JsonValue::Double(values[i]));
    want += (i > 0 ? "," : "") + ReferenceJsonDouble(values[i]);
  }
  EXPECT_EQ(array.Write(), want + "]");
}

TEST(JsonIntTest, WriterMatchesPrintfReference) {
  std::mt19937_64 rng(7);
  std::vector<int64_t> values = {0, 1, -1, 9, 10, -10,
                                 std::numeric_limits<int64_t>::max(),
                                 std::numeric_limits<int64_t>::min()};
  for (int i = 0; i < 10000; ++i) {
    values.push_back(int64_t(rng()) >> (rng() % 64));
  }
  char buf[32];
  for (int64_t v : values) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    ASSERT_EQ(JsonValue::Int(v).Write(), buf);
  }
}

TEST(JsonDoubleTest, IntegralDoublesStayDoubles) {
  // 2.0 must not collapse into the int type on re-parse.
  JsonValue doc = JsonValue::Double(2.0);
  const std::string text = doc.Write();
  EXPECT_EQ(text, "2.0");
  Result<JsonValue> parsed = JsonValue::Parse(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.Value().type(), JsonValue::Type::kDouble);
}

TEST(JsonValueTest, IntAndDoubleAreDistinct) {
  Result<JsonValue> parsed = JsonValue::Parse("[1, 1.0, -3, 2e4]");
  ASSERT_TRUE(parsed.ok());
  const auto& items = parsed.Value().items();
  ASSERT_EQ(items.size(), 4u);
  EXPECT_EQ(items[0].type(), JsonValue::Type::kInt);
  EXPECT_EQ(items[1].type(), JsonValue::Type::kDouble);
  EXPECT_EQ(items[2].type(), JsonValue::Type::kInt);
  EXPECT_EQ(items[3].type(), JsonValue::Type::kDouble);
  EXPECT_EQ(items[0].GetInt().Value(), 1);
  EXPECT_EQ(items[2].GetInt().Value(), -3);
  // GetDouble accepts ints exactly.
  EXPECT_EQ(items[0].GetDouble().Value(), 1.0);
}

TEST(JsonValueTest, ObjectPreservesInsertionOrder) {
  JsonValue obj = JsonValue::Object();
  obj.Set("zebra", JsonValue::Int(1));
  obj.Set("alpha", JsonValue::Int(2));
  obj.Set("mid", JsonValue::Int(3));
  EXPECT_EQ(obj.Write(), "{\"zebra\":1,\"alpha\":2,\"mid\":3}");
  // Overwrite keeps the original position.
  obj.Set("alpha", JsonValue::Int(9));
  EXPECT_EQ(obj.Write(), "{\"zebra\":1,\"alpha\":9,\"mid\":3}");
}

TEST(JsonValueTest, WriteParseWriteIsIdentity) {
  JsonValue doc = JsonValue::Object();
  doc.Set("name", JsonValue::Str("quote\" backslash\\ newline\n tab\t"));
  doc.Set("flag", JsonValue::Bool(true));
  doc.Set("nothing", JsonValue::Null());
  JsonValue arr = JsonValue::Array();
  arr.Append(JsonValue::Double(0.25));
  arr.Append(JsonValue::Int(-17));
  JsonValue nested = JsonValue::Object();
  nested.Set("empty_arr", JsonValue::Array());
  nested.Set("empty_obj", JsonValue::Object());
  arr.Append(std::move(nested));
  doc.Set("items", std::move(arr));

  const std::string first = doc.Write();
  Result<JsonValue> parsed = JsonValue::Parse(first);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.Value().Write(), first);
  // Pretty output parses back to the same document too.
  Result<JsonValue> pretty = JsonValue::Parse(doc.Write(2));
  ASSERT_TRUE(pretty.ok());
  EXPECT_EQ(pretty.Value().Write(), first);
}

TEST(JsonValueTest, ParsesEscapesAndUnicode) {
  Result<JsonValue> parsed =
      JsonValue::Parse("\"a\\u0041\\u00e9\\ud83d\\ude00\\/\"");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.Value().GetString().Value(),
            "aA\xc3\xa9\xf0\x9f\x98\x80/");
}

TEST(JsonValueTest, RejectsMalformedInput) {
  const char* bad[] = {"",          "{",           "[1,",     "tru",
                       "\"open",    "{\"a\":}",    "[1 2]",   "01x",
                       "{\"a\" 1}", "\"\\u12\"",  "nullx",   "[],[]",
                       "\"\\ud800\""};
  for (const char* text : bad) {
    EXPECT_FALSE(JsonValue::Parse(text).ok()) << "input: " << text;
  }
}

TEST(JsonValueTest, RejectsExcessiveNesting) {
  std::string deep(1000, '[');
  deep += std::string(1000, ']');
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
}

TEST(JsonValueTest, TypedAccessorsRejectWrongTypes) {
  const JsonValue value = JsonValue::Str("hi");
  EXPECT_FALSE(value.GetBool().ok());
  EXPECT_FALSE(value.GetInt().ok());
  EXPECT_FALSE(value.GetDouble().ok());  // "hi" is not a nonfinite token
  EXPECT_TRUE(value.GetString().ok());
  EXPECT_FALSE(JsonValue::Int(-1).GetSize().ok());
  EXPECT_EQ(JsonValue::Int(7).GetSize().Value(), 7u);
}

TEST(JsonValueTest, VerbatimIsWrittenAsIsAtAnyIndent) {
  JsonValue doc = JsonValue::Object();
  doc.Set("a", JsonValue::Int(1));
  doc.Set("inline", JsonValue::Verbatim("{\"k\":[1,2.5]}"));
  EXPECT_EQ(doc.Write(), "{\"a\":1,\"inline\":{\"k\":[1,2.5]}}");
  EXPECT_EQ(doc.Write(2), "{\n  \"a\": 1,\n  \"inline\": {\"k\":[1,2.5]}\n}");
  EXPECT_FALSE(JsonValue::Verbatim("1").GetInt().ok());
}

// The chunk writer formats every token as the tree writer does; only the
// delivery differs.
TEST(JsonChunkWriterTest, MatchesTreeWriterAcrossChunkBoundaries) {
  std::mt19937_64 rng(7);
  JsonValue tree = JsonValue::Array();
  std::string streamed;
  std::vector<size_t> chunk_sizes;
  const ChunkSink sink = [&](std::string_view chunk) {
    chunk_sizes.push_back(chunk.size());
    streamed.append(chunk);
  };
  {
    JsonChunkWriter out(sink);
    out.Raw("[");
    for (int i = 0; i < 30000; ++i) {
      if (i > 0) out.Raw(",");
      switch (i % 3) {
        case 0: {
          const double v = std::bit_cast<double>(rng());
          tree.Append(JsonValue::Double(v));
          out.Double(v);
          break;
        }
        case 1: {
          const int64_t v = int64_t(rng());
          tree.Append(JsonValue::Int(v));
          out.Int(v);
          break;
        }
        default: {
          const std::string v = "s\"\\\x01\xc3\xa9" + std::to_string(i);
          tree.Append(JsonValue::Str(v));
          out.String(v);
        }
      }
    }
    out.Raw("]");
    out.Flush();
  }
  EXPECT_EQ(streamed, tree.Write());
  ASSERT_GT(chunk_sizes.size(), 1u);
  for (size_t k = 0; k + 1 < chunk_sizes.size(); ++k) {
    EXPECT_EQ(chunk_sizes[k], JsonChunkWriter::kChunkBytes);
  }
}

TEST(JsonFileTest, WriteReadRoundTrip) {
  const std::string path = "/tmp/sisd_json_test_file.json";
  const std::string text = "{\"k\":[1,2.5,\"v\"]}";
  ASSERT_TRUE(WriteTextFile(path, text).ok());
  Result<std::string> back = ReadTextFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.Value(), text);
  std::remove(path.c_str());
  EXPECT_FALSE(ReadTextFile(path).ok());
  EXPECT_FALSE(WriteTextFile("/nonexistent-dir/x/y.json", text).ok());
}

}  // namespace
}  // namespace sisd::serialize

namespace sisd::serialize {
namespace {

/// A fresh directory of its own, so leftover temporary files are visible.
std::string MakeTempDir() {
  std::string pattern = ::testing::TempDir() + "sisd_write_XXXXXX";
  EXPECT_NE(::mkdtemp(pattern.data()), nullptr);
  return pattern;
}

std::vector<std::string> ListDir(const std::string& dir) {
  std::vector<std::string> names;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name != "." && name != "..") names.push_back(name);
    }
    ::closedir(d);
  }
  std::sort(names.begin(), names.end());
  return names;
}

int g_write_calls = 0;

/// Writes half of the first request, then reports a full disk.
ssize_t ShortWriteThenDiskFull(int fd, const void* data, size_t size) {
  if (g_write_calls++ == 0) return ::write(fd, data, size / 2);
  errno = ENOSPC;
  return -1;
}

/// Accepts nothing: a write that makes no progress.
ssize_t WritesNothing(int, const void*, size_t) { return 0; }

TEST(JsonFileTest, FailedWriteKeepsThePreviousFile) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/session.json";
  const std::string previous = "{\"snapshot\":\"previous\"}";
  ASSERT_TRUE(WriteTextFile(path, previous).ok());
  const std::string next(100000, 'x');

  g_write_calls = 0;
  const Status full = WriteTextFile(path, next, ShortWriteThenDiskFull);
  EXPECT_EQ(full.code(), StatusCode::kIOError);
  EXPECT_NE(full.ToString().find(std::strerror(ENOSPC)), std::string::npos)
      << full.ToString();
  EXPECT_EQ(g_write_calls, 2);
  EXPECT_EQ(ReadTextFile(path).Value(), previous);

  EXPECT_EQ(WriteTextFile(path, next, WritesNothing).code(),
            StatusCode::kIOError);
  EXPECT_EQ(ReadTextFile(path).Value(), previous);
  // No temporary file is left behind.
  EXPECT_EQ(ListDir(dir), std::vector<std::string>{"session.json"});

  // A write that succeeds replaces the content whole.
  ASSERT_TRUE(WriteTextFile(path, next).ok());
  EXPECT_EQ(ReadTextFile(path).Value(), next);
  EXPECT_EQ(ListDir(dir), std::vector<std::string>{"session.json"});
  std::remove(path.c_str());
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace sisd::serialize
