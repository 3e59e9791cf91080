/// Codec round trips for every snapshot building block: decode(encode(x))
/// must reproduce x bit-identically — including cached Cholesky factors
/// maintained by rank-one updates, whose low bits differ from a fresh
/// factorization and must survive serialization as-is.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "linalg/cholesky.hpp"
#include "model/assimilator.hpp"
#include "random/rng.hpp"
#include "serialize/snapshot.hpp"

namespace sisd::serialize {
namespace {

/// Encode -> text -> parse -> decode: the full wire path.
template <typename T, typename Encoder, typename Decoder>
T WireRoundTrip(const T& value, Encoder encode, Decoder decode) {
  const std::string text = encode(value).Write();
  Result<JsonValue> parsed = JsonValue::Parse(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto decoded = decode(parsed.Value());
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  return std::move(decoded).MoveValue();
}

TEST(SnapshotCodecTest, VectorRoundTrip) {
  linalg::Vector v{0.1, -2.5, 1.0 / 3.0, 0.0, 1e-300};
  const linalg::Vector back = WireRoundTrip(v, EncodeVector, DecodeVector);
  EXPECT_EQ(back, v);
  EXPECT_EQ(WireRoundTrip(linalg::Vector(), EncodeVector, DecodeVector),
            linalg::Vector());
}

TEST(SnapshotCodecTest, MatrixRoundTrip) {
  random::Rng rng(1);
  linalg::Matrix m(3, 5);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 5; ++c) m(r, c) = rng.Gaussian();
  }
  EXPECT_EQ(WireRoundTrip(m, EncodeMatrix, DecodeMatrix), m);

  Result<linalg::Matrix> bad = DecodeMatrix(
      JsonValue::Parse("{\"rows\":2,\"cols\":2,\"data\":[1.0,2.0]}").Value());
  EXPECT_FALSE(bad.ok());
}

TEST(SnapshotCodecTest, MatrixDecodeRejectsOverflowingShapes) {
  // 2^32 x 2^32 wraps rows*cols to 0 in 64-bit size_t: a naive length
  // check would pass with empty data and read out of bounds. Must be a
  // clean error instead.
  Result<linalg::Matrix> huge = DecodeMatrix(
      JsonValue::Parse(
          "{\"rows\":4294967296,\"cols\":4294967296,\"data\":[]}")
          .Value());
  EXPECT_FALSE(huge.ok());
  // Degenerate-but-consistent shapes still decode.
  EXPECT_TRUE(DecodeMatrix(JsonValue::Parse(
                               "{\"rows\":0,\"cols\":0,\"data\":[]}")
                               .Value())
                  .ok());
}

TEST(SnapshotCodecTest, ExtensionDecodeRejectsHostileUniverse) {
  // A huge `n` with a short block string must fail the length check
  // before any allocation is attempted (no bad_alloc abort).
  Result<pattern::Extension> hostile = DecodeExtension(
      JsonValue::Parse(
          "{\"n\":1152921504606846976,\"blocks\":\"0000000000000000\"}")
          .Value());
  EXPECT_FALSE(hostile.ok());
}

TEST(SnapshotCodecTest, ExtensionRoundTrip) {
  for (size_t n : {1u, 63u, 64u, 65u, 200u}) {
    pattern::Extension ext(n);
    for (size_t i = 0; i < n; i += 3) ext.Insert(i);
    const pattern::Extension back =
        WireRoundTrip(ext, EncodeExtension, DecodeExtension);
    EXPECT_EQ(back, ext) << "n=" << n;
    EXPECT_EQ(back.count(), ext.count());
  }
  // Empty and full.
  EXPECT_EQ(WireRoundTrip(pattern::Extension(70), EncodeExtension,
                          DecodeExtension),
            pattern::Extension(70));
  EXPECT_EQ(WireRoundTrip(pattern::Extension(70, true), EncodeExtension,
                          DecodeExtension),
            pattern::Extension(70, true));

  // A set bit beyond the universe is rejected, as is bad hex.
  EXPECT_FALSE(
      DecodeExtension(
          JsonValue::Parse("{\"n\":3,\"blocks\":\"00000000000000ff\"}")
              .Value())
          .ok());
  EXPECT_FALSE(
      DecodeExtension(
          JsonValue::Parse("{\"n\":3,\"blocks\":\"zz00000000000000\"}")
              .Value())
          .ok());
}

TEST(SnapshotCodecTest, ConditionAndIntentionRoundTrip) {
  std::vector<pattern::Condition> conditions = {
      pattern::Condition::LessEqual(3, 0.39),
      pattern::Condition::GreaterEqual(0, -1.25),
      pattern::Condition::Equals(7, 2),
      pattern::Condition::NotEquals(7, 0),
  };
  for (const pattern::Condition& c : conditions) {
    const pattern::Condition back =
        WireRoundTrip(c, EncodeCondition, DecodeCondition);
    EXPECT_TRUE(back == c) << c.Signature();
  }
  const pattern::Intention intention(conditions);
  const pattern::Intention back =
      WireRoundTrip(intention, EncodeIntention, DecodeIntention);
  EXPECT_EQ(back.CanonicalSignature(), intention.CanonicalSignature());
  ASSERT_EQ(back.size(), intention.size());
  for (size_t i = 0; i < back.size(); ++i) {
    EXPECT_TRUE(back.conditions()[i] == intention.conditions()[i]);
  }
}

/// Dataset -> streamed text -> parse -> decode.
data::Dataset DatasetWireRoundTrip(const data::Dataset& dataset) {
  Result<JsonValue> parsed = JsonValue::Parse(EncodeDatasetText(dataset));
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  Result<data::Dataset> decoded = DecodeDataset(parsed.Value());
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  return std::move(decoded).MoveValue();
}

TEST(SnapshotCodecTest, ColumnRoundTripAllKinds) {
  const data::Column columns[] = {
      data::Column::Numeric("num", {1.5, -2.25, 0.0}),
      data::Column::Ordinal("ord", {0.0, 1.0, 3.0}),
      data::Column::Categorical("cat", {0, 2, 1}, {"a", "b", "c"}),
      data::Column::Binary("bin", {true, false, true}, "no", "yes"),
  };
  for (const data::Column& column : columns) {
    // A column travels inside a dataset (targets n x 0).
    data::Dataset dataset;
    dataset.descriptions.AddColumn(column).CheckOK();
    dataset.targets = linalg::Matrix(column.size(), 0);
    const data::Dataset round_tripped = DatasetWireRoundTrip(dataset);
    ASSERT_EQ(round_tripped.num_descriptions(), 1u);
    const data::Column& back = round_tripped.descriptions.column(0);
    EXPECT_EQ(back.name(), column.name());
    EXPECT_EQ(back.kind(), column.kind());
    ASSERT_EQ(back.size(), column.size());
    for (size_t i = 0; i < back.size(); ++i) {
      EXPECT_EQ(back.ValueToString(i), column.ValueToString(i));
    }
  }
  // Binary with a wrong label count is rejected.
  Result<JsonValue> bad = JsonValue::Parse(
      "{\"name\":\"b\",\"kind\":\"binary\",\"codes\":[0],"
      "\"labels\":[\"only\"]}");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(DecodeColumn(bad.Value()).ok());
  // Codes outside the label table are rejected.
  Result<JsonValue> oob = JsonValue::Parse(
      "{\"name\":\"c\",\"kind\":\"categorical\",\"codes\":[4],"
      "\"labels\":[\"a\"]}");
  ASSERT_TRUE(oob.ok());
  EXPECT_FALSE(DecodeColumn(oob.Value()).ok());
}

data::Dataset SmallDataset() {
  data::Dataset dataset;
  dataset.name = "codec-test";
  dataset.descriptions.AddColumn(data::Column::Numeric("x", {1.0, 2.0, 3.0}))
      .CheckOK();
  dataset.descriptions
      .AddColumn(data::Column::Binary("b", {false, true, true}))
      .CheckOK();
  dataset.targets = linalg::Matrix{{0.5, -1.0}, {1.5, 0.25}, {-0.75, 2.0}};
  dataset.target_names = {"t1", "t2"};
  return dataset;
}

TEST(SnapshotCodecTest, DatasetRoundTrip) {
  const data::Dataset dataset = SmallDataset();
  const data::Dataset back = DatasetWireRoundTrip(dataset);
  EXPECT_EQ(back.name, dataset.name);
  EXPECT_EQ(back.target_names, dataset.target_names);
  EXPECT_EQ(back.targets, dataset.targets);
  ASSERT_EQ(back.num_descriptions(), dataset.num_descriptions());
  EXPECT_TRUE(back.Validate().ok());
}

/// The fields of a small mixed table, so each test case can mutate one
/// of them and rebuild.
struct TableSpec {
  std::string name = "mutant";
  std::vector<std::string> target_names = {"y1", "y2"};
  linalg::Matrix targets{{0.0, 1.5}, {-2.0, 0.25}, {3.0, 1e-310}};
  std::string numeric_name = "x";
  data::AttributeKind numeric_kind = data::AttributeKind::kNumeric;
  std::vector<double> numeric = {0.0, std::nan(""), 2.5};
  bool numeric_in_two_chunks = false;  // as a row append stores it
  std::vector<int32_t> codes = {0, 1, 0};
  std::vector<std::string> labels = {"a", "b"};
  std::vector<bool> flags = {true, false, true};

  data::Dataset Build() const {
    data::Dataset dataset;
    dataset.name = name;
    dataset.target_names = target_names;
    dataset.targets = targets;
    std::vector<double> head = numeric;
    std::vector<double> tail;
    if (numeric_in_two_chunks) {
      tail.assign(head.begin() + 1, head.end());
      head.resize(1);
    }
    data::Column column =
        numeric_kind == data::AttributeKind::kNumeric
            ? data::Column::Numeric(numeric_name, std::move(head))
            : data::Column::Ordinal(numeric_name, std::move(head));
    if (!tail.empty()) column = column.WithAppendedNumeric(std::move(tail));
    dataset.descriptions.AddColumn(std::move(column)).CheckOK();
    dataset.descriptions
        .AddColumn(data::Column::Categorical("c", codes, labels))
        .CheckOK();
    dataset.descriptions.AddColumn(data::Column::Binary("b", flags))
        .CheckOK();
    return dataset;
  }
};

double NanWithPayload(uint64_t bits) { return std::bit_cast<double>(bits); }

// The structural comparison the catalog verifies dedup hits with must say
// "equal" exactly when the streamed texts are equal, for every single-
// field change — including the two double cases where bits and text part
// ways: signed zeros (different text) and NaN payloads (same text).
TEST(SnapshotCodecTest, SameDatasetEncodingAgreesWithEncodedText) {
  struct Case {
    const char* what;
    void (*mutate)(TableSpec*);
    bool same;
  };
  const Case cases[] = {
      {"unchanged", [](TableSpec*) {}, true},
      {"numeric column in two chunks",
       [](TableSpec* t) { t->numeric_in_two_chunks = true; }, true},
      {"NaN with another payload",
       [](TableSpec* t) { t->numeric[1] = NanWithPayload(0x7ff0000000000123); },
       true},
      {"NaN with the sign bit set",
       [](TableSpec* t) { t->numeric[1] = NanWithPayload(0xfff8000000000000); },
       true},
      {"numeric +0.0 -> -0.0", [](TableSpec* t) { t->numeric[0] = -0.0; },
       false},
      {"target +0.0 -> -0.0", [](TableSpec* t) { t->targets(0, 0) = -0.0; },
       false},
      {"target one ulp up",
       [](TableSpec* t) {
         t->targets(1, 1) = std::nextafter(t->targets(1, 1), 1.0);
       },
       false},
      {"target subnormal changed",
       [](TableSpec* t) { t->targets(2, 1) = 2e-310; }, false},
      {"numeric NaN -> number", [](TableSpec* t) { t->numeric[1] = 1.0; },
       false},
      {"dataset name", [](TableSpec* t) { t->name = "mutant2"; }, false},
      {"target name", [](TableSpec* t) { t->target_names[1] = "y3"; },
       false},
      {"targets reshaped 3x2 -> 2x3",
       [](TableSpec* t) {
         t->targets = linalg::Matrix{{0.0, 1.5, -2.0}, {0.25, 3.0, 1e-310}};
         t->target_names = {"y1", "y2", "y3"};
       },
       false},
      {"column name", [](TableSpec* t) { t->numeric_name = "z"; }, false},
      {"numeric -> ordinal",
       [](TableSpec* t) { t->numeric_kind = data::AttributeKind::kOrdinal; },
       false},
      {"one code", [](TableSpec* t) { t->codes[2] = 1; }, false},
      {"label text", [](TableSpec* t) { t->labels[1] = "B"; }, false},
      {"labels renumbered, same row labels",
       [](TableSpec* t) {
         t->labels = {"b", "a"};
         t->codes = {1, 0, 1};
       },
       false},
      {"unused extra label",
       [](TableSpec* t) { t->labels.push_back("c"); }, false},
      {"one binary flag", [](TableSpec* t) { t->flags[1] = true; }, false},
  };
  const TableSpec base_spec;
  const data::Dataset base = base_spec.Build();
  const std::string base_text = EncodeDatasetText(base);
  for (const Case& c : cases) {
    TableSpec spec;
    c.mutate(&spec);
    const data::Dataset mutant = spec.Build();
    const bool same_text = EncodeDatasetText(mutant) == base_text;
    EXPECT_EQ(same_text, c.same) << c.what;
    EXPECT_EQ(SameDatasetEncoding(base, mutant), same_text) << c.what;
    EXPECT_EQ(SameDatasetEncoding(mutant, base), same_text) << c.what;
  }
  // A different column count.
  data::Dataset fewer = base;
  fewer.descriptions = data::DataTable();
  EXPECT_FALSE(SameDatasetEncoding(base, fewer));
  EXPECT_NE(EncodeDatasetText(fewer), base_text);
}

// The streamed text is the compact tree text: chunking never shows.
TEST(SnapshotCodecTest, StreamedChunksConcatenateToTheEncoding) {
  data::Dataset big;
  big.name = "big";
  const size_t n = 20000;  // several 64-KiB chunks
  std::vector<double> values(n);
  linalg::Matrix targets(n, 1);
  for (size_t i = 0; i < n; ++i) {
    values[i] = 1.0 / double(i + 1);
    targets(i, 0) = double(i) * 0.1;
  }
  big.descriptions.AddColumn(data::Column::Numeric("v", values)).CheckOK();
  big.targets = targets;
  big.target_names = {"y"};
  std::vector<size_t> sizes;
  std::string text;
  StreamDataset(big, [&](std::string_view chunk) {
    sizes.push_back(chunk.size());
    text.append(chunk);
  });
  ASSERT_GT(sizes.size(), 2u);
  for (size_t k = 0; k + 1 < sizes.size(); ++k) {
    EXPECT_EQ(sizes[k], JsonChunkWriter::kChunkBytes);
  }
  EXPECT_GT(sizes.back(), 0u);
  EXPECT_LE(sizes.back(), JsonChunkWriter::kChunkBytes);
  EXPECT_EQ(text, EncodeDatasetText(big));
  // Re-parsed and written by the tree writer, the text comes back as is.
  EXPECT_EQ(JsonValue::Parse(text).Value().Write(), text);
}

model::BackgroundModel EvolvedModel() {
  random::Rng rng(77);
  linalg::Matrix y(30, 3);
  for (size_t i = 0; i < 30; ++i) {
    for (size_t j = 0; j < 3; ++j) y(i, j) = rng.Gaussian();
  }
  Result<model::BackgroundModel> model =
      model::BackgroundModel::CreateFromData(y);
  model.status().CheckOK();
  model.Value().WarmGroupCaches();
  pattern::Extension ext(30);
  for (size_t i = 0; i < 12; ++i) ext.Insert(i);
  linalg::Vector w{1.0, 0.0, 0.0};
  const linalg::Vector anchor = model.Value().ExpectedSubgroupMean(ext);
  const double expected =
      model.Value().ExpectedDirectionalVariance(ext, w, anchor);
  model.Value().UpdateSpread(ext, w, anchor, 0.6 * expected).status()
      .CheckOK();
  model.Value()
      .UpdateLocation(ext, anchor + linalg::Vector{0.5, 0.0, -0.25})
      .status()
      .CheckOK();
  return std::move(model).MoveValue();
}

TEST(SnapshotCodecTest, BackgroundModelRoundTripIsBitIdentical) {
  const model::BackgroundModel m = EvolvedModel();
  const model::BackgroundModel back =
      WireRoundTrip(m, EncodeBackgroundModel, DecodeBackgroundModel);
  ASSERT_EQ(back.num_groups(), m.num_groups());
  ASSERT_EQ(back.num_rows(), m.num_rows());
  for (size_t g = 0; g < m.num_groups(); ++g) {
    EXPECT_EQ(back.group(g).mu, m.group(g).mu) << g;
    EXPECT_EQ(back.group(g).sigma, m.group(g).sigma) << g;
    EXPECT_EQ(back.group(g).rows, m.group(g).rows) << g;
    // The rank-one-maintained factor round-trips bit-exactly — NOT a fresh
    // factorization of sigma.
    ASSERT_NE(m.CachedGroupFactor(g), nullptr) << g;
    ASSERT_NE(back.CachedGroupFactor(g), nullptr) << g;
    EXPECT_EQ(back.CachedGroupFactor(g)->L(), m.CachedGroupFactor(g)->L())
        << g;
  }
  EXPECT_EQ(back.GroupOfRows(), m.GroupOfRows());
}

TEST(SnapshotCodecTest, ModelWithColdFactorsKeepsThemCold) {
  model::BackgroundModel m = EvolvedModel();
  // Re-encode with the factor dropped from one group.
  JsonValue json = EncodeBackgroundModel(m);
  Result<JsonValue> parsed = JsonValue::Parse(json.Write());
  ASSERT_TRUE(parsed.ok());
  Result<model::BackgroundModel> back =
      DecodeBackgroundModel(parsed.Value());
  ASSERT_TRUE(back.ok());
  // Factor null markers for lazily-computed groups are preserved; a fully
  // warm model stays fully warm (EvolvedModel warms everything).
  for (size_t g = 0; g < back.Value().num_groups(); ++g) {
    EXPECT_EQ(back.Value().CachedGroupFactor(g) != nullptr,
              m.CachedGroupFactor(g) != nullptr);
  }
}

TEST(SnapshotCodecTest, AssimilatorRoundTrip) {
  model::PatternAssimilator assimilator(EvolvedModel());
  pattern::Extension ext(30);
  for (size_t i = 5; i < 20; ++i) ext.Insert(i);
  linalg::Vector mean{0.2, -0.1, 0.05};
  ASSERT_TRUE(assimilator.AddLocationPattern(ext, mean).ok());
  linalg::Vector direction{0.0, 1.0, 0.0};
  ASSERT_TRUE(
      assimilator.AddSpreadPattern(ext, direction, mean, 0.75).ok());

  const std::string text = EncodeAssimilator(assimilator).Write();
  Result<JsonValue> parsed = JsonValue::Parse(text);
  ASSERT_TRUE(parsed.ok());
  Result<model::PatternAssimilator> back = DecodeAssimilator(parsed.Value());
  ASSERT_TRUE(back.ok()) << back.status().ToString();

  ASSERT_EQ(back.Value().num_constraints(), 2u);
  const auto& constraints = back.Value().constraints();
  EXPECT_EQ(constraints[0].kind,
            model::AssimilatedConstraint::Kind::kLocation);
  EXPECT_EQ(constraints[0].extension, ext);
  EXPECT_EQ(constraints[0].mean, mean);
  EXPECT_EQ(constraints[1].kind, model::AssimilatedConstraint::Kind::kSpread);
  EXPECT_EQ(constraints[1].direction, direction.Normalized());
  EXPECT_EQ(constraints[1].variance, 0.75);
  EXPECT_EQ(back.Value().model().MaxParameterDelta(assimilator.model()), 0.0);
  EXPECT_EQ(back.Value().initial_model().MaxParameterDelta(
                assimilator.initial_model()),
            0.0);
  // Encoding the restored assimilator reproduces the same bytes.
  EXPECT_EQ(EncodeAssimilator(back.Value()).Write(), text);
}

}  // namespace
}  // namespace sisd::serialize
