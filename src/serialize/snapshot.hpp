/// \file snapshot.hpp
/// \brief JSON codecs for the library's value types — the building blocks
/// of the versioned session snapshot (core/session.hpp assembles them).
///
/// Every codec pair is a strict round trip: `Decode(Encode(x))` reproduces
/// `x` bit-identically (doubles included, via the json.hpp number format).
/// Decoders validate shape and return InvalidArgument with a field-level
/// message on malformed input; they never abort.

#ifndef SISD_SERIALIZE_SNAPSHOT_HPP_
#define SISD_SERIALIZE_SNAPSHOT_HPP_

#include <memory>

#include "common/status.hpp"
#include "data/table.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "model/assimilator.hpp"
#include "model/background_model.hpp"
#include "pattern/condition.hpp"
#include "pattern/extension.hpp"
#include "serialize/json.hpp"

namespace sisd::serialize {

/// \name Dense linear algebra.
/// @{
JsonValue EncodeVector(const linalg::Vector& v);
Result<linalg::Vector> DecodeVector(const JsonValue& json);
JsonValue EncodeMatrix(const linalg::Matrix& m);
Result<linalg::Matrix> DecodeMatrix(const JsonValue& json);
/// @}

/// Encodes an extension (row bitset) as `{n, blocks}` with the packed
/// 64-bit blocks hex-encoded. Snapshots store no extension; the
/// version-1 restore check compares stored ones with this encoding.
JsonValue EncodeExtension(const pattern::Extension& extension);

/// \name Conditions and intentions.
/// @{
JsonValue EncodeCondition(const pattern::Condition& condition);
Result<pattern::Condition> DecodeCondition(const JsonValue& json);
JsonValue EncodeIntention(const pattern::Intention& intention);
Result<pattern::Intention> DecodeIntention(const JsonValue& json);
/// @}

/// \name Datasets. A dataset is every cell of a table, so its encoding is
/// streamed rather than built as a tree: `StreamDataset` is the one
/// function that knows the layout,
/// `{"name", "target_names", "targets": <matrix>, "descriptions":
/// {"columns": [{"name", "kind", "values"} | {"name", "kind", "codes",
/// "labels"}, ...]}}`, and these canonical bytes are what snapshots
/// inline and what `catalog::FingerprintDataset` hashes.
/// @{
/// Emits the canonical encoding of `dataset` to `sink` in
/// `JsonChunkWriter::kChunkBytes` chunks.
void StreamDataset(const data::Dataset& dataset, const ChunkSink& sink);
/// The whole canonical encoding as one string.
std::string EncodeDatasetText(const data::Dataset& dataset);
/// True iff `a` and `b` have the same canonical encoding, decided without
/// encoding either: names, target names, shapes, column kinds, codes and
/// labels must be equal, and doubles bit-identical or both NaN (every NaN
/// is written as "NaN"; every other double's text is unique to its bits).
bool SameDatasetEncoding(const data::Dataset& a, const data::Dataset& b);
Result<data::Column> DecodeColumn(const JsonValue& json);
Result<data::DataTable> DecodeDataTable(const JsonValue& json);
Result<data::Dataset> DecodeDataset(const JsonValue& json);
/// @}

/// Encodes the fitted models (each group's mean, covariance and rows) and
/// the constraint registry in the layout version-1 snapshots stored. A
/// snapshot stores no model — a restore replays the history — so this
/// encoder serves the version-1 upgrade check, which compares a stored
/// `assimilator` with the replayed one. It has no decoder.
JsonValue EncodeAssimilator(const model::PatternAssimilator& assimilator);

}  // namespace sisd::serialize

#endif  // SISD_SERIALIZE_SNAPSHOT_HPP_
