/// \file fingerprint.hpp
/// \brief Content fingerprints for datasets: a stable 64-bit hash over the
/// serialized dataset, used as the catalog's content address.
///
/// The fingerprint is computed with FNV-1a over the deterministic snapshot
/// encoding of the dataset (the bytes `serialize::StreamDataset` emits,
/// hashed chunk by chunk as they stream, never held whole), so it is a
/// pure function of the dataset's content — columns, targets, names — and
/// identical across processes, platforms and sessions. Equal snapshot
/// bytes always fingerprint equal; the converse is only probabilistic
/// (FNV-1a is not collision-free), so the catalog treats the fingerprint
/// as an *index* and verifies that the encodings are equal
/// (`serialize::SameDatasetEncoding`) before ever deduplicating two
/// datasets onto one instance.

#ifndef SISD_CATALOG_FINGERPRINT_HPP_
#define SISD_CATALOG_FINGERPRINT_HPP_

#include <cstdint>
#include <string>

#include "common/status.hpp"
#include "data/table.hpp"

namespace sisd::catalog {

/// \brief A fingerprinted dataset encoding: the hash plus the size of the
/// serialized form (the catalog's unit of memory accounting).
struct DatasetFingerprint {
  uint64_t value = 0;  ///< FNV-1a over the snapshot encoding
  size_t bytes = 0;    ///< length of the snapshot encoding
};

/// \brief Streams `dataset` through the snapshot encoder and fingerprints
/// and counts the bytes as they pass (no string, no tree).
DatasetFingerprint FingerprintDataset(const data::Dataset& dataset);

/// \brief Renders a fingerprint as 16 lowercase hex digits (the wire and
/// display form, e.g. "04c11db7deadbeef").
std::string FingerprintToHex(uint64_t fingerprint);

/// \brief Parses the 16-hex-digit wire form back; InvalidArgument on any
/// other shape.
Result<uint64_t> FingerprintFromHex(const std::string& hex);

/// \brief Chain fingerprint of a row-append dataset version: FNV-1a
/// seeded with the parent's hex fingerprint, streamed over the typed
/// content of rows `[from_row, n)` — numeric description values and
/// targets by their double bits, categorical levels by label text (so the
/// identity is independent of code numbering). O(appended rows); no
/// serialized form is materialized, which keeps `Append` cost independent
/// of the prefix size.
uint64_t ChainFingerprintAppendedRows(uint64_t parent_fingerprint,
                                      const data::Dataset& child,
                                      size_t from_row);

/// \brief True iff `a` and `b` share a schema and rows `[from_row, n)`
/// are identical — bitwise for doubles, label text for categorical
/// levels. The version-dedup analogue of the catalog's byte verification
/// (a chain-fingerprint hit is only an index; this is the proof).
bool AppendedRowsEqual(const data::Dataset& a, const data::Dataset& b,
                       size_t from_row);

/// \brief Approximate in-memory size of rows `[from_row, n)`: the
/// marginal bytes a version adds on top of its parent (the catalog's
/// accounting unit for versions, whose prefix storage is shared).
size_t AppendedRowsBytes(const data::Dataset& child, size_t from_row);

/// \brief A by-reference pointer to a catalog dataset, as stored in
/// `dataset_ref` snapshots and accepted by the `open` protocol verb. The
/// fingerprint is the identity; the name is advisory (what the dataset was
/// registered as, kept for diagnostics and error messages).
struct DatasetRef {
  uint64_t fingerprint = 0;
  std::string name;
};

}  // namespace sisd::catalog

#endif  // SISD_CATALOG_FINGERPRINT_HPP_
