#include "catalog/fingerprint.hpp"

#include <bit>

#include "serialize/snapshot.hpp"

namespace sisd::catalog {

namespace {

/// Incremental FNV-1a 64.
struct Fnv64 {
  uint64_t h = 14695981039346656037ull;  // FNV offset basis

  void Bytes(const void* data, size_t size) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      h ^= uint64_t(p[i]);
      h *= 1099511628211ull;  // FNV prime
    }
  }
  void U64(uint64_t v) {
    // Explicit little-endian byte order so the hash is platform-stable.
    unsigned char bytes[8];
    for (int i = 0; i < 8; ++i) bytes[i] = (unsigned char)(v >> (8 * i));
    Bytes(bytes, 8);
  }
  void Double(double v) { U64(std::bit_cast<uint64_t>(v)); }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
};

}  // namespace

DatasetFingerprint FingerprintDataset(const data::Dataset& dataset) {
  Fnv64 fnv;
  DatasetFingerprint out;
  serialize::StreamDataset(dataset, [&](std::string_view chunk) {
    fnv.Bytes(chunk.data(), chunk.size());
    out.bytes += chunk.size();
  });
  out.value = fnv.h;
  return out;
}

uint64_t ChainFingerprintAppendedRows(uint64_t parent_fingerprint,
                                      const data::Dataset& child,
                                      size_t from_row) {
  Fnv64 fnv;
  fnv.Str(FingerprintToHex(parent_fingerprint));
  const size_t n = child.num_rows();
  const size_t num_desc = child.num_descriptions();
  const size_t dy = child.num_targets();
  fnv.U64(from_row);
  fnv.U64(n);
  fnv.U64(num_desc);
  fnv.U64(dy);
  for (size_t i = from_row; i < n; ++i) {
    for (size_t j = 0; j < num_desc; ++j) {
      const data::Column& col = child.descriptions.column(j);
      if (data::IsOrderable(col.kind())) {
        fnv.Double(col.NumericValue(i));
      } else {
        fnv.Str(col.Label(col.Code(i)));
      }
    }
    for (size_t t = 0; t < dy; ++t) {
      fnv.Double(child.targets(i, t));
    }
  }
  return fnv.h;
}

bool AppendedRowsEqual(const data::Dataset& a, const data::Dataset& b,
                       size_t from_row) {
  if (a.num_rows() != b.num_rows() ||
      a.num_descriptions() != b.num_descriptions() ||
      a.num_targets() != b.num_targets() ||
      a.target_names != b.target_names) {
    return false;
  }
  const size_t n = a.num_rows();
  for (size_t j = 0; j < a.num_descriptions(); ++j) {
    const data::Column& ca = a.descriptions.column(j);
    const data::Column& cb = b.descriptions.column(j);
    if (ca.name() != cb.name() || ca.kind() != cb.kind()) return false;
  }
  for (size_t i = from_row; i < n; ++i) {
    for (size_t j = 0; j < a.num_descriptions(); ++j) {
      const data::Column& ca = a.descriptions.column(j);
      const data::Column& cb = b.descriptions.column(j);
      if (data::IsOrderable(ca.kind())) {
        if (std::bit_cast<uint64_t>(ca.NumericValue(i)) !=
            std::bit_cast<uint64_t>(cb.NumericValue(i))) {
          return false;
        }
      } else if (ca.Label(ca.Code(i)) != cb.Label(cb.Code(i))) {
        return false;
      }
    }
    for (size_t t = 0; t < a.num_targets(); ++t) {
      if (std::bit_cast<uint64_t>(a.targets(i, t)) !=
          std::bit_cast<uint64_t>(b.targets(i, t))) {
        return false;
      }
    }
  }
  return true;
}

size_t AppendedRowsBytes(const data::Dataset& child, size_t from_row) {
  const size_t rows = child.num_rows() - from_row;
  size_t per_row = child.num_targets() * sizeof(double);
  for (size_t j = 0; j < child.num_descriptions(); ++j) {
    const data::Column& col = child.descriptions.column(j);
    per_row += data::IsOrderable(col.kind()) ? sizeof(double)
                                             : sizeof(int32_t);
  }
  return rows * per_row;
}

std::string FingerprintToHex(uint64_t fingerprint) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[size_t(i)] = kDigits[fingerprint & 0xf];
    fingerprint >>= 4;
  }
  return out;
}

Result<uint64_t> FingerprintFromHex(const std::string& hex) {
  if (hex.size() != 16) {
    return Status::InvalidArgument(
        "fingerprint must be 16 hex digits, got '" + hex + "'");
  }
  uint64_t value = 0;
  for (char c : hex) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return Status::InvalidArgument(
          "fingerprint must be 16 hex digits, got '" + hex + "'");
    }
    value = (value << 4) | uint64_t(digit);
  }
  return value;
}

}  // namespace sisd::catalog
