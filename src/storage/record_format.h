#ifndef BLAZEIT_STORAGE_RECORD_FORMAT_H_
#define BLAZEIT_STORAGE_RECORD_FORMAT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "detect/detection.h"
#include "util/status.h"

namespace blazeit {

/// On-disk format of a detection-store segment file. All integers and IEEE
/// floats are little-endian and packed without padding (encode/decode go
/// through memcpy, never struct overlay).
///
///   segment   := file-header record*
///   file-header (32 bytes):
///     magic               u64   "BZITDET1"
///     format_version      u32   kStoreFormatVersion
///     flags               u32   0 (reserved)
///     namespace           u64   fingerprint of the record namespace this
///                               segment belongs to (e.g. a stream-day ×
///                               detector, or a trained-NN × day)
///     reserved            u64   0
///   record (16-byte header + payload + 4-byte CRC footer):
///     frame               i64
///     payload_bytes       u32   size of the payload that follows
///     reserved            u32   0
///     payload             payload_bytes of namespace-defined content
///     crc32               u32   CRC-32 of header + payload; the per-record
///                               footer that catches bit rot and truncation
///
/// Payloads are opaque at this layer; the two codecs the engine uses are
/// below: detection rows (the primary payload) and raw float vectors (NN
/// weights and per-frame NN outputs).
///
///   detections payload := count u32, then per detection:
///     class_id            i32
///     xmin,ymin,xmax,ymax f64
///     score               f64
///     num_features        u32
///     features            f32 * num_features
///   floats payload      := f32 * (payload_bytes / 4)
///
/// Readers reject, with a distinct Status per failure mode, anything that is
/// not byte-exact: wrong magic (InvalidArgument), wrong version
/// (FailedPrecondition), short header/record (OutOfRange "truncated"), and
/// CRC or structural corruption (ParseError). Stale caches never get
/// silently replayed.
inline constexpr uint64_t kStoreMagic = 0x3154454454495A42ull;  // "BZITDET1"
inline constexpr uint32_t kStoreFormatVersion = 1;
inline constexpr size_t kStoreHeaderBytes = 32;
inline constexpr size_t kRecordHeaderBytes = 16;
inline constexpr size_t kRecordFooterBytes = 4;
/// Sanity cap on one record's payload; larger length fields mean a corrupt
/// file, not a bigger frame.
inline constexpr uint32_t kMaxRecordPayloadBytes = 64u << 20;

/// Decoded segment file header.
struct SegmentHeader {
  uint32_t format_version = kStoreFormatVersion;
  uint64_t record_namespace = 0;
};

/// Appends the 32-byte encoded header to `out`.
void EncodeSegmentHeader(const SegmentHeader& header, std::string* out);

/// Decodes and validates a header from the first bytes of a file. `size` is
/// the number of bytes available (the whole file or a prefix >= 32).
Result<SegmentHeader> DecodeSegmentHeader(const void* data, size_t size);

/// Appends one encoded record (header + payload + CRC footer) to `out`.
void EncodeRecord(int64_t frame, const std::string& payload,
                  std::string* out);

/// One decoded record plus how many input bytes it consumed, so callers can
/// walk a segment record by record.
struct DecodedRecord {
  int64_t frame = 0;
  std::string payload;
  size_t encoded_bytes = 0;
};

/// Decodes the record starting at `data`; `size` is the bytes remaining in
/// the file. Verifies the CRC footer.
Result<DecodedRecord> DecodeRecord(const void* data, size_t size);

/// Framing and CRC validation of DecodeRecord without materializing the
/// payload — what index-building scans use.
struct RecordInfo {
  int64_t frame = 0;
  size_t encoded_bytes = 0;
};
Result<RecordInfo> ValidateRecord(const void* data, size_t size);

/// Serializes detection rows into a record payload (byte-exact round trip,
/// including IEEE bit patterns of box/score doubles and feature floats).
std::string EncodeDetectionsPayload(const std::vector<Detection>& detections);

/// Parses a detections payload; ParseError on any structural mismatch or
/// a class id outside [0, kNumClasses).
Result<std::vector<Detection>> DecodeDetectionsPayload(
    const std::string& payload);

/// Serializes a float vector (NN weights, per-frame NN outputs).
std::string EncodeFloatsPayload(const std::vector<float>& values);

/// Parses a floats payload; ParseError if the size is not a multiple of 4.
Result<std::vector<float>> DecodeFloatsPayload(const std::string& payload);

/// Serializes a double vector (per-frame filter scores, which must not be
/// rounded to float — that could flip threshold comparisons).
std::string EncodeDoublesPayload(const std::vector<double>& values);

/// Parses a doubles payload; ParseError if the size is not a multiple of 8.
Result<std::vector<double>> DecodeDoublesPayload(const std::string& payload);

}  // namespace blazeit

#endif  // BLAZEIT_STORAGE_RECORD_FORMAT_H_
