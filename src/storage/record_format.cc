#include "storage/record_format.h"

#include <bit>
#include <cstring>

#include "util/crc32.h"
#include "util/string_util.h"

namespace blazeit {

// The format is defined as little-endian; this library only targets
// little-endian hosts, so encode/decode are plain memcpy.
static_assert(std::endian::native == std::endian::little,
              "detection-store format requires a little-endian host");

namespace {

template <typename T>
void AppendRaw(std::string* out, T value) {
  char buf[sizeof(T)];
  std::memcpy(buf, &value, sizeof(T));
  out->append(buf, sizeof(T));
}

template <typename T>
T ReadRaw(const unsigned char* p) {
  T value;
  std::memcpy(&value, p, sizeof(T));
  return value;
}

}  // namespace

void EncodeSegmentHeader(const SegmentHeader& header, std::string* out) {
  AppendRaw<uint64_t>(out, kStoreMagic);
  AppendRaw<uint32_t>(out, header.format_version);
  AppendRaw<uint32_t>(out, 0);  // flags
  AppendRaw<uint64_t>(out, header.record_namespace);
  AppendRaw<uint64_t>(out, 0);  // reserved
}

Result<SegmentHeader> DecodeSegmentHeader(const void* data, size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  if (size < sizeof(uint64_t)) {
    return Status::OutOfRange(
        StrFormat("truncated store file: %zu bytes, header needs %zu", size,
                  kStoreHeaderBytes));
  }
  const uint64_t magic = ReadRaw<uint64_t>(p);
  if (magic != kStoreMagic) {
    return Status::InvalidArgument(
        StrFormat("not a detection store file (bad magic 0x%016llx)",
                  static_cast<unsigned long long>(magic)));
  }
  if (size < kStoreHeaderBytes) {
    return Status::OutOfRange(
        StrFormat("truncated store header: %zu of %zu bytes", size,
                  kStoreHeaderBytes));
  }
  SegmentHeader header;
  header.format_version = ReadRaw<uint32_t>(p + 8);
  if (header.format_version != kStoreFormatVersion) {
    return Status::FailedPrecondition(
        StrFormat("store format version %u unsupported (reader expects %u); "
                  "rebuild the cache",
                  header.format_version, kStoreFormatVersion));
  }
  header.record_namespace = ReadRaw<uint64_t>(p + 16);
  return header;
}

void EncodeRecord(int64_t frame, const std::string& payload,
                  std::string* out) {
  const size_t start = out->size();
  AppendRaw<int64_t>(out, frame);
  AppendRaw<uint32_t>(out, static_cast<uint32_t>(payload.size()));
  AppendRaw<uint32_t>(out, 0);  // reserved
  out->append(payload);
  const uint32_t crc =
      Crc32(out->data() + start, kRecordHeaderBytes + payload.size());
  AppendRaw<uint32_t>(out, crc);
}

Result<RecordInfo> ValidateRecord(const void* data, size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  if (size < kRecordHeaderBytes) {
    return Status::OutOfRange(
        StrFormat("truncated record header: %zu of %zu bytes", size,
                  kRecordHeaderBytes));
  }
  RecordInfo info;
  info.frame = ReadRaw<int64_t>(p);
  const uint32_t payload_bytes = ReadRaw<uint32_t>(p + 8);
  if (payload_bytes > kMaxRecordPayloadBytes) {
    return Status::ParseError(
        StrFormat("corrupt record at frame %lld: payload length %u exceeds "
                  "the %u-byte cap",
                  static_cast<long long>(info.frame), payload_bytes,
                  kMaxRecordPayloadBytes));
  }
  const size_t total =
      kRecordHeaderBytes + payload_bytes + kRecordFooterBytes;
  if (size < total) {
    return Status::OutOfRange(
        StrFormat("truncated record at frame %lld: %zu of %zu bytes",
                  static_cast<long long>(info.frame), size, total));
  }
  const uint32_t stored_crc =
      ReadRaw<uint32_t>(p + kRecordHeaderBytes + payload_bytes);
  const uint32_t actual_crc = Crc32(p, kRecordHeaderBytes + payload_bytes);
  if (stored_crc != actual_crc) {
    return Status::ParseError(
        StrFormat("checksum mismatch at frame %lld: stored 0x%08x, "
                  "computed 0x%08x",
                  static_cast<long long>(info.frame), stored_crc,
                  actual_crc));
  }
  info.encoded_bytes = total;
  return info;
}

Result<DecodedRecord> DecodeRecord(const void* data, size_t size) {
  auto info = ValidateRecord(data, size);
  if (!info.ok()) return info.status();
  DecodedRecord record;
  record.frame = info.value().frame;
  record.encoded_bytes = info.value().encoded_bytes;
  record.payload.assign(
      static_cast<const char*>(data) + kRecordHeaderBytes,
      record.encoded_bytes - kRecordHeaderBytes - kRecordFooterBytes);
  return record;
}

std::string EncodeDetectionsPayload(
    const std::vector<Detection>& detections) {
  std::string out;
  size_t bytes = sizeof(uint32_t);
  for (const Detection& det : detections) {
    bytes += sizeof(int32_t) + 5 * sizeof(double) + sizeof(uint32_t) +
             det.features.size() * sizeof(float);
  }
  out.reserve(bytes);
  AppendRaw<uint32_t>(&out, static_cast<uint32_t>(detections.size()));
  for (const Detection& det : detections) {
    AppendRaw<int32_t>(&out, det.class_id);
    AppendRaw<double>(&out, det.rect.xmin);
    AppendRaw<double>(&out, det.rect.ymin);
    AppendRaw<double>(&out, det.rect.xmax);
    AppendRaw<double>(&out, det.rect.ymax);
    AppendRaw<double>(&out, det.score);
    AppendRaw<uint32_t>(&out, static_cast<uint32_t>(det.features.size()));
    for (float f : det.features) AppendRaw<float>(&out, f);
  }
  return out;
}

Result<std::vector<Detection>> DecodeDetectionsPayload(
    const std::string& payload) {
  const auto* cursor = reinterpret_cast<const unsigned char*>(payload.data());
  const unsigned char* end = cursor + payload.size();
  if (payload.size() < sizeof(uint32_t)) {
    return Status::ParseError("detections payload shorter than its count");
  }
  const uint32_t count = ReadRaw<uint32_t>(cursor);
  cursor += sizeof(uint32_t);
  constexpr size_t kFixed =
      sizeof(int32_t) + 5 * sizeof(double) + sizeof(uint32_t);
  // A payload from another record kind misread as detections can claim
  // billions of rows; every real row occupies at least its fixed-width
  // prefix, so reject impossible counts before reserve() can throw.
  if (static_cast<size_t>(end - cursor) < static_cast<size_t>(count) * kFixed) {
    return Status::ParseError(StrFormat(
        "detections payload too short for its claimed %u rows", count));
  }
  std::vector<Detection> detections;
  detections.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (static_cast<size_t>(end - cursor) < kFixed) {
      return Status::ParseError(
          StrFormat("detections payload ends inside row %u of %u", i, count));
    }
    Detection det;
    det.class_id = ReadRaw<int32_t>(cursor);
    if (det.class_id < 0 || det.class_id >= kNumClasses) {
      return Status::ParseError(
          StrFormat("row %u names unknown class %d", i, det.class_id));
    }
    det.rect.xmin = ReadRaw<double>(cursor + 4);
    det.rect.ymin = ReadRaw<double>(cursor + 12);
    det.rect.xmax = ReadRaw<double>(cursor + 20);
    det.rect.ymax = ReadRaw<double>(cursor + 28);
    det.score = ReadRaw<double>(cursor + 36);
    const uint32_t num_features = ReadRaw<uint32_t>(cursor + 44);
    cursor += kFixed;
    const size_t feature_bytes =
        static_cast<size_t>(num_features) * sizeof(float);
    if (static_cast<size_t>(end - cursor) < feature_bytes) {
      return Status::ParseError(StrFormat(
          "feature vector of row %u overruns the detections payload", i));
    }
    det.features.resize(num_features);
    if (num_features > 0) {
      std::memcpy(det.features.data(), cursor, feature_bytes);
    }
    cursor += feature_bytes;
    detections.push_back(std::move(det));
  }
  if (cursor != end) {
    return Status::ParseError(
        StrFormat("detections payload has %zu trailing bytes",
                  static_cast<size_t>(end - cursor)));
  }
  return detections;
}

std::string EncodeFloatsPayload(const std::vector<float>& values) {
  std::string out;
  out.resize(values.size() * sizeof(float));
  if (!values.empty()) {
    std::memcpy(out.data(), values.data(), out.size());
  }
  return out;
}

Result<std::vector<float>> DecodeFloatsPayload(const std::string& payload) {
  if (payload.size() % sizeof(float) != 0) {
    return Status::ParseError(
        StrFormat("floats payload of %zu bytes is not a multiple of 4",
                  payload.size()));
  }
  std::vector<float> values(payload.size() / sizeof(float));
  if (!values.empty()) {
    std::memcpy(values.data(), payload.data(), payload.size());
  }
  return values;
}

std::string EncodeDoublesPayload(const std::vector<double>& values) {
  std::string out;
  out.resize(values.size() * sizeof(double));
  if (!values.empty()) {
    std::memcpy(out.data(), values.data(), out.size());
  }
  return out;
}

Result<std::vector<double>> DecodeDoublesPayload(const std::string& payload) {
  if (payload.size() % sizeof(double) != 0) {
    return Status::ParseError(
        StrFormat("doubles payload of %zu bytes is not a multiple of 8",
                  payload.size()));
  }
  std::vector<double> values(payload.size() / sizeof(double));
  if (!values.empty()) {
    std::memcpy(values.data(), payload.data(), payload.size());
  }
  return values;
}

}  // namespace blazeit
