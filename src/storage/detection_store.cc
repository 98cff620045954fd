#include "storage/detection_store.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "obs/metrics.h"
#include "storage/segment_sketch.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace blazeit {

namespace fs = std::filesystem;

namespace {

constexpr const char* kSegmentPrefix = "ns-";
constexpr const char* kSegmentSuffix = ".seg";

/// Parses `ns-<16 hex>-<nonce>.seg`; returns false for foreign files.
bool ParseSegmentName(const std::string& filename, uint64_t* ns) {
  const std::string prefix = kSegmentPrefix;
  const std::string suffix = kSegmentSuffix;
  if (filename.size() < prefix.size() + 16 + suffix.size()) return false;
  if (filename.compare(0, prefix.size(), prefix) != 0) return false;
  if (filename.compare(filename.size() - suffix.size(), suffix.size(),
                       suffix) != 0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = 0; i < 16; ++i) {
    const char c = filename[prefix.size() + i];
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  *ns = value;
  return true;
}

/// Recovers the repair generation from a `…-0repair-<20-digit inverted
/// generation>-…` segment name; false for regular segments.
bool ParseRepairGeneration(const std::string& filename, uint64_t* generation) {
  const std::string prefix = kSegmentPrefix;
  constexpr const char* kRepairTag = "-0repair-";
  const size_t tag_at = prefix.size() + 16;
  const size_t tag_len = std::strlen(kRepairTag);
  if (filename.size() < tag_at + tag_len + 20) return false;
  if (filename.compare(tag_at, tag_len, kRepairTag) != 0) return false;
  uint64_t inverted = 0;
  for (size_t i = 0; i < 20; ++i) {
    const char c = filename[tag_at + tag_len + i];
    if (c < '0' || c > '9') return false;
    inverted = inverted * 10 + static_cast<uint64_t>(c - '0');
  }
  *generation = ~0ull - inverted;
  return true;
}

/// True when some engine codec decodes the payload. Float/double payloads
/// are unstructured, so this can only catch length mismatches for them;
/// detection payloads carry structure and reject most corruption.
bool PayloadDecodes(const std::string& payload) {
  if (DecodeDetectionsPayload(payload).ok()) return true;
  // Sketch payloads before the unstructured vector codecs: a sketch
  // payload whose byte length happens to be a float/double multiple must
  // not be classified as a data vector.
  if (DecodeSegmentSketchPayload(payload).ok()) return true;
  if (DecodeSketchMetaPayload(payload).ok()) return true;
  if (DecodeFloatsPayload(payload).ok()) return true;
  return DecodeDoublesPayload(payload).ok();
}

/// Removes `paths` plus any previously stranded files, keeping the
/// failures in `*stranded` so the namespace's next rewrite retries them.
/// Tolerated (warned) because the replacing segment's records win by name
/// order anyway — but only while the strand is remembered.
void RemoveSegmentsOrStrand(std::vector<std::string> paths,
                            std::vector<std::string>* stranded) {
  paths.insert(paths.end(), stranded->begin(), stranded->end());
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());
  stranded->clear();
  std::error_code ec;
  for (const std::string& path : paths) {
    fs::remove(path, ec);
    if (ec) {
      BLAZEIT_LOG(kWarning) << "could not remove superseded segment '"
                            << path << "': " << ec.message()
                            << " (will retry on the next rewrite)";
      ec.clear();
      stranded->push_back(path);
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// StoreWriter
// ---------------------------------------------------------------------------

Result<std::unique_ptr<StoreWriter>> StoreWriter::Create(
    const std::string& path, uint64_t record_namespace) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::Internal(
        StrFormat("cannot create store segment '%s'", path.c_str()));
  }
  std::string header;
  SegmentHeader h;
  h.record_namespace = record_namespace;
  EncodeSegmentHeader(h, &header);
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  if (!out) {
    return Status::Internal(
        StrFormat("write failed on store segment '%s'", path.c_str()));
  }
  return std::unique_ptr<StoreWriter>(
      new StoreWriter(path, std::move(out)));
}

Status StoreWriter::Append(int64_t frame, const std::string& payload) {
  scratch_.clear();
  EncodeRecord(frame, payload, &scratch_);
  out_.write(scratch_.data(), static_cast<std::streamsize>(scratch_.size()));
  if (!out_) {
    return Status::Internal(
        StrFormat("write failed on store segment '%s' at frame %lld",
                  path_.c_str(), static_cast<long long>(frame)));
  }
  record_offsets_.emplace_back(frame, kStoreHeaderBytes + bytes_written_);
  bytes_written_ += scratch_.size();
  return Status::OK();
}

Status StoreWriter::Close() {
  if (!out_.is_open()) return Status::OK();
  out_.flush();
  const bool ok = static_cast<bool>(out_);
  out_.close();
  if (!ok) {
    return Status::Internal(
        StrFormat("flush failed on store segment '%s'", path_.c_str()));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// StoreReader
// ---------------------------------------------------------------------------

Result<std::unique_ptr<StoreReader>> StoreReader::Open(
    const std::string& path, uint64_t expected_namespace,
    bool validate_records) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound(
        StrFormat("cannot open store segment '%s'", path.c_str()));
  }
  std::unique_ptr<StoreReader> reader(
      new StoreReader(path, std::move(in)));
  // No other thread can reach the reader yet; the lock exists to satisfy
  // the in_ ownership contract (and costs one uncontended acquire).
  util::MutexLock io_lock(reader->io_mu_);

  char header_buf[kStoreHeaderBytes];
  reader->in_.read(header_buf, sizeof(header_buf));
  const size_t header_read = static_cast<size_t>(reader->in_.gcount());
  auto header = DecodeSegmentHeader(header_buf, header_read);
  if (!header.ok()) {
    return Status(header.status().code(),
                  StrFormat("%s: %s", path.c_str(),
                            header.status().message().c_str()));
  }
  reader->header_ = header.value();
  if (expected_namespace != 0 &&
      reader->header_.record_namespace != expected_namespace) {
    return Status::InvalidArgument(StrFormat(
        "%s: stale or misnamed segment (header namespace %016llx does not "
        "match expected %016llx)",
        path.c_str(),
        static_cast<unsigned long long>(reader->header_.record_namespace),
        static_cast<unsigned long long>(expected_namespace)));
  }
  if (validate_records) {
    BLAZEIT_RETURN_NOT_OK(reader->ScanAndIndex());
  }
  reader->in_.close();  // reopened lazily by ReadPayloadAt
  static obs::Counter* opens = obs::MetricsRegistry::Global().GetCounter(
      "store.segment_opens", obs::Stability::kStable);
  opens->Add();
  return reader;
}

Status StoreReader::ScanAndIndex() {
  // Full CRC pass over every record, so a corrupt or truncated segment is
  // rejected at open — before anything gets replayed — with an error that
  // names the file. (Individual reads still re-verify their one record:
  // that is cheap and guards against the file changing after open.) The
  // pass reads the file sequentially into one buffer (per-record seeks
  // would turn warm opens into hundreds of thousands of tiny syscalls),
  // which is then dropped — only the frame -> offset index stays resident.
  in_.clear();
  in_.seekg(0, std::ios::end);
  const uint64_t file_size = static_cast<uint64_t>(in_.tellg());
  if (file_size < kStoreHeaderBytes) {
    return Status::OutOfRange(
        StrFormat("%s: truncated store header: %llu of %zu bytes",
                  path_.c_str(), static_cast<unsigned long long>(file_size),
                  kStoreHeaderBytes));
  }
  std::string buffer(file_size - kStoreHeaderBytes, '\0');
  in_.seekg(static_cast<std::streamoff>(kStoreHeaderBytes));
  in_.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  if (static_cast<size_t>(in_.gcount()) != buffer.size()) {
    return Status::Internal(
        StrFormat("%s: short read while indexing", path_.c_str()));
  }
  size_t pos = 0;
  while (pos < buffer.size()) {
    auto record = ValidateRecord(buffer.data() + pos, buffer.size() - pos);
    if (!record.ok()) {
      return Status(record.status().code(),
                    StrFormat("%s: %s", path_.c_str(),
                              record.status().message().c_str()));
    }
    index_[record.value().frame] = kStoreHeaderBytes + pos;
    pos += record.value().encoded_bytes;
  }
  static obs::Counter* validated = obs::MetricsRegistry::Global().GetCounter(
      "store.records_crc_validated", obs::Stability::kStable);
  validated->Add(static_cast<int64_t>(index_.size()));
  return Status::OK();
}

Result<std::string> StoreReader::ReadPayloadAt(uint64_t offset) {
  util::MutexLock io_lock(io_mu_);
  if (!in_.is_open()) {
    in_.open(path_, std::ios::binary);
    if (!in_) {
      return Status::NotFound(
          StrFormat("store segment '%s' disappeared", path_.c_str()));
    }
  }
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(offset));
  char rec_header[kRecordHeaderBytes];
  in_.read(rec_header, sizeof(rec_header));
  if (static_cast<size_t>(in_.gcount()) < sizeof(rec_header)) {
    return Status::OutOfRange(
        StrFormat("%s: truncated record header at offset %llu",
                  path_.c_str(), static_cast<unsigned long long>(offset)));
  }
  uint32_t payload_bytes;
  std::memcpy(&payload_bytes, rec_header + 8, sizeof(payload_bytes));
  if (payload_bytes > kMaxRecordPayloadBytes) {
    return Status::ParseError(StrFormat(
        "%s: corrupt record length %u at offset %llu", path_.c_str(),
        payload_bytes, static_cast<unsigned long long>(offset)));
  }
  const size_t total = kRecordHeaderBytes + payload_bytes + kRecordFooterBytes;
  std::string buffer(total, '\0');
  std::memcpy(buffer.data(), rec_header, kRecordHeaderBytes);
  in_.read(buffer.data() + kRecordHeaderBytes,
           static_cast<std::streamsize>(total - kRecordHeaderBytes));
  const size_t got = kRecordHeaderBytes + static_cast<size_t>(in_.gcount());
  auto record = DecodeRecord(buffer.data(), got);
  if (!record.ok()) {
    return Status(record.status().code(),
                  StrFormat("%s: %s", path_.c_str(),
                            record.status().message().c_str()));
  }
  static obs::Counter* reads = obs::MetricsRegistry::Global().GetCounter(
      "store.payload_reads", obs::Stability::kStable);
  static obs::Histogram* bytes = obs::MetricsRegistry::Global().GetHistogram(
      "store.payload_bytes", {64, 256, 1024, 4096, 16384, 65536},
      obs::Stability::kStable);
  reads->Add();
  bytes->Observe(static_cast<int64_t>(record.value().payload.size()));
  return std::move(record.value().payload);
}

// ---------------------------------------------------------------------------
// DetectionStore
// ---------------------------------------------------------------------------

Result<std::unique_ptr<DetectionStore>> DetectionStore::Open(
    const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal(StrFormat("cannot create store directory '%s': %s",
                                      dir.c_str(), ec.message().c_str()));
  }
  std::unique_ptr<DetectionStore> store(new DetectionStore(dir));

  // Deterministic directory order so duplicate frames resolve identically
  // across opens.
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    names.push_back(entry.path().filename().string());
  }
  if (ec) {
    return Status::Internal(StrFormat("cannot list store directory '%s': %s",
                                      dir.c_str(), ec.message().c_str()));
  }
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    uint64_t ns = 0;
    if (!ParseSegmentName(name, &ns)) continue;  // temp/foreign files
    auto reader = StoreReader::Open((fs::path(dir) / name).string(), ns);
    if (!reader.ok()) return reader.status();
    Shard& shard = store->shards_[ns];
    uint64_t repair_generation = 0;
    if (ParseRepairGeneration(name, &repair_generation)) {
      shard.repair_generation =
          std::max(shard.repair_generation, repair_generation);
    }
    const size_t segment_index = shard.segments.size();
    // Moved out of the reader: keeping both copies resident would double
    // index memory across a large store. Folded in ascending frame order,
    // which keeps a day's frames in the index's dense slots.
    std::unordered_map<int64_t, uint64_t> released =
        reader.value()->ReleaseIndex();
    std::vector<std::pair<int64_t, uint64_t>> records(released.begin(),
                                                      released.end());
    released.clear();
    std::sort(records.begin(), records.end());
    for (const auto& [frame, offset] : records) {
      // First segment (in sorted name order) wins on duplicate frames —
      // the same first-write-wins rule PutRaw and Flush apply — so every
      // reopening process resolves a duplicate to the same payload. A
      // losing record stays on disk as a shadowed duplicate until Compact
      // rewrites the namespace.
      if (!shard.disk_index.Insert(frame, {segment_index, offset})) {
        ++shard.shadowed;
      }
    }
    shard.segments.push_back(std::move(reader).value());
  }
  return store;
}

DetectionStore::~DetectionStore() {
  Status st = Flush();
  if (!st.ok()) {
    BLAZEIT_LOG(kWarning) << "detection store flush failed on close: "
                          << st.ToString();
  }
}

bool DetectionStore::Contains(uint64_t ns, int64_t frame) const {
  util::ReaderLock lock(mu_);
  auto it = shards_.find(ns);
  if (it == shards_.end()) return false;
  return it->second.pending.count(frame) > 0 ||
         it->second.disk_index.Contains(frame);
}

bool DetectionStore::FrameIndex::Insert(int64_t frame, Location where) {
  if (Contains(frame)) return false;
  BLAZEIT_CHECK(where.first < kAbsent);
  const size_t slot = static_cast<size_t>(frame);
  if (frame >= 0 && slot < std::max(segment_.size(), 2 * size_ + kDenseSlack)) {
    if (slot >= segment_.size()) {
      const int64_t old_end = static_cast<int64_t>(segment_.size());
      segment_.resize(slot + 1, kAbsent);
      offset_.resize(slot + 1, 0);
      // Sparse frames the dense slots now cover move into them, so sparse
      // frames stay negative or past every dense slot.
      for (auto it = sparse_.lower_bound(old_end);
           it != sparse_.end() && it->first < frame;
           it = sparse_.erase(it)) {
        segment_[static_cast<size_t>(it->first)] =
            static_cast<uint32_t>(it->second.first);
        offset_[static_cast<size_t>(it->first)] = it->second.second;
      }
    }
    segment_[slot] = static_cast<uint32_t>(where.first);
    offset_[slot] = where.second;
  } else {
    sparse_.emplace(frame, where);
  }
  ++size_;
  return true;
}

std::optional<DetectionStore::FrameIndex::Location>
DetectionStore::FrameIndex::Find(int64_t frame) const {
  const size_t slot = static_cast<size_t>(frame);
  if (frame >= 0 && slot < segment_.size()) {
    if (segment_[slot] == kAbsent) return std::nullopt;
    return Location{segment_[slot], offset_[slot]};
  }
  auto it = sparse_.find(frame);
  if (it == sparse_.end()) return std::nullopt;
  return it->second;
}

void DetectionStore::FrameIndex::Erase(int64_t frame) {
  const size_t slot = static_cast<size_t>(frame);
  if (frame >= 0 && slot < segment_.size()) {
    if (segment_[slot] == kAbsent) return;
    segment_[slot] = kAbsent;
  } else if (sparse_.erase(frame) == 0) {
    return;
  }
  --size_;
}

void DetectionStore::FrameIndex::Clear() {
  segment_.clear();
  offset_.clear();
  sparse_.clear();
  size_ = 0;
}

std::vector<int64_t> DetectionStore::FrameIndex::Frames() const {
  std::vector<int64_t> frames;
  frames.reserve(size_);
  // Sparse frames are negative or lie past every dense slot.
  auto sparse = sparse_.begin();
  for (; sparse != sparse_.end() && sparse->first < 0; ++sparse) {
    frames.push_back(sparse->first);
  }
  for (size_t slot = 0; slot < segment_.size(); ++slot) {
    if (segment_[slot] != kAbsent) frames.push_back(static_cast<int64_t>(slot));
  }
  for (; sparse != sparse_.end(); ++sparse) frames.push_back(sparse->first);
  return frames;
}

std::vector<int64_t> DetectionStore::ResolvedFrames(const Shard& shard) {
  std::vector<int64_t> frames = shard.disk_index.Frames();
  frames.reserve(frames.size() + shard.pending.size());
  for (const auto& [frame, _] : shard.pending) {
    if (!shard.disk_index.Contains(frame)) frames.push_back(frame);
  }
  std::sort(frames.begin(), frames.end());
  return frames;
}

std::optional<Result<std::string>> DetectionStore::ReadResolved(
    const Shard& shard, int64_t frame) {
  auto pending = shard.pending.find(frame);
  if (pending != shard.pending.end()) return pending->second;
  const std::optional<FrameIndex::Location> disk = shard.disk_index.Find(frame);
  if (!disk.has_value()) return std::nullopt;
  const auto& [segment_index, offset] = *disk;
  return shard.segments[segment_index]->ReadPayloadAt(offset);
}

std::optional<Result<std::string>> DetectionStore::LookupRaw(uint64_t ns,
                                                             int64_t frame) {
  // Shared lock: lookups race only with other lookups (the common case —
  // parallel frame scans all reading one warm store); the per-segment
  // file handle is guarded inside ReadPayloadAt.
  util::ReaderLock lock(mu_);
  auto it = shards_.find(ns);
  if (it == shards_.end()) return std::nullopt;
  return ReadResolved(it->second, frame);
}

Result<std::string> DetectionStore::GetRaw(uint64_t ns, int64_t frame) {
  if (auto payload = LookupRaw(ns, frame)) return std::move(*payload);
  return Status::NotFound(
      StrFormat("no record for namespace %016llx frame %lld",
                static_cast<unsigned long long>(ns),
                static_cast<long long>(frame)));
}

Status DetectionStore::PutRaw(uint64_t ns, int64_t frame,
                              std::string payload) {
  util::WriterLock lock(mu_);
  // A typed Get found this record unreadable: the caller's recomputed
  // payload replaces it in place (first-write-wins would keep the bad copy
  // winning, and every later run would fail on it again).
  if (malformed_.erase({ns, frame}) > 0) {
    return RepairLocked(ns, frame, payload);
  }
  Shard& shard = shards_[ns];
  // First write wins: records are deterministic per (namespace, frame), so
  // a duplicate Put is a repeat of known content, and keeping the indexed
  // copy stable avoids rewriting it into the next segment.
  if (shard.disk_index.Contains(frame)) return Status::OK();
  auto [it, inserted] = shard.pending.emplace(frame, std::move(payload));
  (void)it;
  if (inserted) ++pending_records_;
  return Status::OK();
}

template <typename T>
Result<T> DetectionStore::GetDecoded(uint64_t ns, int64_t frame,
                                     Result<T> (*decode)(const std::string&)) {
  auto payload = LookupRaw(ns, frame);
  // A miss is the read-through caches' every computed frame, and they
  // read only its code: its message is a short constant, not GetRaw's
  // formatted one.
  if (!payload.has_value()) return Status::NotFound("no record");
  Result<T> value = payload->ok() ? decode(payload->value())
                                  : Result<T>(payload->status());
  if (value.ok() || value.status().code() == StatusCode::kNotFound) {
    return value;
  }
  BLAZEIT_LOG(kWarning) << StrFormat(
      "store record %016llx/%lld is unreadable, the next Put of it repairs "
      "it in place: %s",
      static_cast<unsigned long long>(ns), static_cast<long long>(frame),
      value.status().ToString().c_str());
  util::WriterLock lock(mu_);
  malformed_.emplace(ns, frame);
  return value;
}

Result<std::vector<Detection>> DetectionStore::GetDetections(uint64_t ns,
                                                             int64_t frame) {
  return GetDecoded(ns, frame, &DecodeDetectionsPayload);
}

Status DetectionStore::PutDetections(
    uint64_t ns, int64_t frame, const std::vector<Detection>& detections) {
  return PutRaw(ns, frame, EncodeDetectionsPayload(detections));
}

Result<std::vector<float>> DetectionStore::GetFloats(uint64_t ns,
                                                     int64_t frame) {
  return GetDecoded(ns, frame, &DecodeFloatsPayload);
}

Status DetectionStore::PutFloats(uint64_t ns, int64_t frame,
                                 const std::vector<float>& values) {
  return PutRaw(ns, frame, EncodeFloatsPayload(values));
}

Result<std::vector<double>> DetectionStore::GetDoubles(uint64_t ns,
                                                       int64_t frame) {
  return GetDecoded(ns, frame, &DecodeDoublesPayload);
}

Status DetectionStore::PutDoubles(uint64_t ns, int64_t frame,
                                  const std::vector<double>& values) {
  return PutRaw(ns, frame, EncodeDoublesPayload(values));
}

Status DetectionStore::Scan(
    uint64_t ns, const std::function<Status(int64_t frame,
                                            const std::string& payload)>& fn) {
  // Collect the frame list under a shared lock, then read record by
  // record through GetRaw (which re-locks): holding a shared lock across
  // the callback would deadlock any fn that writes, and shared_mutex is
  // not recursive.
  std::vector<int64_t> frames;
  {
    util::ReaderLock lock(mu_);
    auto it = shards_.find(ns);
    if (it == shards_.end()) return Status::OK();
    frames = ResolvedFrames(it->second);
  }
  for (int64_t frame : frames) {
    auto payload = GetRaw(ns, frame);
    if (!payload.ok()) return payload.status();
    BLAZEIT_RETURN_NOT_OK(fn(frame, payload.value()));
  }
  return Status::OK();
}

std::string DetectionStore::NewSegmentPath(uint64_t ns) const {
  // Unique per (process, flush): concurrent processes flushing the same
  // namespace write distinct files, and rename() makes each appear
  // atomically.
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return (fs::path(dir_) /
          StrFormat("%s%016llx-%d-%llu-%llu%s", kSegmentPrefix,
                    static_cast<unsigned long long>(ns),
                    static_cast<int>(::getpid()),
                    static_cast<unsigned long long>(flush_counter_),
                    static_cast<unsigned long long>(now.count()),
                    kSegmentSuffix))
      .string();
}

std::string DetectionStore::RepairSegmentPath(uint64_t ns,
                                              uint64_t generation) const {
  // Repair segments must win first-write-wins over everything they
  // superseded even if a crash (or a failed unlink on a shared store)
  // strands an old segment alongside them. "0repair" sorts before any
  // pid (which never starts with '0'), and the zero-padded *inverted*
  // generation makes a newer repair sort before a stranded older one —
  // the generation is monotonic per namespace and restored from segment
  // names at Open, so ordering never depends on the wall clock.
  const unsigned long long inverted =
      ~0ull - static_cast<unsigned long long>(generation);
  return (fs::path(dir_) /
          StrFormat("%s%016llx-0repair-%020llu-%d%s", kSegmentPrefix,
                    static_cast<unsigned long long>(ns), inverted,
                    static_cast<int>(::getpid()), kSegmentSuffix))
      .string();
}

Status DetectionStore::Flush() {
  util::WriterLock lock(mu_);
  return FlushLocked();
}

Status DetectionStore::FlushLocked() {
  // Snapshot the dirty namespaces first: the sketch rebuild below mutates
  // sketch shards while we would otherwise still be iterating shards_.
  std::vector<uint64_t> dirty;
  for (const auto& [ns, shard] : shards_) {
    if (!shard.pending.empty()) dirty.push_back(ns);
  }
  static obs::Counter* flushes = obs::MetricsRegistry::Global().GetCounter(
      "store.segment_flushes", obs::Stability::kStable);
  for (uint64_t ns : dirty) {
    BLAZEIT_RETURN_NOT_OK(
        PublishSegmentLocked(ns, &shards_.at(ns), /*replace=*/false));
    flushes->Add();
  }
  // Eager sketch maintenance: a namespace is indexed iff its sketch shard
  // exists, and new base records make those sketches stale (Load would
  // reject them by record count), so rebuild them in the same flush.
  for (uint64_t ns : dirty) {
    if (shards_.count(SketchNamespace(ns)) > 0) {
      BLAZEIT_RETURN_NOT_OK(RebuildSketchesLocked(ns));
    }
  }
  return Status::OK();
}

Status DetectionStore::PublishSegmentLocked(uint64_t ns, Shard* shard,
                                            bool replace) {
  // A replacement is named at the next repair generation, so it wins
  // first-write-wins over every segment it supersedes even when one of
  // them outlives its unlink.
  if (!replace) ++flush_counter_;
  const std::string final_path =
      replace ? RepairSegmentPath(ns, ++shard->repair_generation)
              : NewSegmentPath(ns);
  const std::string tmp_path = final_path + ".tmp";
  auto writer = StoreWriter::Create(tmp_path, ns);
  if (!writer.ok()) return writer.status();
  if (replace) {
    // The resolved view: pending overriding disk, exactly what GetRaw
    // serves.
    for (int64_t frame : ResolvedFrames(*shard)) {
      auto payload = ReadResolved(*shard, frame);
      if (!payload->ok()) return payload->status();
      BLAZEIT_RETURN_NOT_OK(writer.value()->Append(frame, payload->value()));
    }
  } else {
    for (const auto& [frame, payload] : shard->pending) {
      BLAZEIT_RETURN_NOT_OK(writer.value()->Append(frame, payload));
    }
  }
  BLAZEIT_RETURN_NOT_OK(writer.value()->Close());
  std::error_code ec;
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    return Status::Internal(
        StrFormat("cannot publish store segment '%s': %s",
                  final_path.c_str(), ec.message().c_str()));
  }
  // Index the new segment from the offsets the writer tracked — this
  // process just wrote and checksummed every record, so re-reading the
  // file to index it (the common case being the destructor flush at suite
  // exit) would be pure waste.
  auto reader = StoreReader::Open(final_path, ns, /*validate_records=*/false);
  if (!reader.ok()) return reader.status();
  std::vector<std::string> old_paths;
  if (replace) {
    for (const auto& segment : shard->segments) {
      old_paths.push_back(segment->path());
    }
    shard->segments.clear();
    shard->disk_index.Clear();
    shard->shadowed = 0;
  }
  const size_t segment_index = shard->segments.size();
  for (const auto& [frame, offset] : writer.value()->record_offsets()) {
    shard->disk_index.Insert(frame, {segment_index, offset});
  }
  shard->segments.push_back(std::move(reader).value());
  pending_records_ -= static_cast<int64_t>(shard->pending.size());
  shard->pending.clear();
  // Old segments hold only payloads the new segment supersedes; removal
  // failures are non-fatal (the new segment's name sorts first, so its
  // records keep winning) but stay tracked for retry.
  if (replace) RemoveSegmentsOrStrand(std::move(old_paths), &shard->stranded);
  return Status::OK();
}

Result<int64_t> DetectionStore::DropUndecodableLocked(Shard* shard) {
  std::vector<int64_t> drop;
  for (int64_t frame : shard->disk_index.Frames()) {
    if (shard->pending.count(frame) > 0) continue;  // overridden, never read
    auto payload = ReadResolved(*shard, frame);
    if (!payload->ok()) return payload->status();
    if (!PayloadDecodes(payload->value())) drop.push_back(frame);
  }
  for (int64_t frame : drop) shard->disk_index.Erase(frame);
  return static_cast<int64_t>(drop.size());
}

Status DetectionStore::ReplaceNamespaceLocked(
    uint64_t ns, std::map<int64_t, std::string> records) {
  Shard& shard = shards_[ns];
  pending_records_ -= static_cast<int64_t>(shard.pending.size());
  shard.pending = std::move(records);
  pending_records_ += static_cast<int64_t>(shard.pending.size());
  // Clearing the disk index makes the rewrite's resolved view exactly the
  // replacement set; the superseded segments are still listed in
  // shard.segments, so the rewrite removes (or strands-and-retries) them.
  shard.disk_index.Clear();
  shard.shadowed = 0;
  return PublishSegmentLocked(ns, &shard, /*replace=*/true);
}

Status DetectionStore::RebuildSketchesLocked(uint64_t base_ns) {
  SketchBuilder builder;
  int64_t base_records = 0;
  auto base_it = shards_.find(base_ns);
  if (base_it != shards_.end()) {
    const Shard& shard = base_it->second;
    const std::vector<int64_t> frames = ResolvedFrames(shard);
    base_records = static_cast<int64_t>(frames.size());
    for (int64_t frame : frames) {
      auto payload = ReadResolved(shard, frame);
      if (!payload->ok()) return payload->status();
      auto detections = DecodeDetectionsPayload(payload->value());
      if (!detections.ok()) {
        return Status::InvalidArgument(StrFormat(
            "namespace %016llx is not a detections namespace (frame %lld: "
            "%s); only detection namespaces can be sketched",
            static_cast<unsigned long long>(base_ns),
            static_cast<long long>(frame),
            detections.status().message().c_str()));
      }
      builder.Add(frame, detections.value());
    }
  }
  std::map<int64_t, std::string> records;
  SketchMeta meta;
  meta.base_ns = base_ns;
  meta.base_record_count = base_records;
  std::vector<SegmentSketch> blocks = builder.Finish();
  meta.block_count = static_cast<int64_t>(blocks.size());
  records.emplace(kSketchMetaFrame, EncodeSketchMetaPayload(meta));
  for (const SegmentSketch& block : blocks) {
    records.emplace(block.first_frame, EncodeSegmentSketchPayload(block));
  }
  static obs::Counter* rebuilds = obs::MetricsRegistry::Global().GetCounter(
      "store.sketch_rebuilds", obs::Stability::kStable);
  rebuilds->Add();
  return ReplaceNamespaceLocked(SketchNamespace(base_ns), std::move(records));
}

Status DetectionStore::BuildSketches(uint64_t base_ns) {
  util::WriterLock lock(mu_);
  BLAZEIT_RETURN_NOT_OK(FlushLocked());
  if (shards_.find(base_ns) == shards_.end()) {
    return Status::NotFound(
        StrFormat("no records in namespace %016llx to sketch",
                  static_cast<unsigned long long>(base_ns)));
  }
  return RebuildSketchesLocked(base_ns);
}

Status DetectionStore::DropSketches(uint64_t base_ns) {
  util::WriterLock lock(mu_);
  const uint64_t sketch_ns = SketchNamespace(base_ns);
  if (shards_.find(sketch_ns) == shards_.end()) return Status::OK();
  // An empty replacement writes a record-free tombstone segment via the
  // repair path. (If an old sketch segment's unlink fails and later
  // resurrects, Load's record-count gate only accepts it while the base
  // is unchanged — in which case the resurrected sketches are still
  // accurate.)
  return ReplaceNamespaceLocked(sketch_ns, {});
}

Result<std::vector<DetectionStore::SketchInfo>> DetectionStore::ListSketches() {
  // Built from the public lookups (each takes its own shared lock): sketch
  // namespaces are recognized by their meta record, whose stored base_ns
  // must round-trip through SketchNamespace.
  std::vector<SketchInfo> out;
  for (uint64_t ns : Namespaces()) {
    auto payload = GetRaw(ns, kSketchMetaFrame);
    if (!payload.ok()) continue;
    auto meta = DecodeSketchMetaPayload(payload.value());
    if (!meta.ok() || SketchNamespace(meta.value().base_ns) != ns) continue;
    SketchInfo info;
    info.base_ns = meta.value().base_ns;
    info.sketch_ns = ns;
    info.blocks = meta.value().block_count;
    info.base_records_at_build = meta.value().base_record_count;
    info.base_records_now = RecordCount(meta.value().base_ns);
    info.current = info.base_records_now == info.base_records_at_build;
    out.push_back(info);
  }
  return out;
}

Status DetectionStore::Repair(uint64_t ns, int64_t frame,
                              const std::string& payload) {
  util::WriterLock lock(mu_);
  return RepairLocked(ns, frame, payload);
}

Status DetectionStore::RepairLocked(uint64_t ns, int64_t frame,
                                    const std::string& payload) {
  static obs::Counter* repairs = obs::MetricsRegistry::Global().GetCounter(
      "store.record_repairs", obs::Stability::kStable);
  repairs->Add();
  Shard& shard = shards_[ns];
  auto [it, inserted] = shard.pending.insert_or_assign(frame, payload);
  (void)it;
  if (inserted) ++pending_records_;
  if (!shard.disk_index.Contains(frame)) {
    // Nothing on disk to override: the regular flush path suffices (and
    // rebuilds sketches when it runs).
    return Status::OK();
  }
  // Since the whole namespace is being rewritten anyway, heal it in one
  // pass: any other record that decodes under no engine codec would just
  // trigger another full rewrite when it is next read, so drop it now (it
  // becomes a plain miss and is recomputed once).
  auto dropped = DropUndecodableLocked(&shard);
  if (!dropped.ok()) return dropped.status();
  if (dropped.value() > 0) {
    BLAZEIT_LOG(kWarning) << "namespace rewrite dropped " << dropped.value()
                          << " undecodable record(s); they will be "
                             "recomputed on next use";
  }
  BLAZEIT_RETURN_NOT_OK(PublishSegmentLocked(ns, &shard, /*replace=*/true));
  // The repair replaced payloads without changing the record count, which
  // is exactly the staleness Load's count gate cannot see — rebuild the
  // sketches eagerly.
  if (shards_.count(SketchNamespace(ns)) > 0) {
    return RebuildSketchesLocked(ns);
  }
  return Status::OK();
}

Result<DetectionStore::RepairStats> DetectionStore::Repair() {
  util::WriterLock lock(mu_);
  // Pending records were encoded by this process's codecs; flush so the
  // scan below sees one on-disk view per namespace.
  BLAZEIT_RETURN_NOT_OK(FlushLocked());

  RepairStats stats;
  std::vector<uint64_t> rewritten;
  for (auto& [ns, shard] : shards_) {
    ++stats.namespaces_scanned;
    stats.records_scanned += static_cast<int64_t>(shard.disk_index.size());
    auto dropped = DropUndecodableLocked(&shard);
    if (!dropped.ok()) return dropped.status();
    if (dropped.value() == 0) continue;
    stats.malformed_dropped += dropped.value();
    BLAZEIT_RETURN_NOT_OK(PublishSegmentLocked(ns, &shard, /*replace=*/true));
    ++stats.namespaces_rewritten;
    rewritten.push_back(ns);
  }
  // Dropping records changed the record count of each rewritten namespace;
  // refresh the sketches of the indexed ones (after the scan loop — the
  // rebuild mutates sketch shards, and must not race the iteration above).
  for (uint64_t ns : rewritten) {
    if (shards_.count(SketchNamespace(ns)) > 0) {
      BLAZEIT_RETURN_NOT_OK(RebuildSketchesLocked(ns));
    }
  }
  static obs::Counter* scans = obs::MetricsRegistry::Global().GetCounter(
      "store.repair_scans", obs::Stability::kStable);
  scans->Add();
  return stats;
}

Result<DetectionStore::CompactionStats> DetectionStore::Compact() {
  util::WriterLock lock(mu_);
  // Anything pending goes to disk first so compaction sees every record.
  BLAZEIT_RETURN_NOT_OK(FlushLocked());

  CompactionStats stats;
  for (auto& [ns, shard] : shards_) {
    stats.segments_before += static_cast<int64_t>(shard.segments.size());
    if (shard.segments.size() > 1 || shard.shadowed > 0) {
      // The rewrite copies exactly the winners GetRaw serves (first
      // segment in sorted name order) at the next repair generation, so
      // the compacted segment sorts before every segment it replaces: a
      // loser whose unlink fails, or that a crash strands, stays a
      // shadowed duplicate instead of winning on reopen.
      stats.duplicates_dropped += shard.shadowed;
      ++stats.namespaces_compacted;
      BLAZEIT_RETURN_NOT_OK(
          PublishSegmentLocked(ns, &shard, /*replace=*/true));
    } else if (!shard.stranded.empty()) {
      // Already compact: one segment, no shadowed duplicates. Still retry
      // any removals a previous rewrite left stranded.
      RemoveSegmentsOrStrand({}, &shard.stranded);
    }
    stats.segments_after += static_cast<int64_t>(shard.segments.size());
    stats.records_kept += static_cast<int64_t>(shard.disk_index.size());
  }
  static obs::Counter* compactions = obs::MetricsRegistry::Global().GetCounter(
      "store.compactions", obs::Stability::kStable);
  compactions->Add();
  return stats;
}

std::vector<uint64_t> DetectionStore::Namespaces() const {
  util::ReaderLock lock(mu_);
  std::vector<uint64_t> out;
  out.reserve(shards_.size());
  for (const auto& [ns, _] : shards_) out.push_back(ns);
  return out;
}

int64_t DetectionStore::ResolvedRecordCount(const Shard& shard) {
  int64_t total = static_cast<int64_t>(shard.disk_index.size());
  for (const auto& [frame, _] : shard.pending) {
    if (!shard.disk_index.Contains(frame)) ++total;
  }
  return total;
}

int64_t DetectionStore::RecordCount(uint64_t ns) const {
  util::ReaderLock lock(mu_);
  auto it = shards_.find(ns);
  if (it == shards_.end()) return 0;
  return ResolvedRecordCount(it->second);
}

std::vector<DetectionStore::NamespaceStats> DetectionStore::PerNamespaceStats()
    const {
  util::ReaderLock lock(mu_);
  std::vector<NamespaceStats> out;
  out.reserve(shards_.size());
  for (const auto& [ns, shard] : shards_) {
    NamespaceStats stats;
    stats.ns = ns;
    stats.segments = static_cast<int64_t>(shard.segments.size());
    stats.records = ResolvedRecordCount(shard);
    stats.pending = static_cast<int64_t>(shard.pending.size());
    stats.shadowed = shard.shadowed;
    stats.repair_generation = shard.repair_generation;
    out.push_back(stats);
  }
  return out;
}

int64_t DetectionStore::TotalRecords() const {
  util::ReaderLock lock(mu_);
  int64_t total = 0;
  for (const auto& [ns, shard] : shards_) {
    total += ResolvedRecordCount(shard);
  }
  return total;
}

int64_t DetectionStore::ShadowedRecords() const {
  util::ReaderLock lock(mu_);
  int64_t total = 0;
  for (const auto& [ns, shard] : shards_) total += shard.shadowed;
  return total;
}

}  // namespace blazeit
