#ifndef BLAZEIT_STORAGE_DETECTION_STORE_H_
#define BLAZEIT_STORAGE_DETECTION_STORE_H_

#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "detect/detection.h"
#include "storage/record_format.h"
#include "util/mutex.h"
#include "util/status.h"

namespace blazeit {

/// Writes one segment file: header first, then appended records, buffered
/// through the underlying ofstream. The store writes segments to a
/// temporary name and renames them into place on Flush, so concurrent
/// processes sharing a store directory never observe partial files.
class StoreWriter {
 public:
  static Result<std::unique_ptr<StoreWriter>> Create(
      const std::string& path, uint64_t record_namespace);

  Status Append(int64_t frame, const std::string& payload);
  /// Flushes buffers and closes the file; no further Appends.
  Status Close();

  const std::string& path() const { return path_; }
  /// (frame, file offset) of every appended record, in append order — lets
  /// the store index a freshly written segment without re-reading it.
  const std::vector<std::pair<int64_t, uint64_t>>& record_offsets() const {
    return record_offsets_;
  }

 private:
  StoreWriter(std::string path, std::ofstream out)
      : path_(std::move(path)), out_(std::move(out)) {}

  std::string path_;
  std::ofstream out_;
  std::string scratch_;
  uint64_t bytes_written_ = 0;
  std::vector<std::pair<int64_t, uint64_t>> record_offsets_;
};

/// Reads one segment file. Open() validates the header and CRC-scans every
/// record (a corrupt, truncated, stale, or foreign file is rejected with a
/// descriptive Status), building the frame -> offset index that backs
/// random access.
class StoreReader {
 public:
  /// `expected_namespace`: when nonzero, a header whose namespace differs
  /// is rejected (a renamed/stale file). `validate_records` = false skips
  /// the record scan (index() stays empty) — only for segments this
  /// process just wrote and checksummed itself.
  static Result<std::unique_ptr<StoreReader>> Open(
      const std::string& path, uint64_t expected_namespace = 0,
      bool validate_records = true);

  uint64_t record_namespace() const { return header_.record_namespace; }
  const std::string& path() const { return path_; }

  /// Frames present in this segment and the offset of each record.
  const std::unordered_map<int64_t, uint64_t>& index() const {
    return index_;
  }

  /// Moves the index out (the store folds it into its own per-namespace
  /// map; keeping both resident would double index memory).
  std::unordered_map<int64_t, uint64_t> ReleaseIndex() {
    return std::move(index_);
  }

  /// Reads and re-verifies the record at `offset` (as returned in index()).
  /// Thread-safe: the shared file handle (seek + read is a stateful pair)
  /// is mutex-guarded, so concurrent readers of one segment serialize on
  /// the I/O while the store's surrounding index lookups stay shared.
  Result<std::string> ReadPayloadAt(uint64_t offset) BLAZEIT_EXCLUDES(io_mu_);

 private:
  StoreReader(std::string path, std::ifstream in)
      : path_(std::move(path)), in_(std::move(in)) {}

  /// Construction-time only (called by Open under io_mu_, before the
  /// reader is shared).
  Status ScanAndIndex() BLAZEIT_REQUIRES(io_mu_);

  std::string path_;
  /// Guards in_: ReadPayloadAt's reopen/seek/read sequence must be atomic
  /// per segment under concurrent GetRaw calls.
  util::Mutex io_mu_;
  /// Closed after ScanAndIndex (stores accumulate segments without bound,
  /// and holding one fd per segment forever would hit EMFILE on long-lived
  /// stores); ReadPayloadAt reopens on first use and then keeps it open,
  /// so only actively-read segments cost a descriptor.
  std::ifstream in_ BLAZEIT_GUARDED_BY(io_mu_);
  SegmentHeader header_;
  std::unordered_map<int64_t, uint64_t> index_;
};

/// Disk-resident cache of expensive per-frame artifacts, replacing the
/// process-lifetime detector memoization with state that survives runs
/// (the paper's "run the detector once and record the results", Section
/// 10.2, made persistent). Records live in *namespaces* — a namespace is a
/// fingerprint identifying how its payloads were produced (stream day ×
/// detector for detection rows; trained NN × day for per-frame NN outputs)
/// — and each (namespace, frame) maps to one payload.
///
/// On disk a store is a directory of immutable segment files named
/// `ns-<namespace hex>-<nonce>.seg`. Open() indexes every segment; Put()
/// buffers in memory; Flush() writes one new segment per dirty namespace
/// via temp-file + rename, so concurrent processes can share a store
/// directory (each flush adds segments, never mutates existing ones).
/// Duplicate frames across segments are benign — payloads are
/// deterministic functions of the namespace and frame.
///
/// Logical query cost is charged by the executors per detector/NN *call*,
/// so replaying from the store changes wall-clock only, never the
/// simulated runtimes (asserted end-to-end by store_invariance_test).
///
/// Thread-safety (the exec-pool lock audit): index lookups take a shared
/// lock (Contains / GetRaw / Scan / RecordCount — the read-mostly hot
/// path of parallel frame scans), mutations take it exclusively (PutRaw /
/// Flush / Compact), and the per-segment file handle behind a read is
/// guarded inside StoreReader. Callers need no external locking.
class DetectionStore {
 public:
  /// Opens (creating the directory if needed) and indexes every segment.
  /// Any invalid segment fails the open with that segment's error.
  static Result<std::unique_ptr<DetectionStore>> Open(
      const std::string& dir);

  ~DetectionStore();

  DetectionStore(const DetectionStore&) = delete;
  DetectionStore& operator=(const DetectionStore&) = delete;

  bool Contains(uint64_t ns, int64_t frame) const;

  /// Raw payload access; NotFound, naming the key, when the record is
  /// absent.
  Result<std::string> GetRaw(uint64_t ns, int64_t frame);
  /// First write wins, except for a key a typed Get found unreadable: that
  /// Put replaces the record in place through Repair.
  Status PutRaw(uint64_t ns, int64_t frame, std::string payload);

  /// Typed wrappers for the payload codecs — the read-through caches' path.
  /// An absent record is a NotFound with a constant message (no
  /// formatting per miss). A record that exists but fails to read or
  /// decode (a CRC-valid record from a writer bug or key collision) is
  /// logged and remembered, so the caller's recompute-and-Put of that key
  /// repairs it in place instead of losing to first-write-wins and failing
  /// again on every run.
  Result<std::vector<Detection>> GetDetections(uint64_t ns, int64_t frame);
  Status PutDetections(uint64_t ns, int64_t frame,
                       const std::vector<Detection>& detections);
  Result<std::vector<float>> GetFloats(uint64_t ns, int64_t frame);
  Status PutFloats(uint64_t ns, int64_t frame,
                   const std::vector<float>& values);
  Result<std::vector<double>> GetDoubles(uint64_t ns, int64_t frame);
  Status PutDoubles(uint64_t ns, int64_t frame,
                    const std::vector<double>& values);

  /// Streams every record of a namespace in ascending frame order.
  Status Scan(uint64_t ns,
              const std::function<Status(int64_t frame,
                                         const std::string& payload)>& fn);

  /// Writes all pending records out as new segments. Idempotent.
  Status Flush();

  /// What Compact did, for reporting (storecli compact prints this).
  struct CompactionStats {
    int64_t namespaces_compacted = 0;
    int64_t segments_before = 0;
    int64_t segments_after = 0;
    int64_t records_kept = 0;
    /// First-write-wins-shadowed duplicate records dropped from disk.
    int64_t duplicates_dropped = 0;
  };

  /// Rewrites every namespace that has multiple segments or shadowed
  /// duplicate records into one fresh segment holding only the winning
  /// record per frame, then deletes the old segments. Pending records are
  /// flushed first. Record resolution is unchanged: the new segment
  /// contains exactly the payloads GetRaw resolved before (first segment
  /// in sorted name order wins), so a store reads identically before and
  /// after. The new segment is written at the namespace's next repair
  /// generation, so it sorts before every segment it replaces: if a crash
  /// or a failed unlink leaves an old segment behind — a shadowed loser
  /// included — its records are shadowed duplicates of the compacted
  /// winners, never served, and the next Compact drops them.
  Result<CompactionStats> Compact();

  /// Durably replaces the payload of one record, overriding first-write-
  /// wins — the healing path for a CRC-valid but semantically malformed
  /// record (a writer bug or key collision), which a plain Put cannot fix
  /// because the indexed copy keeps winning. The namespace is rewritten in
  /// place into one fresh segment (named to sort before the segments it
  /// replaces, so the repaired record wins even if a crash strands an old
  /// segment), and reads serve the new payload immediately. Repairing an
  /// absent record is a plain Put. The rewrite also heals the rest of the
  /// namespace in the same pass: any other record no engine codec decodes
  /// is dropped (logged) rather than copied, so mass corruption costs one
  /// rewrite, not one per poisoned record read. PutRaw runs this for a key
  /// a typed Get found unreadable.
  Status Repair(uint64_t ns, int64_t frame, const std::string& payload);

  /// What the store-wide Repair() scan did (storecli repair prints this).
  struct RepairStats {
    int64_t namespaces_scanned = 0;
    int64_t records_scanned = 0;
    /// Records whose CRC was fine but whose payload no engine codec
    /// decodes; dropped so the next run recomputes and re-stores them
    /// once instead of warning on every run.
    int64_t malformed_dropped = 0;
    int64_t namespaces_rewritten = 0;
  };

  /// Builds (or rebuilds) the per-segment zone-map sketches of a detection
  /// namespace (see storage/segment_sketch.h): pending records are flushed
  /// first, every payload of `base_ns` is decoded as detections (an error
  /// if the namespace holds any other payload kind), and the sketch
  /// records land under SketchNamespace(base_ns) via the repair-named
  /// rewrite path — so a fresh build always sorts before any stranded
  /// older sketch segment. Once built, the namespace stays *indexed*: the
  /// store rebuilds its sketches automatically on every later Flush of
  /// new base records and after every Repair that rewrites the base
  /// payloads (Compact preserves the resolved view, so sketches survive it
  /// unchanged).
  Status BuildSketches(uint64_t base_ns);

  /// Removes the sketches of `base_ns` (the namespace stops being indexed
  /// and stops refreshing). No-op when none exist.
  Status DropSketches(uint64_t base_ns);

  /// One sketched namespace, for storecli sketch ls/verify.
  struct SketchInfo {
    uint64_t base_ns = 0;
    uint64_t sketch_ns = 0;
    int64_t blocks = 0;
    int64_t base_records_at_build = 0;
    int64_t base_records_now = 0;
    /// Record counts match: SketchIndex::Load would accept this index.
    bool current = false;
  };

  /// Every sketch namespace in the store with its staleness state.
  Result<std::vector<SketchInfo>> ListSketches();

  /// Store-wide integrity repair: reads every record (pending records are
  /// flushed first), validates that its payload decodes under one of the
  /// engine's payload codecs (detections / floats / doubles), and rewrites
  /// every namespace holding undecodable records without them. Dropping
  /// turns a poisoned record into a plain miss, which the read-through
  /// caches heal by recomputing once. Limitations: (a) a malformed
  /// payload whose byte length still matches a float/double vector is
  /// indistinguishable from data and is kept; (b) unlike a *replaced*
  /// record (which keeps winning by segment-name order), a *dropped*
  /// record can resurrect if a crash or failed unlink strands the old
  /// segment — rerunning repair drops it again, and the in-process
  /// repair path (a typed Get remembering the record, the next Put of it
  /// running the targeted Repair above) heals either way as soon as the
  /// record is next read.
  Result<RepairStats> Repair();

  /// Per-namespace inventory for `storecli stats`: resolved record count
  /// (disk winners + pending-only records, i.e. what RecordCount reports),
  /// segment/pending/shadowed breakdown, and the repair generation.
  struct NamespaceStats {
    uint64_t ns = 0;
    int64_t segments = 0;
    int64_t records = 0;
    int64_t pending = 0;
    int64_t shadowed = 0;
    uint64_t repair_generation = 0;
  };

  /// One entry per namespace, in ascending namespace order.
  std::vector<NamespaceStats> PerNamespaceStats() const;

  const std::string& dir() const { return dir_; }
  std::vector<uint64_t> Namespaces() const;
  /// Records on disk + pending, across all namespaces.
  int64_t TotalRecords() const;
  /// Records on disk + pending in one namespace (index lookups only; no
  /// payload reads).
  int64_t RecordCount(uint64_t ns) const;
  int64_t pending_records() const BLAZEIT_EXCLUDES(mu_) {
    util::ReaderLock lock(mu_);
    return pending_records_;
  }
  /// On-disk duplicate records shadowed by first-write-wins, across all
  /// namespaces — what Compact would drop.
  int64_t ShadowedRecords() const;

 private:
  /// frame -> (segment index, offset) of one namespace's on-disk records.
  /// A namespace's frames are a day's small non-negative indices, so they
  /// are kept dense: 12 bytes per frame slot, where a hash node per record
  /// took about 56. The dense slots stay within twice the record count
  /// plus kDenseSlack, so an outlying frame id (and the blob sentinel -1)
  /// goes to a side map instead of growing the array.
  class FrameIndex {
   public:
    using Location = std::pair<size_t, uint64_t>;

    /// Adds `frame` unless it is present; returns whether it was added.
    bool Insert(int64_t frame, Location where);
    std::optional<Location> Find(int64_t frame) const;
    bool Contains(int64_t frame) const { return Find(frame).has_value(); }
    void Erase(int64_t frame);
    void Clear();
    size_t size() const { return size_; }
    /// Every indexed frame, in ascending order.
    std::vector<int64_t> Frames() const;

   private:
    static constexpr uint32_t kAbsent = ~uint32_t{0};
    static constexpr size_t kDenseSlack = 4096;

    /// Slot f holds frame f's location; kAbsent marks an empty slot.
    std::vector<uint32_t> segment_;
    std::vector<uint64_t> offset_;
    std::map<int64_t, Location> sparse_;
    size_t size_ = 0;
  };

  struct Shard {
    /// One reader per on-disk segment of this namespace.
    std::vector<std::unique_ptr<StoreReader>> segments;
    /// The first segment in sorted name order wins on duplicates (matching
    /// PutRaw's first-write-wins), so duplicate frames resolve identically
    /// across opens and processes.
    FrameIndex disk_index;
    /// Records accepted by Put but not yet flushed (frame-ordered so
    /// segments are written sorted).
    std::map<int64_t, std::string> pending;
    /// On-disk records shadowed by an earlier segment's record for the
    /// same frame (counted while folding indexes at Open/Flush); the
    /// duplicate debt Compact clears.
    int64_t shadowed = 0;
    /// Highest repair generation seen in this namespace's segment names
    /// (restored at Open); the next repair uses generation + 1 so newer
    /// repairs always sort before stranded older ones.
    uint64_t repair_generation = 0;
    /// Superseded segment files whose unlink failed (tolerated, warned).
    /// Tracked so every later rewrite/compaction of the namespace retries
    /// the removal — an untracked strand could otherwise outlive a later
    /// Compact and, sorting first, resurrect stale records on reopen.
    std::vector<std::string> stranded;
  };

  explicit DetectionStore(std::string dir) : dir_(std::move(dir)) {}

  /// The record read behind GetRaw and the typed Gets: ReadResolved under
  /// a shared lock; nullopt when the record is absent.
  std::optional<Result<std::string>> LookupRaw(uint64_t ns, int64_t frame)
      BLAZEIT_EXCLUDES(mu_);
  /// Shared body of the typed Gets: LookupRaw, then `decode`; a failure
  /// other than NotFound marks the key in malformed_.
  template <typename T>
  Result<T> GetDecoded(uint64_t ns, int64_t frame,
                       Result<T> (*decode)(const std::string&))
      BLAZEIT_EXCLUDES(mu_);
  /// The targeted Repair's body; caller holds mu_ exclusively.
  Status RepairLocked(uint64_t ns, int64_t frame, const std::string& payload)
      BLAZEIT_REQUIRES(mu_);

  /// Every frame a read of `shard` resolves — disk winners plus
  /// pending-only frames — in ascending order.
  static std::vector<int64_t> ResolvedFrames(const Shard& shard);
  /// How many frames ResolvedFrames would list.
  static int64_t ResolvedRecordCount(const Shard& shard);
  /// The one record read behind GetRaw, Scan, every rewrite and the
  /// sketch rebuild: the pending copy first (it overrides disk; only
  /// Repair creates such a collision), else the first-write-wins disk
  /// winner. nullopt only for a frame outside ResolvedFrames — a miss
  /// builds no Status, because a cold ingest takes it once per detector
  /// call. Caller holds mu_ (shared suffices).
  static std::optional<Result<std::string>> ReadResolved(const Shard& shard,
                                                         int64_t frame);

  std::string NewSegmentPath(uint64_t ns) const;
  /// Names a repair segment so it sorts before every regular segment of
  /// the namespace AND before every earlier repair (repaired records must
  /// win first-write-wins even if a crash leaves an old segment behind).
  /// Ordering comes from a monotonic per-namespace `generation` persisted
  /// in the name — not the wall clock, which can step backwards.
  std::string RepairSegmentPath(uint64_t ns, uint64_t generation) const;
  /// The store's one segment write, so segment naming, publish order,
  /// index install and stranding live here only: records go to a temp
  /// file that is renamed into place and indexed from the writer's
  /// offsets. `replace` false (Flush) appends the pending records as a
  /// regular-named segment. `replace` true (Repair, Compact, sketch
  /// replacement) writes the resolved view, read through ReadResolved, at
  /// the next repair generation as the namespace's only segment, then
  /// removes the old files or strands them for retry. Caller holds mu_
  /// exclusively.
  Status PublishSegmentLocked(uint64_t ns, Shard* shard, bool replace)
      BLAZEIT_REQUIRES(mu_);
  /// Flush body; caller holds mu_ exclusively. Publishes one segment per
  /// dirty namespace, then rebuilds the sketches of every dirty namespace
  /// that is indexed (has a sketch shard).
  Status FlushLocked() BLAZEIT_REQUIRES(mu_);
  /// Drops from `shard`'s disk index every record no engine codec decodes
  /// (records pending overrides are never read, so never checked), and
  /// returns how many; the replacing publish that follows leaves them off
  /// disk. Caller holds mu_ exclusively.
  Result<int64_t> DropUndecodableLocked(Shard* shard) BLAZEIT_REQUIRES(mu_);
  /// Rebuilds SketchNamespace(base_ns) from the base shard's resolved
  /// view; caller holds mu_ exclusively and must not be iterating shards_
  /// unless the sketch shard already exists (the rebuild inserts it).
  Status RebuildSketchesLocked(uint64_t base_ns) BLAZEIT_REQUIRES(mu_);
  /// Replaces the full record set of a namespace (first-write-wins cannot
  /// update records in place) through the replacing publish, so the
  /// replacement sorts before anything it supersedes even when an old
  /// segment's unlink fails. Caller holds mu_ exclusively.
  Status ReplaceNamespaceLocked(uint64_t ns,
                                std::map<int64_t, std::string> records)
      BLAZEIT_REQUIRES(mu_);

  std::string dir_;
  /// Shared for index lookups, exclusive for mutation; see the class
  /// comment.
  mutable util::SharedMutex mu_;
  std::map<uint64_t, Shard> shards_ BLAZEIT_GUARDED_BY(mu_);
  int64_t pending_records_ BLAZEIT_GUARDED_BY(mu_) = 0;
  uint64_t flush_counter_ BLAZEIT_GUARDED_BY(mu_) = 0;
  /// (namespace, frame) keys a typed Get found unreadable; the next PutRaw
  /// of one consumes it and repairs the record in place.
  std::set<std::pair<uint64_t, int64_t>> malformed_ BLAZEIT_GUARDED_BY(mu_);
};

}  // namespace blazeit

#endif  // BLAZEIT_STORAGE_DETECTION_STORE_H_
