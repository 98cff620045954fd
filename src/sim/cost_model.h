#ifndef BLAZEIT_SIM_COST_MODEL_H_
#define BLAZEIT_SIM_COST_MODEL_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

/// CostMeter's single-writer assertion (see below). Active in debug
/// builds and — because the default CI build is RelWithDebInfo, where
/// NDEBUG would compile a plain assert away — also under
/// ThreadSanitizer, so the TSan CI lane always runs with the check on.
/// Only the check depends on this macro: the owner field and the copy
/// operations exist in every build, so translation units compiled with
/// and without NDEBUG agree on CostMeter's layout.
#if !defined(NDEBUG) || defined(__SANITIZE_THREAD__)
#define BLAZEIT_COSTMETER_THREAD_CHECK 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define BLAZEIT_COSTMETER_THREAD_CHECK 1
#endif
#endif

namespace blazeit {

/// Per-operation costs in simulated GPU/CPU seconds. Defaults follow the
/// paper's measured throughputs (Section 5): Mask R-CNN ~3 fps, FGFA ~3 fps,
/// specialized NNs ~10,000 fps, simple filters ~100,000 fps. The paper
/// extrapolates end-to-end runtimes from the number of calls times these
/// per-call costs (Sections 10.2 and 10.4); we adopt the same accounting so
/// that relative speedups are directly comparable.
struct CostProfile {
  /// Full object detection, seconds per frame (3 fps).
  double detection_sec_per_frame = 1.0 / 3.0;
  /// Specialized NN inference, seconds per frame (10,000 fps).
  double specialized_nn_sec_per_frame = 1.0 / 10000.0;
  /// Simple (non-NN) filter evaluation, seconds per frame (100,000 fps).
  double filter_sec_per_frame = 1.0 / 100000.0;
  /// Specialized NN training, seconds per training frame. The paper trains
  /// 150k frames in roughly the time of one epoch on a P100; we charge
  /// forward+backward at ~1/3 of inference throughput.
  double nn_train_sec_per_frame = 3.0 / 10000.0;
  /// Threshold / statistics computation over the held-out set, seconds per
  /// frame (re-uses cached specialized NN outputs, so cheap).
  double threshold_sec_per_frame = 1.0 / 100000.0;

  /// Detector cost scaling for spatially cropped frames: detectors resize
  /// the short edge to a fixed size, so cost scales with the long/short
  /// aspect ratio (Section 8). `aspect` = long_edge / short_edge >= 1.
  double DetectionSecondsForAspect(double aspect) const {
    return detection_sec_per_frame * aspect / (16.0 / 9.0);
  }
};

/// Tracks the simulated time consumed by each operation class during query
/// execution. All executors charge their work here; benchmarks read the
/// totals to report "runtime" exactly the way the paper does.
///
/// Thread-safety: counters are plain fields on purpose — a meter belongs
/// to exactly one query, and every charge site runs on that query's
/// coordinating thread. The parallel stages (FramePipeline sweeps,
/// ParallelMap scans) never charge; their callers charge the batched
/// totals serially after the parallel section returns, which is also what
/// keeps simulated costs bit-identical across pool sizes. The executors'
/// one serial-context callback that charges from a lambda (the
/// control-variates FrameOracle) runs on the coordinator too. This
/// single-writer contract is asserted in debug/TSan builds: the first
/// Charge* pins the owning thread, later charges from any other thread
/// abort. Reset() (and copying, which the executors do when handing a
/// meter by value) clears the owner, re-arming the check for the new
/// context.
class CostMeter {
 public:
  explicit CostMeter(CostProfile profile = CostProfile())
      : profile_(profile) {}

  /// The owner pin is an atomic, which would otherwise delete the copy
  /// operations CostMeter relies on (AggregateExecutor passes meters by
  /// value; QueryOutput copies them around). Copies take the counters but
  /// not the owner: the copy belongs to whoever charges it next.
  CostMeter(const CostMeter& other);
  CostMeter& operator=(const CostMeter& other);

  const CostProfile& profile() const { return profile_; }

  /// Charges one full object detection call at the default aspect ratio.
  void ChargeDetection() { ChargeDetectionAspect(16.0 / 9.0); }
  /// Charges a detection on a cropped frame with the given aspect ratio.
  void ChargeDetectionAspect(double aspect);
  void ChargeSpecializedNN(int64_t frames = 1);
  void ChargeFilter(int64_t frames = 1);
  void ChargeTraining(int64_t frames = 1);
  void ChargeThresholding(int64_t frames = 1);

  int64_t detection_calls() const { return detection_calls_; }
  int64_t specialized_nn_calls() const { return specialized_nn_calls_; }
  int64_t filter_calls() const { return filter_calls_; }
  int64_t training_frames() const { return training_frames_; }

  double detection_seconds() const { return detection_seconds_; }
  double specialized_nn_seconds() const { return specialized_nn_seconds_; }
  double filter_seconds() const { return filter_seconds_; }
  double training_seconds() const { return training_seconds_; }
  double thresholding_seconds() const { return thresholding_seconds_; }

  /// Total simulated runtime including NN training (the paper's "BlazeIt"
  /// rows include training; "BlazeIt (no train)" excludes it).
  double TotalSeconds() const;
  /// Simulated runtime excluding training and thresholding time, i.e. the
  /// cost if specialized NNs were indexed ahead of time.
  double QuerySeconds() const;

  void Reset();

  /// One-line summary for logs: calls and seconds per category.
  std::string ToString() const;

 private:
  /// Aborts (debug/TSan builds) if this meter has been charged from a
  /// different thread since the last Reset()/copy. Called by every
  /// Charge*.
#ifdef BLAZEIT_COSTMETER_THREAD_CHECK
  void CheckOwner();
#else
  void CheckOwner() {}
#endif
  std::atomic<std::thread::id> owner_{std::thread::id()};

  CostProfile profile_;
  int64_t detection_calls_ = 0;
  int64_t specialized_nn_calls_ = 0;
  int64_t filter_calls_ = 0;
  int64_t training_frames_ = 0;
  double detection_seconds_ = 0;
  double specialized_nn_seconds_ = 0;
  double filter_seconds_ = 0;
  double training_seconds_ = 0;
  double thresholding_seconds_ = 0;
};

}  // namespace blazeit

#endif  // BLAZEIT_SIM_COST_MODEL_H_
