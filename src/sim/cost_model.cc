#include "sim/cost_model.h"

#include "util/check.h"
#include "util/string_util.h"

namespace blazeit {

CostMeter::CostMeter(const CostMeter& other)
    : profile_(other.profile_),
      detection_calls_(other.detection_calls_),
      specialized_nn_calls_(other.specialized_nn_calls_),
      filter_calls_(other.filter_calls_),
      training_frames_(other.training_frames_),
      detection_seconds_(other.detection_seconds_),
      specialized_nn_seconds_(other.specialized_nn_seconds_),
      filter_seconds_(other.filter_seconds_),
      training_seconds_(other.training_seconds_),
      thresholding_seconds_(other.thresholding_seconds_) {}

CostMeter& CostMeter::operator=(const CostMeter& other) {
  if (this == &other) return *this;
  profile_ = other.profile_;
  detection_calls_ = other.detection_calls_;
  specialized_nn_calls_ = other.specialized_nn_calls_;
  filter_calls_ = other.filter_calls_;
  training_frames_ = other.training_frames_;
  detection_seconds_ = other.detection_seconds_;
  specialized_nn_seconds_ = other.specialized_nn_seconds_;
  filter_seconds_ = other.filter_seconds_;
  training_seconds_ = other.training_seconds_;
  thresholding_seconds_ = other.thresholding_seconds_;
  // The assignee is a fresh accounting context: re-arm the owner pin.
  owner_.store(std::thread::id(), std::memory_order_relaxed);
  return *this;
}

#ifdef BLAZEIT_COSTMETER_THREAD_CHECK

void CostMeter::CheckOwner() {
  const std::thread::id self = std::this_thread::get_id();
  std::thread::id expected;  // default-constructed: unowned
  if (owner_.compare_exchange_strong(expected, self,
                                     std::memory_order_relaxed)) {
    return;  // first charge pins this thread as the owner
  }
  BLAZEIT_CHECK(expected == self)
      << ": CostMeter charged from two threads; charge sites must stay on "
         "the query's coordinating thread (see the class comment)";
}

#endif  // BLAZEIT_COSTMETER_THREAD_CHECK

void CostMeter::ChargeDetectionAspect(double aspect) {
  CheckOwner();
  ++detection_calls_;
  detection_seconds_ += profile_.DetectionSecondsForAspect(aspect);
}

void CostMeter::ChargeSpecializedNN(int64_t frames) {
  CheckOwner();
  specialized_nn_calls_ += frames;
  specialized_nn_seconds_ +=
      static_cast<double>(frames) * profile_.specialized_nn_sec_per_frame;
}

void CostMeter::ChargeFilter(int64_t frames) {
  CheckOwner();
  filter_calls_ += frames;
  filter_seconds_ +=
      static_cast<double>(frames) * profile_.filter_sec_per_frame;
}

void CostMeter::ChargeTraining(int64_t frames) {
  CheckOwner();
  training_frames_ += frames;
  training_seconds_ +=
      static_cast<double>(frames) * profile_.nn_train_sec_per_frame;
}

void CostMeter::ChargeThresholding(int64_t frames) {
  CheckOwner();
  thresholding_seconds_ +=
      static_cast<double>(frames) * profile_.threshold_sec_per_frame;
}

double CostMeter::TotalSeconds() const {
  return detection_seconds_ + specialized_nn_seconds_ + filter_seconds_ +
         training_seconds_ + thresholding_seconds_;
}

double CostMeter::QuerySeconds() const {
  return detection_seconds_ + specialized_nn_seconds_ + filter_seconds_;
}

void CostMeter::Reset() {
  owner_.store(std::thread::id(), std::memory_order_relaxed);
  detection_calls_ = 0;
  specialized_nn_calls_ = 0;
  filter_calls_ = 0;
  training_frames_ = 0;
  detection_seconds_ = 0;
  specialized_nn_seconds_ = 0;
  filter_seconds_ = 0;
  training_seconds_ = 0;
  thresholding_seconds_ = 0;
}

std::string CostMeter::ToString() const {
  return StrFormat(
      "detections=%lld (%.1fs) nn=%lld (%.1fs) filters=%lld (%.1fs) "
      "train=%lld (%.1fs) total=%.1fs",
      static_cast<long long>(detection_calls_), detection_seconds_,
      static_cast<long long>(specialized_nn_calls_), specialized_nn_seconds_,
      static_cast<long long>(filter_calls_), filter_seconds_,
      static_cast<long long>(training_frames_), training_seconds_,
      TotalSeconds());
}

}  // namespace blazeit
