#include "core/sketch_cache.h"

#include <utility>

#include "util/logging.h"

namespace tabsketch::core {

FixedSketchSource::FixedSketchSource(std::vector<Sketch> sketches) {
  sketches_.reserve(sketches.size());
  for (Sketch& sketch : sketches) {
    sketches_.push_back(std::make_shared<const Sketch>(std::move(sketch)));
  }
}

FixedSketchSource::FixedSketchSource(
    std::vector<std::shared_ptr<const Sketch>> sketches)
    : sketches_(std::move(sketches)) {
  for (const auto& sketch : sketches_) {
    TABSKETCH_CHECK(sketch != nullptr) << "null sketch in fixed source";
  }
}

std::shared_ptr<const Sketch> FixedSketchSource::Get(size_t index,
                                                     bool* computed) {
  TABSKETCH_CHECK(index < sketches_.size())
      << "tile " << index << " out of " << sketches_.size();
  if (computed != nullptr) *computed = false;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return sketches_[index];
}

}  // namespace tabsketch::core
