#include "window/window_spec.h"

namespace sqp {

const char* WindowKindName(WindowKind kind) {
  switch (kind) {
    case WindowKind::kTimeSliding:
      return "time-sliding";
    case WindowKind::kTimeTumbling:
      return "time-tumbling";
    case WindowKind::kTimeLandmark:
      return "landmark";
    case WindowKind::kCountSliding:
      return "count-sliding";
    case WindowKind::kPunctuation:
      return "punctuation";
  }
  return "unknown";
}

Status WindowSpec::Validate() const {
  if (slide != 0 &&
      (kind != WindowKind::kTimeSliding || slide < 0 || slide > size)) {
    return Status::InvalidArgument(
        "slide requires a time-sliding window and 0 < slide <= size");
  }
  switch (kind) {
    case WindowKind::kTimeSliding:
    case WindowKind::kTimeTumbling:
    case WindowKind::kCountSliding:
      if (size <= 0) {
        return Status::InvalidArgument(std::string(WindowKindName(kind)) +
                                       " window requires positive size");
      }
      return Status::OK();
    case WindowKind::kTimeLandmark:
    case WindowKind::kPunctuation:
      return Status::OK();
  }
  return Status::InvalidArgument("unknown window kind");
}

std::string WindowSpec::ToString() const {
  std::string out = WindowKindName(kind);
  if (size > 0) out += " size=" + std::to_string(size);
  if (slide > 0) out += " slide=" + std::to_string(slide);
  if (kind == WindowKind::kTimeLandmark) {
    out += " start=" + std::to_string(start);
  }
  return out;
}

}  // namespace sqp
