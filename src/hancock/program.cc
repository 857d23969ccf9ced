#include "hancock/program.h"

#include <algorithm>

namespace sqp {
namespace hancock {

SignatureProgram::SignatureProgram(int key_col, ExprRef filter)
    : key_col_(key_col), filter_(std::move(filter)) {}

void SignatureProgram::RunBlock(std::vector<TupleRef> block,
                                const Events& events) const {
  // sortedby: stable so calls within a line keep stream order.
  std::stable_sort(block.begin(), block.end(),
                   [this](const TupleRef& a, const TupleRef& b) {
                     return a->at(static_cast<size_t>(key_col_)) <
                            b->at(static_cast<size_t>(key_col_));
                   });

  bool line_open = false;
  int64_t current_key = 0;
  for (const TupleRef& t : block) {
    // filteredby.
    if (filter_ != nullptr && !filter_->Test(*t)) continue;
    int64_t key = t->at(static_cast<size_t>(key_col_)).ToInt();
    if (!line_open || key != current_key) {
      if (line_open && events.line_end) events.line_end(current_key);
      current_key = key;
      line_open = true;
      ++lines_;
      if (events.line_begin) events.line_begin(key);
    }
    ++calls_;
    if (events.call) events.call(*t);
  }
  if (line_open && events.line_end) events.line_end(current_key);
}

}  // namespace hancock
}  // namespace sqp
