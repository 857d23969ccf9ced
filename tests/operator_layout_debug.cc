// Operator layouts as a translation unit built without NDEBUG sees them
// (a debug program). OperatorLayoutTest compares them with
// operator_layout_ndebug.cc's.
#undef NDEBUG
#define SQP_LAYOUT_FN OperatorLayoutDebug
#include "operator_layout.inc"
