// Operator layouts as a translation unit built with NDEBUG sees them (a
// release library). OperatorLayoutTest compares them with
// operator_layout_debug.cc's.
#ifndef NDEBUG
#define NDEBUG
#endif
#define SQP_LAYOUT_FN OperatorLayoutNdebug
#include "operator_layout.inc"
