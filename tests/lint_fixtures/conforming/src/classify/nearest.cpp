// Fixture: R8 scope check — src/classify/nearest.cpp holds the lane kernel's
// ISA variant and its dispatch. Lint input only.
#include <immintrin.h>

__attribute__((target("avx2"))) double widened(double x) { return x; }

bool dispatch() { return __builtin_cpu_supports("avx2"); }
