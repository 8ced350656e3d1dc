// Fixture: R8 scope check — src/privacy/fastica_step.cpp holds the FastICA
// step kernel's ISA variant and its dispatch. Lint input only.
#include <immintrin.h>

__attribute__((target("avx2"), flatten)) double widened(double x) { return x; }

bool dispatch() { return __builtin_cpu_supports("avx2"); }
