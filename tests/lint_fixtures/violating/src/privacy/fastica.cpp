// Fixture: R8/isa-confinement — the step kernel's neighbour is not the kernel.
#include <immintrin.h>  // line 2: R8

__attribute__((target("avx2"))) double widened(double x) {  // line 4: R8
  return x;
}

bool dispatch() { return __builtin_cpu_supports("avx2"); }  // line 8: R8
