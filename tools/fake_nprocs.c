// Fakes the host's core count for the tests: overrides get_nprocs and
// get_nprocs_conf (what std::thread::hardware_concurrency reads on glibc)
// with MRCOST_FAKE_NPROCS (unset or invalid = 1). Build and preload:
//   gcc -shared -fPIC -o libfake_nprocs.so tools/fake_nprocs.c
//   MRCOST_FAKE_NPROCS=64 LD_PRELOAD=$PWD/libfake_nprocs.so ctest ...
#include <stdlib.h>

static int fake_nprocs(void) {
  const char* value = getenv("MRCOST_FAKE_NPROCS");
  const int n = value != NULL ? atoi(value) : 0;
  return n > 0 ? n : 1;
}

int get_nprocs(void) { return fake_nprocs(); }
int get_nprocs_conf(void) { return fake_nprocs(); }
