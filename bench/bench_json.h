#ifndef TABSKETCH_BENCH_BENCH_JSON_H_
#define TABSKETCH_BENCH_BENCH_JSON_H_

#include <cstdio>
#include <thread>

#include "core/code_kernels.h"

namespace tabsketch::bench {

/// Writes a bench's result file (BENCH_*.json, in the working directory) as
/// one JSON object: "bench", then the provenance perfbench records with each
/// run (nproc, whether the AVX2 code kernels are active, the build type, and
/// the commit the build was configured at), then the bench's own keys, which
/// `body(std::FILE*)` prints as `  "key": value` lines, each but the last
/// ending in a comma. Returns false, after a message on stderr, when the
/// file cannot be written.
template <typename Body>
bool WriteBenchJson(const char* path, const char* bench, const Body& body) {
  std::FILE* json = std::fopen(path, "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return false;
  }
  std::fprintf(json,
               "{\n"
               "  \"bench\": \"%s\",\n"
               "  \"nproc\": %u,\n"
               "  \"avx2_active\": %s,\n"
               "  \"build_type\": \"%s\",\n"
               "  \"commit\": \"%s\",\n",
               bench, std::thread::hardware_concurrency(),
               core::kernels::Avx2Active() ? "true" : "false",
               TABSKETCH_BENCH_BUILD_TYPE, TABSKETCH_BENCH_COMMIT);
  body(json);
  std::fprintf(json, "}\n");
  const bool written = std::ferror(json) == 0;
  if (std::fclose(json) != 0 || !written) {
    std::fprintf(stderr, "write failed: %s\n", path);
    return false;
  }
  std::printf("results -> %s\n", path);
  return true;
}

}  // namespace tabsketch::bench

#endif  // TABSKETCH_BENCH_BENCH_JSON_H_
