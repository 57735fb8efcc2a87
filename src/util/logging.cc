#include "util/logging.h"

#include <cstdio>
#include <cstdlib>

namespace tabsketch::util::internal_logging {

FatalMessage::FatalMessage(const char* file, int line) {
  stream_ << "[FATAL " << file << ":" << line << "] ";
}

FatalMessage::~FatalMessage() {
  std::fprintf(stderr, "%s\n", stream_.str().c_str());
  std::fflush(stderr);
  std::abort();
}

}  // namespace tabsketch::util::internal_logging
