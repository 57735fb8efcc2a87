#ifndef TABSKETCH_UTIL_LOGGING_H_
#define TABSKETCH_UTIL_LOGGING_H_

#include <sstream>

namespace tabsketch::util::internal_logging {

/// Collects a failed check's message. Its destructor prints it to stderr as
/// one "[FATAL file:line] ..." line and aborts the process.
class FatalMessage {
 public:
  FatalMessage(const char* file, int line);
  ~FatalMessage();

  FatalMessage(const FatalMessage&) = delete;
  FatalMessage& operator=(const FatalMessage&) = delete;

  template <typename T>
  FatalMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

/// Gives TABSKETCH_CHECK a common void type on both branches of its ternary
/// while keeping `<<` chaining on the failure branch.
struct Voidify {
  void operator&(FatalMessage&) {}
};

}  // namespace tabsketch::util::internal_logging

/// Aborts with a diagnostic when `condition` is false. Active in all build
/// modes: these guard internal invariants whose violation would otherwise
/// silently corrupt results. Extra context streams in after the condition:
/// `TABSKETCH_CHECK(i < n) << "i=" << i;`.
#define TABSKETCH_CHECK(condition)                                     \
  (condition) ? static_cast<void>(0)                                   \
              : ::tabsketch::util::internal_logging::Voidify() &       \
                    ::tabsketch::util::internal_logging::FatalMessage( \
                        __FILE__, __LINE__)                            \
                        << "Check failed: " #condition << " "

#endif  // TABSKETCH_UTIL_LOGGING_H_
