#include "util/peak_rss.h"

#include <sys/resource.h>

#include <cstdio>

namespace whisk::util {

void reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

long peak_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f != nullptr) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      long kb = 0;
      if (std::sscanf(line, "VmHWM: %ld", &kb) == 1) {
        std::fclose(f);
        return kb;
      }
    }
    std::fclose(f);
  }
  struct rusage ru;
  if (::getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return ru.ru_maxrss;  // KiB on Linux
}

}  // namespace whisk::util
