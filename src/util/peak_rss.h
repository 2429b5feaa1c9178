#pragma once

namespace whisk::util {

// Resets the kernel's per-mm RSS high-water mark (VmHWM), so the next
// peak_rss_kb() reflects only what ran in between: one phase of a
// benchmark, or a forked worker's own run rather than the footprint it
// inherited from its parent. Best-effort: kernels without
// CONFIG_PROC_PAGE_MONITOR refuse the write.
void reset_peak_rss();

// Peak resident set size in KiB: VmHWM since the last reset_peak_rss(),
// or the process-lifetime getrusage high-water mark (ru_maxrss) where
// /proc/self/status has no VmHWM line.
[[nodiscard]] long peak_rss_kb();

}  // namespace whisk::util
