//! Small statistics helpers and the resident-set probe.

/// The `q` quantile of `values` (nearest rank), reordering the slice.
pub fn quantile(values: &mut [u32], q: f64) -> u32 {
    if values.is_empty() {
        return 0;
    }
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    *values.select_nth_unstable(rank - 1).1
}

/// The median of `values` once those above twice their lower quartile
/// (nearest rank) are dropped. A session the host froze for
/// milliseconds reads a tail latency of the freeze, many times the
/// dataplane's own; a slower but unfrozen session stays in.
pub fn median_unfrozen(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let limit = 2.0 * v[(v.len() - 1) / 4];
    median(v.into_iter().filter(|x| *x <= limit))
}

/// The best of `values`: the highest when `higher_is_better`, else the
/// lowest; 0 when empty. The host's neighbours slow it down for seconds
/// to minutes at a time, so a run's sessions mix a quiet regime with a
/// contended one in proportions that change from run to run. The median
/// jumps between the two; the session the host disturbed least reads the
/// same in every run that had a quiet spell, and no session can beat
/// what the code allows.
pub fn best(values: impl IntoIterator<Item = f64>, higher_is_better: bool) -> f64 {
    let pick = if higher_is_better { f64::max } else { f64::min };
    values.into_iter().reduce(pick).unwrap_or(0.0)
}

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

extern "C" {
    /// glibc: returns free heap pages to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident-set growth over a region: free heap pages are handed
/// back to the kernel and the high-water mark is reset first, so memory
/// the region touches shows up even when the allocator reuses it.
pub struct Rss {
    before_kb: Option<u64>,
}

impl Rss {
    /// Trims the heap, resets `VmHWM` and reads `VmRSS`.
    pub fn reset() -> Self {
        // SAFETY: `malloc_trim` only releases free pages the allocator
        // owns; it takes no pointers and is safe to call at any time.
        unsafe {
            malloc_trim(0);
        }
        // Writing 5 to clear_refs resets this process's peak RSS.
        let reset = std::fs::write("/proc/self/clear_refs", "5").is_ok();
        Self {
            before_kb: status_kb("VmRSS").filter(|_| reset),
        }
    }

    /// `VmHWM` now minus `VmRSS` at [`reset`](Self::reset), in MiB.
    pub fn growth_mb(&self) -> f64 {
        match (self.before_kb, status_kb("VmHWM")) {
            (Some(before), Some(peak)) => peak.saturating_sub(before) as f64 / 1024.0,
            _ => 0.0,
        }
    }
}
