//! Order statistics, digests, and what the host says about itself.

use hsim_core::confhash::ContentHasher;

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// FNV-1a digest of a byte string (the repository's content hash).
pub fn digest(bytes: &[u8]) -> u64 {
    ContentHasher::new().bytes(bytes).finish()
}

/// Host threads available to this process (1 once it is pinned).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// This process's peak resident set (`VmHWM`) in MB, 0 when the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Size in bytes of the highest-level CPU cache the kernel lists for
/// cpu0, 0 when unknown.
pub fn llc_bytes() -> u64 {
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best = (0u32, 0u64);
    for idx in 0..8 {
        let dir = base.join(format!("index{idx}"));
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let level: u32 = level.trim().parse().unwrap_or(0);
        let size = size.trim();
        let (num, mult) = match size.chars().last() {
            Some('K') => (&size[..size.len() - 1], 1u64 << 10),
            Some('M') => (&size[..size.len() - 1], 1 << 20),
            Some('G') => (&size[..size.len() - 1], 1 << 30),
            _ => (size, 1),
        };
        let bytes = num.parse::<u64>().unwrap_or(0) * mult;
        if level >= best.0 {
            best = (level, bytes);
        }
    }
    best.1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
