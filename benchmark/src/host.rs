//! What the benchmark records about the machine it runs on.

use std::time::Instant;

/// Logical CPUs this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Size in bytes of the highest-level CPU cache Linux reports for cpu0
/// (`None` where sysfs does not describe the caches).
pub fn llc_bytes() -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for idx in 0..16 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let (Ok(level), Ok(size)) = (
            std::fs::read_to_string(format!("{dir}/level")),
            std::fs::read_to_string(format!("{dir}/size")),
        ) else {
            continue;
        };
        let (Ok(level), Some(bytes)) = (level.trim().parse::<u32>(), parse_size(size.trim()))
        else {
            continue;
        };
        if best.is_none_or(|(l, b)| level > l || (level == l && bytes > b)) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, b)| b)
}

fn parse_size(s: &str) -> Option<u64> {
    let (num, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().ok().map(|n| n * mult)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Measured memory copy bandwidth.
#[derive(Debug, Clone, Copy)]
pub struct CopyBandwidth {
    /// Bytes read plus bytes written per second, in GB/s (1e9), median
    /// over the passes.
    pub gbs: f64,
    /// Whole buffer: source half plus destination half.
    pub buffer_bytes: u64,
    /// Bytes copied per pass (one half of the buffer).
    pub copy_bytes: u64,
}

/// Copy one half of a buffer of `buffer_bytes` into the other half
/// `passes` times and report the median rate. Every pass counts the bytes
/// read and the bytes written, the convention STREAM's Copy uses.
pub fn copy_bandwidth(buffer_bytes: u64, passes: usize) -> CopyBandwidth {
    let half = (buffer_bytes / 16) as usize; // f64 elements per half
    let mut buf = vec![0.0f64; 2 * half];
    for (i, v) in buf[..half].iter_mut().enumerate() {
        *v = i as f64;
    }
    let (src, dst) = buf.split_at_mut(half);
    // Fault in the destination before timing.
    dst.copy_from_slice(src);
    let mut rates = Vec::with_capacity(passes);
    for _ in 0..passes {
        let t = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&*src));
        std::hint::black_box(&mut *dst);
        let s = t.elapsed().as_secs_f64();
        rates.push((2 * half * 8) as f64 / s / 1e9);
    }
    CopyBandwidth {
        gbs: crate::stats::median(&rates),
        buffer_bytes: (2 * half * 8) as u64,
        copy_bytes: (half * 8) as u64,
    }
}

/// The commit the checkout was made from, read from `.git` when the
/// benchmark runs inside a git work tree; "unknown" otherwise.
pub fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown".to_owned(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_owned())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_owned()
                })
            })
            .unwrap_or_else(|_| "unknown".to_owned()),
        None => head,
    }
}
