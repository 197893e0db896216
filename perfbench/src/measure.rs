//! Small measurement helpers: percentiles, process counters from `/proc`,
//! body hashes and the machine fingerprint.

use std::time::{Duration, Instant};

use service::json::Json;

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted values; `NaN` for
/// an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Samples strictly above the nearest-rank p99, the count the p99 rests on.
pub fn beyond_p99(samples: usize) -> usize {
    samples - ((0.99 * samples as f64).ceil() as usize).min(samples)
}

/// Runs `f` and returns its result with the elapsed microseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = std::hint::black_box(f());
    (value, micros(started.elapsed()))
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Process CPU time (user + system, every thread, live or exited) in
/// milliseconds, from `/proc/self/stat` at the kernel's 100 Hz tick.
pub fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, the 12th and 13th after it.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) * 10.0
}

/// Speed of the reference loop in bytes per microsecond: the median rate of
/// repeated passes over a fixed buffer for about `duration`. Each byte feeds
/// a multiply chain and an unpredictable branch, as parsing code does. The
/// loop is the benchmark's own code, so no change to the program moves it;
/// only the speed the host gives the process does.
pub fn reference_speed(duration: Duration) -> f64 {
    const LEN: usize = 16 * 1024;
    let buffer: Vec<u8> = (0..LEN).map(|i| (i * 7919 % 251) as u8).collect();
    let started = Instant::now();
    let mut rates = Vec::new();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    while started.elapsed() < duration || rates.len() < 3 {
        let pass = Instant::now();
        for _ in 0..8 {
            for &byte in std::hint::black_box(&buffer) {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                if hash & 1 == 1 {
                    hash = hash.rotate_left(5);
                }
            }
        }
        rates.push((8 * LEN) as f64 / micros(pass.elapsed()));
    }
    std::hint::black_box(hash);
    median(&rates)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// 64-bit FNV-1a of a response body.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Where a result was measured: compare two results only when these agree.
pub fn fingerprint() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    Json::object([
        ("nproc", Json::count(nproc)),
        ("cpu", Json::str(cpu)),
        ("rustc", Json::str(rustc)),
        (
            "commit",
            Json::str(git_commit().unwrap_or_else(|| "unknown".to_string())),
        ),
    ])
}

/// The checked-out commit, read from `.git` in the working directory only
/// (a source export has none).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(commit) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(commit.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|line| {
        let (commit, name) = line.split_once(' ')?;
        (name == reference).then(|| commit.to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.5), 500.0);
        assert_eq!(percentile(&values, 0.99), 990.0);
        assert_eq!(beyond_p99(values.len()), 10);
        assert_eq!(beyond_p99(999), 9);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn process_counters_are_readable() {
        assert!(peak_rss_mib() > 0.0);
        let spin = Instant::now();
        while spin.elapsed() < Duration::from_millis(30) {
            std::hint::black_box(spin.elapsed());
        }
        assert!(process_cpu_ms() > 0.0);
    }
}
