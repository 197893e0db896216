//! Offline mini benchmark harness with the API shape of
//! [`criterion`](https://crates.io/crates/criterion).
//!
//! The workspace builds without crates.io access, so the `bench` crate's
//! Criterion benchmarks run against this shim instead. It implements the
//! subset of the API the benches use (`criterion_group!`/`criterion_main!`,
//! [`Criterion::benchmark_group`], [`BenchmarkGroup::bench_function`],
//! [`BenchmarkGroup::bench_with_input`], [`BenchmarkId::from_parameter`],
//! [`Bencher::iter`]) with a real measurement loop:
//!
//! 1. warm up the closure and estimate its cost,
//! 2. pick an iteration count per sample so each sample runs ≥ ~5 ms,
//! 3. collect `sample_size` samples and report min / mean / median / max.
//!
//! Results are printed to stdout and appended to a `BENCH_<suite>.json`
//! baseline file in the workspace root (override the directory with the
//! `BENCH_OUTPUT_DIR` environment variable), so perf regressions are
//! diffable run-to-run. Each file also records the machine it was taken on
//! (logical CPUs, CPU model, `rustc -V`). Swapping in real criterion later
//! is a `[workspace.dependencies]` edit; the JSON baseline format is this
//! shim's own, documented in the workspace README.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::hint::black_box as std_black_box;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Re-export of `std::hint::black_box`, criterion's optimisation barrier.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// An identifier for one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Builds an id from a displayed parameter value, mirroring
    /// `criterion::BenchmarkId::from_parameter`.
    pub fn from_parameter<P: Display>(parameter: P) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }

    /// Builds an id from a function name and a parameter.
    pub fn new<S: Into<String>, P: Display>(function: S, parameter: P) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function.into(), parameter),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(id: &str) -> Self {
        BenchmarkId { id: id.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(id: String) -> Self {
        BenchmarkId { id }
    }
}

/// One measured benchmark: identification plus summary statistics in
/// nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Full benchmark id, `group/bench` style.
    pub id: String,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations per sample.
    pub iters_per_sample: u64,
    /// Minimum observed time per iteration (ns).
    pub min_ns: f64,
    /// Mean time per iteration (ns).
    pub mean_ns: f64,
    /// Median time per iteration (ns).
    pub median_ns: f64,
    /// Maximum observed time per iteration (ns).
    pub max_ns: f64,
}

/// The measurement driver handed to each benchmark closure.
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    result: Option<(u64, Vec<f64>)>,
}

impl Bencher {
    /// Times `routine`, collecting `sample_size` samples of a batched
    /// iteration count chosen so each sample runs long enough to measure.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up: run for ~50 ms, estimating cost. The full budget is
        // always consumed (no iteration cap) so fast routines get the same
        // frequency-state settling time as slow ones — the preceding
        // benchmark may have left the CPU throttled or boosted.
        let warmup_budget = Duration::from_millis(50);
        let warmup_start = Instant::now();
        let mut warmup_iters = 0u64;
        while warmup_start.elapsed() < warmup_budget {
            std_black_box(routine());
            warmup_iters += 1;
        }
        let est_per_iter = warmup_start.elapsed().as_secs_f64() / warmup_iters as f64;

        // Aim for ≥ 5 ms per sample, capped to keep total time bounded.
        let target_sample = 0.005f64;
        let iters = ((target_sample / est_per_iter).ceil() as u64).clamp(1, 1_000_000);

        let mut samples = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters {
                std_black_box(routine());
            }
            let elapsed = start.elapsed().as_secs_f64();
            samples.push(elapsed * 1e9 / iters as f64);
        }
        self.result = Some((iters, samples));
    }
}

fn summarize(id: String, iters: u64, mut samples: Vec<f64>) -> BenchRecord {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("sample times are finite"));
    let n = samples.len().max(1);
    let mean = samples.iter().sum::<f64>() / n as f64;
    let median = if samples.is_empty() {
        0.0
    } else if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    };
    BenchRecord {
        id,
        samples: samples.len(),
        iters_per_sample: iters,
        min_ns: samples.first().copied().unwrap_or(0.0),
        mean_ns: mean,
        median_ns: median,
        max_ns: samples.last().copied().unwrap_or(0.0),
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// The top-level benchmark driver, mirroring `criterion::Criterion`.
#[derive(Debug, Default)]
pub struct Criterion {
    suite: String,
    records: Vec<BenchRecord>,
}

impl Criterion {
    /// Creates a driver for the named suite (used as the `BENCH_<suite>.json`
    /// file stem). `criterion_main!` fills this in automatically.
    pub fn with_suite(suite: &str) -> Self {
        Criterion {
            suite: suite.to_string(),
            records: Vec::new(),
        }
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 20,
        }
    }

    /// Runs a single stand-alone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        let record = run_one(id.to_string(), 20, f);
        self.records.push(record);
        self
    }

    /// Prints the final summary and writes the `BENCH_<suite>.json` baseline.
    /// Called by `criterion_main!` after all groups have run.
    pub fn finalize(&self) {
        if self.records.is_empty() {
            return;
        }
        let path = baseline_path(&self.suite);
        match write_baseline(&path, &self.suite, &self.records) {
            Ok(()) => println!("\nbaseline written to {}", path.display()),
            Err(err) => eprintln!("\nwarning: could not write {}: {err}", path.display()),
        }
    }
}

fn run_one<F: FnMut(&mut Bencher)>(id: String, sample_size: usize, mut f: F) -> BenchRecord {
    let mut bencher = Bencher {
        sample_size,
        result: None,
    };
    f(&mut bencher);
    let (iters, samples) = bencher.result.unwrap_or((0, Vec::new()));
    let record = summarize(id, iters, samples);
    println!(
        "{:<50} time: [{} {} {}]",
        record.id,
        format_ns(record.min_ns),
        format_ns(record.median_ns),
        format_ns(record.max_ns),
    );
    record
}

/// A group of related benchmarks sharing a name prefix and sample size.
#[derive(Debug)]
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets how many samples each benchmark in the group collects.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.sample_size = samples.max(2);
        self
    }

    /// Runs a benchmark identified by `id` within this group.
    pub fn bench_function<I, F>(&mut self, id: I, f: F) -> &mut Self
    where
        I: Into<BenchmarkId>,
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into().id);
        let record = run_one(full, self.sample_size, f);
        self.criterion.records.push(record);
        self
    }

    /// Runs a benchmark parameterised by `input`.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.id);
        let record = run_one(full, self.sample_size, |b| f(b, input));
        self.criterion.records.push(record);
        self
    }

    /// Ends the group (kept for API compatibility; groups flush eagerly).
    pub fn finish(&mut self) {}
}

/// Locates the directory for `BENCH_*.json` baselines: `BENCH_OUTPUT_DIR` if
/// set, else the enclosing cargo workspace root, else the current directory.
///
/// A *relative* `BENCH_OUTPUT_DIR` is resolved against the workspace root,
/// not the process cwd — cargo runs bench binaries with cwd set to the
/// bench crate's directory, which is never where callers mean. The
/// directory is created if missing, so `BENCH_OUTPUT_DIR=bench-fresh`
/// works without preparatory `mkdir`s (the CI regression gate relies on
/// this).
fn baseline_path(suite: &str) -> PathBuf {
    let dir = match std::env::var_os("BENCH_OUTPUT_DIR").map(PathBuf::from) {
        Some(dir) if dir.is_absolute() => dir,
        Some(dir) => find_workspace_root()
            .unwrap_or_else(|| PathBuf::from("."))
            .join(dir),
        None => find_workspace_root().unwrap_or_else(|| PathBuf::from(".")),
    };
    if let Err(err) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: could not create {}: {err}", dir.display());
    }
    dir.join(format!("BENCH_{suite}.json"))
}

fn find_workspace_root() -> Option<PathBuf> {
    let start = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .or_else(|| std::env::current_dir().ok())?;
    let mut dir: &std::path::Path = &start;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir.to_path_buf());
            }
        }
        dir = dir.parent()?;
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// The machine a run was recorded on: logical CPUs, CPU model and compiler
/// version, so a baseline can be told apart from a run on other hardware.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Machine {
    /// Logical CPUs available to the process.
    nproc: usize,
    /// CPU model name (`/proc/cpuinfo`), or `unknown`.
    cpu: String,
    /// Output of `rustc -V`, or `unknown`.
    rustc: String,
}

impl Machine {
    /// Fingerprints the machine this process runs on.
    fn current() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|line| line.starts_with("model name"))
                    .and_then(|line| line.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let rustc = std::process::Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        Machine {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc,
        }
    }
}

fn write_baseline(
    path: &std::path::Path,
    suite: &str,
    records: &[BenchRecord],
) -> std::io::Result<()> {
    let machine = Machine::current();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"suite\": \"{}\",\n", json_escape(suite)));
    out.push_str("  \"unit\": \"ns_per_iter\",\n");
    out.push_str(&format!(
        "  \"machine\": {{\"nproc\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\"}},\n",
        machine.nproc,
        json_escape(&machine.cpu),
        json_escape(&machine.rustc)
    ));
    out.push_str("  \"benchmarks\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"samples\": {}, \"iters_per_sample\": {}, \
             \"min\": {:.1}, \"mean\": {:.1}, \"median\": {:.1}, \"max\": {:.1}}}{}\n",
            json_escape(&r.id),
            r.samples,
            r.iters_per_sample,
            r.min_ns,
            r.mean_ns,
            r.median_ns,
            r.max_ns,
            if i + 1 < records.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    let mut file = std::fs::File::create(path)?;
    file.write_all(out.as_bytes())
}

/// Declares a benchmark group function, mirroring `criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Declares the benchmark `main`, mirroring `criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::with_suite(env!("CARGO_CRATE_NAME"));
            $($group(&mut c);)+
            c.finalize();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_collects_requested_samples() {
        let record = run_one("unit/smoke".to_string(), 5, |b| {
            b.iter(|| black_box(2u64 + 2))
        });
        assert_eq!(record.samples, 5);
        assert!(record.iters_per_sample >= 1);
        assert!(record.min_ns <= record.median_ns && record.median_ns <= record.max_ns);
    }

    #[test]
    fn groups_accumulate_records() {
        let mut c = Criterion::with_suite("unit");
        {
            let mut g = c.benchmark_group("g");
            g.sample_size(3);
            g.bench_function("one", |b| b.iter(|| black_box(1)));
            g.bench_with_input(BenchmarkId::from_parameter(7), &7, |b, &x| {
                b.iter(|| black_box(x * 2))
            });
            g.finish();
        }
        assert_eq!(c.records.len(), 2);
        assert_eq!(c.records[0].id, "g/one");
        assert_eq!(c.records[1].id, "g/7");
    }

    #[test]
    fn baselines_carry_the_machine_fingerprint() {
        let machine = Machine::current();
        assert!(machine.nproc >= 1);
        assert!(!machine.cpu.is_empty() && !machine.rustc.is_empty());
        let dir = std::env::temp_dir().join(format!("criterion-shim-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_unit.json");
        let record = summarize("unit/one".to_string(), 1, vec![1.0]);
        write_baseline(&path, "unit", &[record]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(
            text.contains(&format!("\"nproc\": {}", machine.nproc)),
            "{text}"
        );
        assert!(text.contains("\"rustc\": \""), "{text}");
    }

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
