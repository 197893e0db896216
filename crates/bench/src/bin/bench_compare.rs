//! Benchmark-regression gate: diffs a fresh bench run against the
//! committed `BENCH_*.json` baselines and exits non-zero on a median
//! regression.
//!
//! ```sh
//! # Record a fresh run somewhere other than the committed baselines…
//! BENCH_OUTPUT_DIR=bench-fresh cargo bench -p bench --bench ssa_methods
//! # …and gate on it (exit 1 on any >25% median regression):
//! cargo run --release -p bench --bin bench_compare -- \
//!     --baseline-dir . --fresh-dir bench-fresh --normalize 1
//! ```
//!
//! Options (all `--key value`):
//!
//! * `--baseline-dir` — directory holding the committed `BENCH_*.json`
//!   files (default `.`),
//! * `--fresh-dir` — directory holding the fresh run's `BENCH_*.json`
//!   files; every baseline suite must have a fresh counterpart,
//! * `--threshold` — fractional regression that fails the gate
//!   (default `0.25` = 25%),
//! * `--min-ns` — benchmarks whose *baseline* median is below this many
//!   nanoseconds are reported but not gated (default `0` = gate all).
//!   Micro-benchmarks in the tens of microseconds jitter past any sane
//!   threshold run to run; CI uses `--min-ns 50000`,
//! * `--normalize` — `1` divides the suite-median speed ratio out of every
//!   comparison first, so runs from differently-fast machines (CI runners
//!   vs the baseline recorder) only fail on *relative* regressions;
//!   `0` (default) compares raw medians — use it when both runs come from
//!   the same machine.
//!
//! Besides the baseline diff, the gate enforces three structural contracts
//! on the fresh run: the adaptive-portfolio contract (in every scenario
//! group that carries an `auto` column, the `auto` median must be within
//! 10% of the best concrete stepper), the hybrid-showcase contract
//! (in every `multiscale_switch` group, `hybrid` must post the lowest
//! median of all concrete steppers), and the telemetry-overhead contract
//! (a `metrics_overhead` row must land within 5% of its group's
//! `simulate_cache_hit` row — observability stays off the hot path).
//!
//! Each suite's header warns when the baseline and the fresh run carry
//! different machine fingerprints (CPU count, CPU model, compiler), or when
//! either lacks one: raw medians from different machines are not
//! comparable, so prefer `--normalize 1` or re-record on one machine. The
//! warning does not fail the gate.
//!
//! Exit codes: `0` gate passed, `1` regression (or vanished benchmark, or
//! portfolio violation), `2` usage or I/O error. See the README's
//! *Benchmark regression policy* for when and how to re-baseline
//! intentionally.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bench::baseline::{
    hybrid_showcase_violations, machine_mismatch, parse_baseline, portfolio_violations,
    telemetry_overhead_violations, Baseline, Comparison,
};
use bench::{Args, Table};

fn load(path: &Path) -> Result<Baseline, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_baseline(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Lists the `BENCH_*.json` files in `dir`, sorted by name.
fn baseline_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot list {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|path| {
            path.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no BENCH_*.json files in {}", dir.display()));
    }
    Ok(files)
}

fn run() -> Result<bool, String> {
    let args = Args::parse(&[
        "baseline-dir",
        "fresh-dir",
        "threshold",
        "normalize",
        "min-ns",
    ])?;
    let baseline_dir = PathBuf::from(args.get_str("baseline-dir", "."));
    let fresh_dir = PathBuf::from(args.get_str("fresh-dir", "bench-fresh"));
    let threshold = args.get_f64("threshold", 0.25);
    let normalize = args.get_u64("normalize", 0) != 0;
    let floor_ns = args.get_f64("min-ns", 0.0);
    if !(0.0..10.0).contains(&threshold) {
        return Err(format!("implausible threshold {threshold}"));
    }

    let mut all_pass = true;
    let mut compared = 0usize;
    for baseline_path in baseline_files(&baseline_dir)? {
        let file_name = baseline_path
            .file_name()
            .expect("listed files have names")
            .to_string_lossy()
            .into_owned();
        let fresh_path = fresh_dir.join(&file_name);
        if !fresh_path.exists() {
            // Suites not re-run this time (e.g. comparing a single suite)
            // are skipped loudly rather than failed: the CI job re-runs
            // every suite, so a genuinely vanished file still fails there
            // via the missing benchmark ids of the suites it does run.
            println!(
                "{file_name}: no fresh run found in {} — skipped",
                fresh_dir.display()
            );
            continue;
        }
        let baseline = load(&baseline_path)?;
        let fresh = load(&fresh_path)?;
        let comparison = Comparison::between(&baseline, &fresh, normalize);
        compared += 1;

        println!(
            "\n== {file_name} (threshold +{:.0}%{}) ==",
            threshold * 100.0,
            if normalize {
                format!(", machine-speed scale {:.3}", comparison.scale)
            } else {
                String::new()
            }
        );
        if let Some(mismatch) = machine_mismatch(&baseline, &fresh) {
            println!("WARNING: {mismatch}");
        }
        let mut table = Table::new(&["benchmark", "baseline", "fresh", "ratio", "verdict"]);
        for delta in &comparison.deltas {
            let verdict = if delta.ratio > 1.0 + threshold {
                if delta.baseline_ns >= floor_ns {
                    "REGRESSED"
                } else {
                    "jitter (below --min-ns, ungated)"
                }
            } else if delta.ratio < 1.0 / (1.0 + threshold) {
                "improved"
            } else {
                "ok"
            };
            table.row(&[
                delta.id.clone(),
                format!("{:.1}", delta.baseline_ns),
                format!("{:.1}", delta.fresh_ns),
                format!("{:.3}", delta.ratio),
                verdict.to_string(),
            ]);
        }
        table.print();
        for id in &comparison.missing {
            println!("MISSING: {id} has no fresh measurement");
        }
        for id in &comparison.new_ids {
            println!("new (unbaselined): {id}");
        }
        if !comparison.passes(threshold, floor_ns) {
            all_pass = false;
        }
        // Portfolio contract: wherever a scenario has an `auto` column, the
        // adaptive stepper must land within 10% of the best concrete one in
        // the *fresh* run — a misclassification is a gate failure even if
        // no baselined id regressed.
        for violation in portfolio_violations(&fresh, 0.10) {
            println!("PORTFOLIO: {violation}");
            all_pass = false;
        }
        // Showcase contract: the multiscale_switch scenario exists to prove
        // the hybrid stepper's value, so hybrid losing to any pure stepper
        // there means the partition heuristics rotted — fail the gate.
        for violation in hybrid_showcase_violations(&fresh) {
            println!("SHOWCASE: {violation}");
            all_pass = false;
        }
        // Telemetry contract: the instrumented cache-hit row must stay
        // within 5% of the plain one in the fresh run — observability that
        // taxes the hot path is a regression even with no baselined id
        // moving.
        for violation in telemetry_overhead_violations(&fresh, 0.05) {
            println!("TELEMETRY: {violation}");
            all_pass = false;
        }
    }
    // A gate that compared nothing is a misconfiguration, not a pass: a
    // wrong --fresh-dir must not silently neuter the regression check.
    if compared == 0 {
        return Err(format!(
            "no suite was compared — no fresh BENCH_*.json matched {} in {}",
            baseline_dir.display(),
            fresh_dir.display()
        ));
    }
    Ok(all_pass)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => {
            println!("\nbench_compare: gate PASSED");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            eprintln!("\nbench_compare: gate FAILED — median regression past the threshold");
            eprintln!(
                "(intentional? re-record the baseline per README \"Benchmark regression policy\")"
            );
            ExitCode::from(1)
        }
        Err(message) => {
            eprintln!("bench_compare: {message}");
            ExitCode::from(2)
        }
    }
}
