//! Benchmark-baseline parsing and regression comparison.
//!
//! The criterion shim writes each suite's results to a `BENCH_<suite>.json`
//! baseline in the workspace root; the committed copies are the reference
//! numbers. This module reads those files back and diffs a fresh run
//! against them, so the `bench_compare` binary can fail CI on a median
//! regression instead of merely uploading artifacts (see the README's
//! *Benchmark regression policy*).
//!
//! The serde shim is deliberately a no-op, so parsing goes through the
//! workspace's one self-contained JSON reader — [`service::json`], the same
//! module the HTTP service speaks through — re-exported here as [`Json`].

use std::collections::BTreeMap;

/// The workspace's JSON value type, re-exported from [`service::json`].
pub use service::json::Json;

/// One parsed `BENCH_<suite>.json` file.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Suite name (`ssa_methods`, `ensemble_scaling`, …).
    pub suite: String,
    /// The machine the run was recorded on; `None` for files written
    /// before the shim recorded one.
    pub machine: Option<Machine>,
    /// Per-benchmark summary statistics, in file order.
    pub benchmarks: Vec<BenchmarkStats>,
}

/// The machine fingerprint the criterion shim writes next to its results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Machine {
    /// Logical CPUs available to the benchmark process.
    pub nproc: u64,
    /// CPU model name.
    pub cpu: String,
    /// Compiler version (`rustc -V`).
    pub rustc: String,
}

impl std::fmt::Display for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} × {}, {}", self.nproc, self.cpu, self.rustc)
    }
}

/// Explains why a baseline and a fresh run may not be comparable: their
/// machine fingerprints differ, or either lacks one. `None` when both were
/// recorded on the same machine and compiler.
pub fn machine_mismatch(baseline: &Baseline, fresh: &Baseline) -> Option<String> {
    match (&baseline.machine, &fresh.machine) {
        (Some(a), Some(b)) if a == b => None,
        (Some(a), Some(b)) => Some(format!(
            "baseline recorded on [{a}], fresh run on [{b}]: raw medians are not comparable"
        )),
        (None, _) => Some("baseline has no machine fingerprint".to_string()),
        (_, None) => Some("fresh run has no machine fingerprint".to_string()),
    }
}

/// Summary statistics of one benchmark id, in nanoseconds per iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkStats {
    /// Full benchmark id, `group/bench` style.
    pub id: String,
    /// Median time per iteration (ns) — the statistic the gate compares.
    pub median_ns: f64,
    /// Mean time per iteration (ns).
    pub mean_ns: f64,
    /// Minimum observed time per iteration (ns).
    pub min_ns: f64,
    /// Maximum observed time per iteration (ns).
    pub max_ns: f64,
}

/// Parses a `BENCH_<suite>.json` baseline file.
///
/// # Errors
///
/// Returns a human-readable message when the text is not valid JSON or is
/// missing the expected fields.
pub fn parse_baseline(text: &str) -> Result<Baseline, String> {
    let value = service::json::parse(text)?;
    let suite = value
        .get("suite")
        .ok_or("missing \"suite\"")?
        .as_str("suite")?
        .to_string();
    let machine = match value.get("machine") {
        None => None,
        Some(machine) => {
            let text = |key: &str| -> Result<String, String> {
                Ok(machine
                    .get(key)
                    .ok_or_else(|| format!("machine missing \"{key}\""))?
                    .as_str(key)?
                    .to_string())
            };
            Some(Machine {
                nproc: machine
                    .get("nproc")
                    .ok_or("machine missing \"nproc\"")?
                    .as_u64("nproc")?,
                cpu: text("cpu")?,
                rustc: text("rustc")?,
            })
        }
    };
    let mut benchmarks = Vec::new();
    for (i, entry) in value
        .get("benchmarks")
        .ok_or("missing \"benchmarks\"")?
        .as_array("benchmarks")?
        .iter()
        .enumerate()
    {
        let number = |key: &str| -> Result<f64, String> {
            entry
                .get(key)
                .ok_or_else(|| format!("benchmarks[{i}] missing \"{key}\""))?
                .as_f64(key)
        };
        benchmarks.push(BenchmarkStats {
            id: entry
                .get("id")
                .ok_or_else(|| format!("benchmarks[{i}] missing \"id\""))?
                .as_str("id")?
                .to_string(),
            median_ns: number("median")?,
            mean_ns: number("mean")?,
            min_ns: number("min")?,
            max_ns: number("max")?,
        });
    }
    Ok(Baseline {
        suite,
        machine,
        benchmarks,
    })
}

/// How one benchmark id moved between the baseline and a fresh run.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Benchmark id.
    pub id: String,
    /// Committed median (ns/iter).
    pub baseline_ns: f64,
    /// Freshly measured median (ns/iter).
    pub fresh_ns: f64,
    /// `fresh / baseline` after dividing out the machine-speed scale.
    pub ratio: f64,
}

/// The outcome of diffing a fresh run against a committed baseline.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Per-benchmark deltas for every id present in the baseline and the
    /// fresh run, in baseline order.
    pub deltas: Vec<Delta>,
    /// Baseline ids with no fresh measurement (these fail the gate: a
    /// silently vanishing benchmark is itself a regression).
    pub missing: Vec<String>,
    /// Fresh ids not present in the baseline (reported, never failing —
    /// they gain a baseline entry at the next re-baseline).
    pub new_ids: Vec<String>,
    /// The machine-speed scale divided out of every ratio: 1.0 in raw
    /// mode, the median of the per-id ratios in normalized mode.
    pub scale: f64,
}

impl Comparison {
    /// Diffs `fresh` against `baseline` on median ns/iter.
    ///
    /// With `normalize` set, the median of all per-id ratios is divided
    /// out first, so a uniformly slower (or faster) machine does not trip
    /// the gate — only benchmarks that regressed *relative to the suite*
    /// do. Use raw mode when both runs come from the same machine.
    pub fn between(baseline: &Baseline, fresh: &Baseline, normalize: bool) -> Comparison {
        let fresh_by_id: BTreeMap<&str, &BenchmarkStats> = fresh
            .benchmarks
            .iter()
            .map(|b| (b.id.as_str(), b))
            .collect();
        let mut deltas = Vec::new();
        let mut missing = Vec::new();
        for base in &baseline.benchmarks {
            match fresh_by_id.get(base.id.as_str()) {
                Some(f) => deltas.push(Delta {
                    id: base.id.clone(),
                    baseline_ns: base.median_ns,
                    fresh_ns: f.median_ns,
                    ratio: f.median_ns / base.median_ns,
                }),
                None => missing.push(base.id.clone()),
            }
        }
        let baseline_ids: BTreeMap<&str, ()> = baseline
            .benchmarks
            .iter()
            .map(|b| (b.id.as_str(), ()))
            .collect();
        let new_ids = fresh
            .benchmarks
            .iter()
            .filter(|b| !baseline_ids.contains_key(b.id.as_str()))
            .map(|b| b.id.clone())
            .collect();
        let scale = if normalize && !deltas.is_empty() {
            let mut ratios: Vec<f64> = deltas.iter().map(|d| d.ratio).collect();
            ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
            let n = ratios.len();
            if n % 2 == 1 {
                ratios[n / 2]
            } else {
                (ratios[n / 2 - 1] + ratios[n / 2]) / 2.0
            }
        } else {
            1.0
        };
        for delta in &mut deltas {
            delta.ratio /= scale;
        }
        Comparison {
            deltas,
            missing,
            new_ids,
            scale,
        }
    }

    /// The deltas whose (scale-adjusted) median regressed by more than
    /// `threshold` (0.25 = 25%), among benchmarks whose baseline median is
    /// at least `floor_ns`.
    ///
    /// The floor exists because micro-benchmarks in the tens of
    /// microseconds jitter well past 25% run to run (allocator state,
    /// frequency scaling, cache luck); gating on them would make the CI
    /// check flaky without protecting anything the hot-path suites don't
    /// already cover. Pass `0.0` to gate every id.
    pub fn regressions(&self, threshold: f64, floor_ns: f64) -> Vec<&Delta> {
        self.deltas
            .iter()
            .filter(|d| d.baseline_ns >= floor_ns && d.ratio > 1.0 + threshold)
            .collect()
    }

    /// `true` when the gate passes: no regression beyond `threshold` on any
    /// benchmark at or above `floor_ns`, and no baseline id missing from
    /// the fresh run.
    pub fn passes(&self, threshold: f64, floor_ns: f64) -> bool {
        self.missing.is_empty() && self.regressions(threshold, floor_ns).is_empty()
    }
}

/// Checks the adaptive-portfolio contract on a fresh `ssa_methods` run:
/// within every scenario group, the `auto` column's median must land
/// within `slack` (0.10 = 10%) of the best *concrete* stepper's median.
///
/// Benchmark ids are `suite/scenario/method`; groups without an `auto`
/// column (other suites, pre-portfolio baselines) are skipped. Returns one
/// human-readable message per violated scenario, empty when the contract
/// holds.
pub fn portfolio_violations(fresh: &Baseline, slack: f64) -> Vec<String> {
    let mut groups: BTreeMap<&str, Vec<&BenchmarkStats>> = BTreeMap::new();
    for bench in &fresh.benchmarks {
        if let Some((group, _method)) = bench.id.rsplit_once('/') {
            groups.entry(group).or_default().push(bench);
        }
    }
    let mut violations = Vec::new();
    for (group, members) in groups {
        let Some(auto) = members
            .iter()
            .find(|b| b.id.rsplit_once('/').is_some_and(|(_, m)| m == "auto"))
        else {
            continue;
        };
        let best = members
            .iter()
            .filter(|b| b.id != auto.id)
            .map(|b| b.median_ns)
            .fold(f64::INFINITY, f64::min);
        if auto.median_ns > best * (1.0 + slack) {
            violations.push(format!(
                "{group}: auto median {:.0} ns exceeds best concrete stepper \
                 {:.0} ns by {:.1}% (allowed {:.0}%)",
                auto.median_ns,
                best,
                (auto.median_ns / best - 1.0) * 100.0,
                slack * 100.0
            ));
        }
    }
    violations
}

/// Checks the hybrid-showcase contract on a fresh `ssa_methods` run: in
/// every `multiscale_switch` scenario group, the `hybrid` column's median
/// must be the best (lowest) of all concrete steppers — the whole point of
/// the multiscale scenario is that fast/slow partitioning beats every pure
/// method there.
///
/// Groups without a `hybrid` column (other suites, pre-hybrid baselines)
/// are skipped; the `auto` column is excluded from the comparison since on
/// this scenario it *is* hybrid. Returns one message per violated scenario,
/// empty when the contract holds.
pub fn hybrid_showcase_violations(fresh: &Baseline) -> Vec<String> {
    let mut groups: BTreeMap<&str, Vec<&BenchmarkStats>> = BTreeMap::new();
    for bench in &fresh.benchmarks {
        if let Some((group, _method)) = bench.id.rsplit_once('/') {
            if group.contains("multiscale_switch") {
                groups.entry(group).or_default().push(bench);
            }
        }
    }
    let mut violations = Vec::new();
    for (group, members) in groups {
        let method_of = |b: &BenchmarkStats| {
            b.id.rsplit_once('/')
                .map(|(_, m)| m.to_string())
                .unwrap_or_default()
        };
        let Some(hybrid) = members.iter().find(|b| method_of(b) == "hybrid") else {
            continue;
        };
        for other in &members {
            let method = method_of(other);
            if method == "hybrid" || method == "auto" {
                continue;
            }
            if other.median_ns < hybrid.median_ns {
                violations.push(format!(
                    "{group}: hybrid median {:.0} ns loses to {method} at {:.0} ns \
                     — the multiscale scenario must be a hybrid win",
                    hybrid.median_ns, other.median_ns
                ));
            }
        }
    }
    violations
}

/// Checks the telemetry-overhead contract on a fresh run: wherever a group
/// carries both a `metrics_overhead` and a `simulate_cache_hit` column, the
/// instrumented median must land within `slack` (0.05 = 5%) of the plain
/// cache-hit median — observability is contractually free on the hot path.
///
/// Both rows come from the *same* fresh run on the same machine, so no
/// normalization is needed; groups without the pair (other suites,
/// pre-telemetry baselines) are skipped. Returns one message per violated
/// group, empty when the contract holds.
pub fn telemetry_overhead_violations(fresh: &Baseline, slack: f64) -> Vec<String> {
    let mut groups: BTreeMap<&str, Vec<&BenchmarkStats>> = BTreeMap::new();
    for bench in &fresh.benchmarks {
        if let Some((group, _bench)) = bench.id.rsplit_once('/') {
            groups.entry(group).or_default().push(bench);
        }
    }
    let mut violations = Vec::new();
    for (group, members) in groups {
        let find = |name: &str| {
            members
                .iter()
                .find(|b| b.id.rsplit_once('/').is_some_and(|(_, m)| m == name))
        };
        let (Some(instrumented), Some(plain)) =
            (find("metrics_overhead"), find("simulate_cache_hit"))
        else {
            continue;
        };
        if instrumented.median_ns > plain.median_ns * (1.0 + slack) {
            violations.push(format!(
                "{group}: metrics_overhead median {:.0} ns exceeds simulate_cache_hit \
                 {:.0} ns by {:.1}% (allowed {:.0}%) — telemetry is on the hot path",
                instrumented.median_ns,
                plain.median_ns,
                (instrumented.median_ns / plain.median_ns - 1.0) * 100.0,
                slack * 100.0
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "suite": "ssa_methods",
  "unit": "ns_per_iter",
  "benchmarks": [
    {"id": "ssa_methods/chain_10/direct", "samples": 20, "iters_per_sample": 14, "min": 345609.3, "mean": 359302.2, "median": 358534.1, "max": 385223.5},
    {"id": "ssa_methods/chain_10/next-reaction", "samples": 20, "iters_per_sample": 9, "min": 570921.1, "mean": 585459.3, "median": 587466.6, "max": 598997.8}
  ]
}
"#;

    fn stats(id: &str, median: f64) -> BenchmarkStats {
        BenchmarkStats {
            id: id.to_string(),
            median_ns: median,
            mean_ns: median,
            min_ns: median * 0.9,
            max_ns: median * 1.1,
        }
    }

    fn baseline_of(entries: &[(&str, f64)]) -> Baseline {
        Baseline {
            suite: "unit".to_string(),
            machine: None,
            benchmarks: entries.iter().map(|&(id, m)| stats(id, m)).collect(),
        }
    }

    #[test]
    fn machine_fingerprints_are_parsed_and_compared() {
        let with_machine = SAMPLE.replace(
            "\"unit\": \"ns_per_iter\",",
            "\"unit\": \"ns_per_iter\",\n  \"machine\": {\"nproc\": 2, \"cpu\": \"Example CPU\", \
             \"rustc\": \"rustc 1.0.0\"},",
        );
        let recorded = parse_baseline(&with_machine).expect("parse");
        let machine = recorded.machine.clone().expect("fingerprint");
        assert_eq!(machine.nproc, 2);
        assert_eq!(machine.cpu, "Example CPU");
        assert_eq!(machine.rustc, "rustc 1.0.0");
        assert_eq!(machine_mismatch(&recorded, &recorded), None);

        let legacy = parse_baseline(SAMPLE).expect("parse");
        let missing = machine_mismatch(&legacy, &recorded).expect("warning");
        assert!(missing.contains("baseline has no machine fingerprint"));
        assert!(machine_mismatch(&recorded, &legacy).is_some());

        let mut elsewhere = recorded.clone();
        elsewhere.machine = Some(Machine {
            nproc: 8,
            ..machine
        });
        let differs = machine_mismatch(&recorded, &elsewhere).expect("warning");
        assert!(differs.contains("2 × Example CPU") && differs.contains("8 × Example CPU"));
        assert!(parse_baseline(&with_machine.replace("\"nproc\": 2, ", "")).is_err());
    }

    #[test]
    fn parses_the_committed_format() {
        let baseline = parse_baseline(SAMPLE).expect("parse");
        assert_eq!(baseline.suite, "ssa_methods");
        assert_eq!(baseline.machine, None);
        assert_eq!(baseline.benchmarks.len(), 2);
        assert_eq!(baseline.benchmarks[0].id, "ssa_methods/chain_10/direct");
        assert_eq!(baseline.benchmarks[0].median_ns, 358534.1);
        assert_eq!(baseline.benchmarks[1].max_ns, 598997.8);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_baseline("").is_err());
        assert!(parse_baseline("{\"suite\": 3}").is_err());
        assert!(parse_baseline("{\"suite\": \"x\"}").is_err());
        assert!(parse_baseline("[1, 2").is_err());
        assert!(parse_baseline("{\"suite\": \"x\", \"benchmarks\": [{}]}").is_err());
    }

    #[test]
    fn identical_runs_pass_the_gate() {
        let base = baseline_of(&[("a", 100.0), ("b", 2000.0)]);
        let comparison = Comparison::between(&base, &base, false);
        assert!(comparison.passes(0.25, 0.0));
        assert!(comparison.regressions(0.0, 0.0).is_empty());
        assert_eq!(comparison.scale, 1.0);
    }

    #[test]
    fn injected_regression_fails_the_gate() {
        let base = baseline_of(&[("a", 100.0), ("b", 2000.0)]);
        // `b` regresses by 30% — past the 25% gate.
        let fresh = baseline_of(&[("a", 100.0), ("b", 2600.0)]);
        let comparison = Comparison::between(&base, &fresh, false);
        assert!(!comparison.passes(0.25, 0.0));
        let regressions = comparison.regressions(0.25, 0.0);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].id, "b");
        assert!((regressions[0].ratio - 1.3).abs() < 1e-12);
        // A 20% regression stays under the default gate.
        let mild = baseline_of(&[("a", 100.0), ("b", 2400.0)]);
        assert!(Comparison::between(&base, &mild, false).passes(0.25, 0.0));
    }

    #[test]
    fn missing_benchmarks_fail_and_new_ones_do_not() {
        let base = baseline_of(&[("a", 100.0), ("b", 2000.0)]);
        let fresh = baseline_of(&[("a", 100.0), ("c", 50.0)]);
        let comparison = Comparison::between(&base, &fresh, false);
        assert_eq!(comparison.missing, vec!["b".to_string()]);
        assert_eq!(comparison.new_ids, vec!["c".to_string()]);
        assert!(
            !comparison.passes(0.25, 0.0),
            "a vanished benchmark must fail"
        );
    }

    #[test]
    fn floor_ungates_micro_benchmarks_only() {
        let base = baseline_of(&[("micro", 20_000.0), ("hot", 2_000_000.0)]);
        // The micro-benchmark jitters 60%; the hot path is stable.
        let jittery = baseline_of(&[("micro", 32_000.0), ("hot", 2_000_000.0)]);
        assert!(!Comparison::between(&base, &jittery, false).passes(0.25, 0.0));
        assert!(Comparison::between(&base, &jittery, false).passes(0.25, 50_000.0));
        // The floor must not mask a hot-path regression.
        let regressed = baseline_of(&[("micro", 20_000.0), ("hot", 3_000_000.0)]);
        let comparison = Comparison::between(&base, &regressed, false);
        assert!(!comparison.passes(0.25, 50_000.0));
        assert_eq!(comparison.regressions(0.25, 50_000.0)[0].id, "hot");
    }

    #[test]
    fn portfolio_gate_bounds_auto_against_the_best_concrete_stepper() {
        // `auto` within 10% of the best concrete column: passes.
        let fresh = baseline_of(&[
            ("ssa_methods/chain_10/direct", 100.0),
            ("ssa_methods/chain_10/next-reaction", 160.0),
            ("ssa_methods/chain_10/auto", 108.0),
            ("ssa_methods/lambda/tau-leaping", 80.0),
            ("ssa_methods/lambda/direct", 300.0),
            ("ssa_methods/lambda/auto", 85.0),
        ]);
        assert!(portfolio_violations(&fresh, 0.10).is_empty());
        // `auto` resolved to the wrong stepper in one scenario: that
        // scenario (and only that one) is reported.
        let wrong = baseline_of(&[
            ("ssa_methods/chain_10/direct", 100.0),
            ("ssa_methods/chain_10/auto", 105.0),
            ("ssa_methods/lambda/tau-leaping", 80.0),
            ("ssa_methods/lambda/direct", 300.0),
            ("ssa_methods/lambda/auto", 295.0),
        ]);
        let violations = portfolio_violations(&wrong, 0.10);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].starts_with("ssa_methods/lambda:"));
        // Groups without an `auto` column are not the portfolio's problem.
        let concrete_only = baseline_of(&[
            ("ensemble_scaling/chain/threads_1", 100.0),
            ("ensemble_scaling/chain/threads_8", 20.0),
        ]);
        assert!(portfolio_violations(&concrete_only, 0.10).is_empty());
    }

    #[test]
    fn hybrid_showcase_gate_requires_hybrid_to_win_multiscale() {
        // Hybrid best in its scenario: passes; other scenarios are not
        // the showcase's problem even when hybrid loses there.
        let fresh = baseline_of(&[
            ("ssa_methods/multiscale_switch/direct", 5_000_000.0),
            ("ssa_methods/multiscale_switch/tau-leaping", 9_000_000.0),
            ("ssa_methods/multiscale_switch/hybrid", 50_000.0),
            ("ssa_methods/multiscale_switch/auto", 51_000.0),
            ("ssa_methods/chain_10/direct", 100.0),
            ("ssa_methods/chain_10/hybrid", 400.0),
        ]);
        assert!(hybrid_showcase_violations(&fresh).is_empty());
        // A pure stepper beating hybrid on the multiscale scenario fails.
        let beaten = baseline_of(&[
            ("ssa_methods/multiscale_switch/direct", 40_000.0),
            ("ssa_methods/multiscale_switch/hybrid", 50_000.0),
        ]);
        let violations = hybrid_showcase_violations(&beaten);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("loses to direct"));
        // Pre-hybrid baselines (no hybrid column) are skipped.
        let legacy = baseline_of(&[("ssa_methods/multiscale_switch/direct", 100.0)]);
        assert!(hybrid_showcase_violations(&legacy).is_empty());
    }

    #[test]
    fn telemetry_gate_bounds_instrumented_against_plain_cache_hit() {
        // Within 5%: passes.
        let fresh = baseline_of(&[
            ("service_throughput/simulate_cache_hit", 75_000.0),
            ("service_throughput/metrics_overhead", 77_000.0),
            ("service_throughput/simulate_cold", 280_000.0),
        ]);
        assert!(telemetry_overhead_violations(&fresh, 0.05).is_empty());
        // 10% over: the one group is reported.
        let slow = baseline_of(&[
            ("service_throughput/simulate_cache_hit", 75_000.0),
            ("service_throughput/metrics_overhead", 82_500.0),
        ]);
        let violations = telemetry_overhead_violations(&slow, 0.05);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].starts_with("service_throughput:"));
        // Suites without the pair are not the telemetry gate's problem.
        let other = baseline_of(&[
            ("ssa_methods/chain_10/direct", 100.0),
            ("service_throughput/healthz", 60_000.0),
        ]);
        assert!(telemetry_overhead_violations(&other, 0.05).is_empty());
    }

    #[test]
    fn normalization_factors_out_machine_speed() {
        let base = baseline_of(&[("a", 100.0), ("b", 2000.0), ("c", 350.0)]);
        // Uniformly 2x slower machine: raw mode fails, normalized passes.
        let slower = baseline_of(&[("a", 200.0), ("b", 4000.0), ("c", 700.0)]);
        assert!(!Comparison::between(&base, &slower, false).passes(0.25, 0.0));
        let normalized = Comparison::between(&base, &slower, true);
        assert!((normalized.scale - 2.0).abs() < 1e-12);
        assert!(normalized.passes(0.25, 0.0));
        // But a *relative* regression still fails under normalization:
        // machine is 2x slower AND `b` regressed another 40% on top.
        let regressed = baseline_of(&[("a", 200.0), ("b", 5600.0), ("c", 700.0)]);
        let comparison = Comparison::between(&base, &regressed, true);
        assert!(!comparison.passes(0.25, 0.0));
        assert_eq!(comparison.regressions(0.25, 0.0)[0].id, "b");
    }
}
