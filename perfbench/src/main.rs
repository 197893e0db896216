//! End-to-end and per-layer benchmark of the stochsynth service.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--save <file>]
//! perfbench compare <saved-a> <saved-b>
//! ```
//!
//! Each run starts in-process daemons with `service::serve`, drives one
//! seeded closed-loop workload from one client thread and prints, as its
//! last line, one JSON object: `correct`, `attempted`, `failed` and the
//! metrics — the end-to-end metrics with `--trace 0`, the per-layer metrics
//! with `--trace 1`. See `README.md` beside this file.

mod layers;
mod measure;
mod runner;
mod workload;

use std::process::ExitCode;
use std::time::Duration;

use service::json::{self, Json};

use crate::measure::{beyond_p99, median, percentile};
use crate::runner::{check_replies, closed_loop, set_up, Prepared, Sample};
use crate::workload::STREAM_TIMED;

/// Set-ups per untimed run; `setup_s` is their median.
const SETUPS: usize = 9;

/// The reference loop's speed (`measure::reference_speed`, bytes per
/// microsecond) to which the end-to-end timings are scaled: about its speed
/// on the 2-vCPU Xeon sandbox the README's figures come from. The speed a
/// shared host gives a process drifts over minutes, and the program's
/// timings drift with it; scaling by the loop's speed measured just before
/// and after the window takes out part of that drift.
const REFERENCE_SPEED: f64 = 360.0;

/// How long the reference loop runs before and after the window.
const PROBE: Duration = Duration::from_millis(300);

/// The end-to-end metrics, with their units, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("cpu_ms_per_request", "ms"),
    ("peak_rss_mb", "MiB"),
];

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    save: Option<String>,
}

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                     [--save <file>]\n       perfbench compare <saved-a> <saved-b>";

fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        save: None,
    };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<f64>()
                .map_err(|_| format!("{flag}: `{value}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => {
                run.seed = value
                    .parse()
                    .map_err(|_| format!("--seed: `{value}` is not a u64"))?
            }
            "--seconds" => run.seconds = number()?,
            "--trace" => run.trace = number()? != 0.0,
            "--save" => run.save = Some(value.clone()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !(run.seconds.is_finite() && run.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(run)
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_line(attempted: usize, failures: &[String], metrics: Vec<(&str, f64, &str)>) -> Json {
    let metrics = metrics
        .into_iter()
        .map(|(name, value, unit)| {
            (
                name.to_string(),
                Json::object([("value", Json::num(value)), ("unit", Json::str(unit))]),
            )
        })
        .collect();
    Json::object([
        ("correct", Json::Bool(failures.is_empty())),
        ("attempted", Json::count(attempted.max(1) as u64)),
        ("failed", Json::count(failures.len() as u64)),
        ("metrics", Json::Object(metrics)),
    ])
}

fn report_failures(failures: &[String]) {
    for failure in failures.iter().take(20) {
        println!("FAILED {failure}");
    }
    if failures.len() > 20 {
        println!("FAILED … and {} more", failures.len() - 20);
    }
}

/// Sets the workload up `SETUPS` times, keeping the last set-up.
fn set_up_repeatedly(args: &RunArgs) -> Result<(Prepared, Vec<f64>), String> {
    let mut durations = Vec::with_capacity(SETUPS);
    let mut kept: Option<Prepared> = None;
    for _ in 0..SETUPS {
        if let Some(previous) = kept.take() {
            previous.services.stop();
        }
        let (prepared, elapsed) = set_up(&args.workload, args.seed)?;
        durations.push(elapsed.as_secs_f64());
        kept = Some(prepared);
    }
    Ok((kept.expect("at least one set-up"), durations))
}

fn end_to_end(args: &RunArgs) -> Result<Json, String> {
    let (prepared, setups) = set_up_repeatedly(args)?;
    let window = Duration::from_secs_f64(args.seconds);
    let keep = runner::keep_rule(&prepared.workload);
    let speed_before = measure::reference_speed(PROBE);
    let output = closed_loop(&prepared, STREAM_TIMED, window, &keep, None);
    let speed_after = measure::reference_speed(PROBE);
    let peak_rss = measure::peak_rss_mib();
    let mut failures = check_replies(&prepared, &output);

    // A failed or refused request misses any latency limit.
    let latency_ms = |s: &Sample| {
        if s.ok {
            s.latency_us / 1e3
        } else {
            f64::INFINITY
        }
    };
    let latencies: Vec<f64> = output.in_window().map(latency_ms).collect();
    for sample in &output.samples {
        if let Some(error) = &sample.error {
            failures.push(format!("request {}: {error}", sample.index));
        }
    }
    let attempted = output.samples.len();
    for (entry, name) in prepared.workload.entry_names().iter().enumerate() {
        let of_entry: Vec<f64> = output
            .in_window()
            .filter(|s| s.ok && s.entry == entry)
            .map(|s| s.latency_us / 1e3)
            .collect();
        if !of_entry.is_empty() {
            println!(
                "  {name:<24} {:>6} requests  p50 {:>9.3} ms  p99 {:>9.3} ms",
                of_entry.len(),
                median(&of_entry),
                percentile(&of_entry, 0.99)
            );
        }
    }
    let mut per_second = vec![0usize; window.as_secs_f64().ceil() as usize];
    for sample in output.in_window().filter(|s| s.ok) {
        if let Some(count) = per_second.get_mut(sample.end.as_secs() as usize) {
            *count += 1;
        }
    }
    println!("completions per second of the window: {per_second:?}");

    // Every timing is a median over equal slices of the window: a few
    // seconds in which the shared host runs the process slower move it far
    // less than they move a figure taken over the whole window.
    let slices = runner::slice_count(window);
    let width = window.as_secs_f64() / slices as f64;
    let (mut rates, mut p50s, mut cpu_per_request) = (Vec::new(), Vec::new(), Vec::new());
    for (i, slice) in output.slices(slices).iter().enumerate() {
        let completed = slice.iter().filter(|s| s.ok).count();
        let of_slice: Vec<f64> = slice.iter().map(|s| latency_ms(s)).collect();
        rates.push(completed as f64 / width);
        if !of_slice.is_empty() {
            p50s.push(median(&of_slice));
        }
        let cpu_ms = output.cpu_marks[i + 1] - output.cpu_marks[i];
        cpu_per_request.push(cpu_ms / completed.max(1) as f64);
    }
    // The p99 of a group needs 10 samples beyond it, so the tail is taken
    // over consecutive groups of requests that hold 1000 samples or more.
    let groups = (latencies.len() / 1000).clamp(1, slices);
    let group =
        |g: usize| &latencies[g * latencies.len() / groups..(g + 1) * latencies.len() / groups];
    let p99s: Vec<f64> = (0..groups).map(|g| percentile(group(g), 0.99)).collect();
    let smallest = (0..groups).map(|g| group(g).len()).min().unwrap_or(0);
    println!(
        "{slices} slices of {width:.2} s; requests_per_s per slice {:?}",
        rates.iter().map(|r| r.round()).collect::<Vec<_>>()
    );
    println!(
        "p99 over {groups} groups; the smallest holds {smallest} samples ({} beyond p99); \
         p99 per group {p99s:.3?} ms",
        beyond_p99(smallest)
    );
    println!(
        "latency samples {} ({} beyond p99); attempted {attempted}; failed_ratio {}",
        latencies.len(),
        beyond_p99(latencies.len()),
        failures.len() as f64 / attempted.max(1) as f64
    );
    if beyond_p99(smallest) < 10 {
        println!("WARNING fewer than 10 samples beyond p99 in a group: lengthen --seconds");
    }
    // A host that runs the reference loop faster runs the program faster
    // too: times are multiplied and rates divided by the same ratio.
    let speed = (speed_before + speed_after) / 2.0;
    let scale = speed / REFERENCE_SPEED;
    println!(
        "reference speed {speed_before:.1} before and {speed_after:.1} after the window, \
         {REFERENCE_SPEED} nominal: timings below are scaled by {scale:.4}"
    );
    let measured = [
        median(&setups),
        median(&rates),
        median(&p50s),
        median(&p99s),
        median(&cpu_per_request),
    ];
    println!(
        "as measured: setup_s {} requests_per_s {} latency_p50_ms {} latency_p99_ms {} \
         cpu_ms_per_request {}",
        measured[0], measured[1], measured[2], measured[3], measured[4]
    );
    let values = [
        measured[0] * scale,
        measured[1] / scale,
        measured[2] * scale,
        measured[3] * scale,
        measured[4] * scale,
        peak_rss,
    ];
    let metrics: Vec<_> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect();
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    report_failures(&failures);
    prepared.services.stop();
    Ok(result_line(attempted, &failures, metrics))
}

fn per_layer(args: &RunArgs) -> Result<Json, String> {
    let (prepared, _) = set_up(&args.workload, args.seed)?;
    let traced = layers::traced_run(&prepared, args.seconds);
    prepared.services.stop();
    let traced = traced?;
    let total: f64 = traced.attribution.iter().map(|(_, us)| us.max(0.0)).sum();
    println!(
        "traced: {} jobs read back through /trace, {} requests replayed",
        traced.jobs, traced.replayed
    );
    println!("attributed busy time per request:");
    for (layer, us) in &traced.attribution {
        println!(
            "  {layer:<10} {us:>12.1} us  {:>5.1}%",
            100.0 * us.max(0.0) / total.max(f64::MIN_POSITIVE)
        );
    }
    let unattributed = traced.metrics["unattributed_us"];
    println!(
        "  {:<10} {unattributed:>12.1} us  (not part of any layer)",
        "unattributed"
    );
    let largest = traced
        .attribution
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("none", |(layer, _)| layer);
    let designated = layers::designated_layers(&args.workload);
    let designated_us: f64 = traced
        .attribution
        .iter()
        .filter(|(layer, _)| designated.contains(layer))
        .map(|(_, us)| us)
        .sum();
    let outside = traced
        .attribution
        .iter()
        .filter(|(layer, _)| !designated.contains(layer))
        .map(|(_, us)| *us)
        .fold(0.0, f64::max);
    println!(
        "largest layer: {largest}; designated {} hold {designated_us:.1} us against {outside:.1} us for any other layer{}",
        designated.join("+"),
        if designated_us >= outside { "" } else { " (WARNING: not the largest)" }
    );
    let metrics: Vec<_> = layers::LAYER_METRICS
        .iter()
        .map(|&(name, unit)| (name, traced.metrics[name], unit))
        .collect();
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    report_failures(&traced.failures);
    Ok(result_line(traced.attempted, &traced.failures, metrics))
}

/// Prints two saved results side by side, warning when they were measured
/// on different machines or builds.
fn compare(a: &str, b: &str) -> Result<(), String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(a)?, load(b)?);
    let fingerprint = |doc: &Json| doc.get("fingerprint").map(Json::render).unwrap_or_default();
    if fingerprint(&a) != fingerprint(&b) {
        println!(
            "WARNING the results come from different machines or builds:\n  {}\n  {}",
            fingerprint(&a),
            fingerprint(&b)
        );
    }
    let metrics = |doc: &Json| -> Vec<(String, f64)> {
        doc.get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(|m| m.as_object("metrics").ok())
            .map(|members| {
                members
                    .iter()
                    .filter_map(|(name, m)| {
                        Some((name.clone(), m.get("value")?.as_f64("value").ok()?))
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    let theirs = metrics(&b);
    for (name, mine) in metrics(&a) {
        if let Some((_, other)) = theirs.iter().find(|(n, _)| *n == name) {
            let change = if mine != 0.0 {
                100.0 * (other - mine) / mine
            } else {
                0.0
            };
            println!("{name:<45} {mine:>14.4} {other:>14.4} {change:>+8.2}%");
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.get(1).zip(args.get(2)).map(|(a, b)| compare(a, b)) {
            Some(Ok(())) => ExitCode::SUCCESS,
            Some(Err(error)) => {
                eprintln!("perfbench: {error}");
                ExitCode::FAILURE
            }
            None => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let run = match parse_args(&args) {
        Ok(run) if workload::WORKLOADS.contains(&run.workload.as_str()) => run,
        Ok(run) => {
            eprintln!("perfbench: unknown workload `{}`\n{USAGE}", run.workload);
            return ExitCode::from(2);
        }
        Err(error) => {
            eprintln!("perfbench: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let fingerprint = measure::fingerprint();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} fingerprint={}",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.trace),
        fingerprint.render()
    );
    let result = if run.trace {
        per_layer(&run)
    } else {
        end_to_end(&run)
    };
    let line = match result {
        Ok(line) => line,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &run.save {
        let saved = Json::object([
            ("fingerprint", fingerprint),
            ("workload", Json::str(run.workload.clone())),
            ("seed", Json::count(run.seed)),
            ("trace", Json::Bool(run.trace)),
            ("result", line.clone()),
        ]);
        if let Err(error) = std::fs::write(path, saved.render() + "\n") {
            eprintln!("perfbench: cannot save {path}: {error}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", line.render());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the metrics the benchmark prints.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let spec = json::parse(&text).expect("BENCHMARK.json is JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(|v| v.as_array(key).ok())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(|v| v.as_str(f).ok()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |metrics: &[(&str, &str)]| -> Vec<(String, String)> {
            metrics
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&layers::LAYER_METRICS));
        let workloads: Vec<String> = spec
            .get("workloads")
            .and_then(|v| v.as_array("workloads").ok())
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(|n| n.as_str("name").ok())
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, workload::WORKLOADS);
    }
}
