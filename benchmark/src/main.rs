//! End-to-end and per-layer benchmark of the raceloc workspace.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload race|fleet|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload sets the program up (timed as `setup_s`, median of
//! five set-ups), generates its inputs from `--seed`, measures whole
//! rounds of the same operations until `--seconds` have passed, checks
//! the outputs against computations made here, and prints one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the workload runs
//! the same untraced measurement, then a traced pass, and prints the
//! per-layer metrics. See `benchmark/README.md`.

mod fleet;
mod geom;
mod race;
mod serve;
mod stats;

use std::process::ExitCode;

/// Set-ups per process; `setup_s` reports their median.
pub const SETUP_REPEATS: usize = 5;

/// End-to-end metrics `(name, unit)`: every workload measures every one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("rtf", "sim-s/s"),
    ("synpf_lat_err_cm", "cm"),
    ("carto_lat_err_cm", "cm"),
];

/// Per-layer metrics `(name, unit)`. A workload that does not exercise a
/// layer reports 0 for it (README lists which workload measures what).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("map.track_build_s", "s"),
    ("range.artifacts_build_s", "s"),
    ("range.lut_build_s", "s"),
    ("range.lut_bytes", "bytes"),
    ("sim.self_ms_per_sim_s", "ms/sim-s"),
    ("sim.lidar_scan_ms_p50", "ms"),
    ("sim.physics_us_mean", "us"),
    ("synpf_correct_ms_p50", "ms"),
    ("synpf_correct_ms_p99", "ms"),
    ("carto_correct_ms_p50", "ms"),
    ("carto_correct_ms_p99", "ms"),
    ("pf.predict_ms_p50", "ms"),
    ("pf.raycast_ms_p50", "ms"),
    ("pf.sensor_ms_p50", "ms"),
    ("pf.resample_ms_p50", "ms"),
    ("pf.correct_cold_ms", "ms"),
    ("pf.reinit_count", "count"),
    ("slam.correlative_ms_p50", "ms"),
    ("slam.correlative_ms_p99", "ms"),
    ("slam.refine_ms_p50", "ms"),
    ("slam.correct_cold_ms", "ms"),
    ("deadline.rung0_steps", "count"),
    ("deadline.rung1_steps", "count"),
    ("deadline.rung2_steps", "count"),
    ("deadline.rung3_steps", "count"),
    ("deadline.rung4_steps", "count"),
    ("deadline.rung5_steps", "count"),
    ("deadline.miss_steps", "count"),
    ("deadline.synpf_lat_err_cm", "cm"),
    ("fleet_runs_per_s", "1/s"),
    ("eval.synpf_run_s", "s"),
    ("eval.carto_run_s", "s"),
    ("eval.dr_run_s", "s"),
    ("eval.run_s_max", "s"),
    ("eval.synpf_failed_runs", "count"),
    ("eval.parallel_eff", "ratio"),
    ("eval.aggregate_ms", "ms"),
    ("serve_steps_per_s", "1/s"),
    ("serve_step_ms_p50", "ms"),
    ("serve_step_ms_p99", "ms"),
    ("serve.open_session_ms_p50", "ms"),
    ("serve.submit_us_p50", "us"),
    ("serve.drain_ms_p50", "ms"),
    ("serve.drain_ms_p99", "ms"),
    ("serve.first_drain_ms", "ms"),
    ("serve.localizer_ms_per_round", "ms"),
    ("par.pool_jobs_per_drain", "count"),
    ("obs.trace_overhead_pct", "%"),
];

/// One named measurement.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload hands back: counts, checks, and both metric sets.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check; empty means every check passed.
    pub problems: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name, value, unit });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric { name, value, unit });
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set of this process so far \[MB\], from the kernel's
/// high-water mark. Workloads read it after their first round: later
/// rounds replay the same work, and how many fit in `--seconds` must not
/// move the figure.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Lays the measured metrics out in table order, checking names, units
/// and values. With `required`, a metric the workload did not measure is
/// a problem; otherwise it reads 0 (the layer did no work here).
fn complete(
    table: &[(&'static str, &'static str)],
    measured: &[Metric],
    required: bool,
) -> (Vec<Metric>, Vec<String>) {
    let mut problems = Vec::new();
    for m in measured {
        match table.iter().find(|(n, _)| *n == m.name) {
            None => problems.push(format!("metric {} is not in the table", m.name)),
            Some((_, unit)) if *unit != m.unit => problems.push(format!(
                "metric {} has unit {}, table says {unit}",
                m.name, m.unit
            )),
            Some(_) => {}
        }
    }
    let metrics = table
        .iter()
        .map(|&(name, unit)| {
            let value = match measured.iter().find(|m| m.name == name) {
                Some(m) => m.value,
                None if required => {
                    problems.push(format!("metric {name} was not measured"));
                    f64::NAN
                }
                None => 0.0,
            };
            if !value.is_finite() {
                problems.push(format!("metric {name} is not finite ({value})"));
            }
            Metric { name, value, unit }
        })
        .collect();
    (metrics, problems)
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // A non-finite value already failed the run; keep the line JSON.
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!("usage: --workload race|fleet|serve --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "race" => race::run(&args),
        "fleet" => fleet::run(&args),
        "serve" => serve::run(&args),
        other => {
            eprintln!("benchmark: unknown workload {other:?} (race, fleet, serve)");
            return ExitCode::from(2);
        }
    };
    let (table, measured) = if args.trace {
        (PER_LAYER, &out.per_layer)
    } else {
        (END_TO_END, &out.end_to_end)
    };
    let (metrics, mut problems) = complete(table, measured, !args.trace);
    out.problems.append(&mut problems);
    for p in &out.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    let correct = out.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raceloc_obs::Json;

    /// The metric tables here and in `BENCHMARK.json` name the same
    /// metrics, in the same order, with the same units.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .expect("string field")
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn missing_layers_read_zero_and_missing_end_to_end_fails() {
        let measured = [Metric {
            name: "rtf",
            value: 2.0,
            unit: "sim-s/s",
        }];
        let (metrics, problems) = complete(END_TO_END, &measured, true);
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(problems.len(), 2 * (END_TO_END.len() - 1));
        let (metrics, problems) = complete(PER_LAYER, &[], false);
        assert!(problems.is_empty());
        assert!(metrics.iter().all(|m| m.value == 0.0));
    }
}
