//! `fleet`: cold fleets through `run_fleet_with` on two pool threads, with
//! no cell cache and no journal.
//!
//! One round is two fleets with master seeds derived from `--seed`:
//! - the robustness fleet, uncapped, at its own quick replicate count: 2
//!   maps × {HQ, LQ} × {nominal, odom_slip, pose_kidnap} × {SynPF,
//!   Cartographer, DeadReckoning} × 2 replicates;
//! - a deadline fleet, one replicate per cell: SynPF on the same maps and
//!   grips, {nominal, compute_pressure}, under one finite budget that fits
//!   a full-quality correction outside the pressure window.
//!
//! The two are separate fleets because the budget axis multiplies every
//! method: the deadline fleet adds 8 runs where a budgeted robustness
//! fleet would double all 36.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use raceloc_bench::fleet::fleet_spec;
use raceloc_core::deadline::{CostModel, RangeTier};
use raceloc_eval::{
    execute_run, ordering_violations, run_fleet_with, EvalMethod, FleetCtx, FleetReport,
    FleetRunOptions, FleetSpec, ReportBuilder, RunOutcome, ScenarioSpec, NOMINAL_SCENARIO,
};
use raceloc_faults::FaultSchedule;
use raceloc_range::RangeMethod;

use crate::stats::{derive_seed, mean, median, repeated_setup, timed};
use crate::{peak_rss_mb, Args, Outcome, SETUP_REPEATS};

/// Pool threads for the fleets and for the benchmark's own check pass.
const THREADS: usize = 2;
/// Beam cap of SynPF's default boxed scan layout: the beam term of the
/// deadline cost model's full-quality step.
const LAYOUT_BEAMS: u64 = 60;
/// Fewest timed rounds: `rtf` takes the fastest of them.
const MIN_ROUNDS: usize = 2;
/// Scenario whose runs must book steps below the top rung.
const PRESSURE: &str = "compute_pressure";
/// The deadline ladder's per-rung step counters, top rung first.
const RUNGS: [&str; 6] = [
    "deadline.rung0",
    "deadline.rung1",
    "deadline.rung2",
    "deadline.rung3",
    "deadline.rung4",
    "deadline.rung5",
];
/// The per-layer names of [`RUNGS`].
const RUNG_METRICS: [&str; 6] = [
    "deadline.rung0_steps",
    "deadline.rung1_steps",
    "deadline.rung2_steps",
    "deadline.rung3_steps",
    "deadline.rung4_steps",
    "deadline.rung5_steps",
];

fn robustness_spec(seed: u64) -> FleetSpec {
    let mut spec = fleet_spec(true);
    spec.name = "benchmark-robustness".into();
    spec.master_seed = derive_seed(seed, 0);
    spec
}

fn deadline_spec(seed: u64) -> FleetSpec {
    let mut spec = fleet_spec(true);
    spec.name = "benchmark-deadline".into();
    spec.master_seed = derive_seed(seed, 1);
    spec.replicates = 1;
    // Half the budget for a fifth of the 320-correction run, a quarter in:
    // the window of the fleet's odom_slip fault.
    let steps = (spec.duration_s * 40.0).round() as u64;
    let (onset, end) = (steps / 4, steps / 4 + steps / 5);
    let pressure = ScenarioSpec {
        name: PRESSURE.into(),
        schedule: FaultSchedule::builder()
            .seed(0xFA57)
            .compute_pressure(onset, end, 0.5)
            .build()
            .expect("the pressure schedule is valid"),
        measure_from: end,
        recovery_budget: None,
    };
    spec.scenarios.retain(|s| s.name == NOMINAL_SCENARIO);
    spec.scenarios.push(pressure);
    spec.methods = vec![EvalMethod::SynPf];
    // One full-quality correction at the fleet's particle count.
    spec.budgets = vec![CostModel::default().step_units(
        spec.particles as u64,
        LAYOUT_BEAMS,
        RangeTier::Exact,
    )];
    spec
}

/// The fleets' shared maps with every lazy LUT forced: the context
/// `run_fleet_with` builds for itself. Returns the context and the seconds
/// of `FleetCtx::build` (tracks and artifact bundles) and of the LUTs.
fn setup(spec: &FleetSpec) -> (FleetCtx, [f64; 2]) {
    let (ctx, t_build) = timed(|| FleetCtx::build(spec));
    let (_, t_lut) = timed(|| {
        for m in &ctx.maps {
            m.artifacts.lut();
        }
    });
    (ctx, [t_build, t_lut])
}

/// Every run of the spec through `execute_run` on the benchmark's own
/// threads: outcomes in run order, each with its wall seconds.
fn execute_all(spec: &FleetSpec, ctx: &FleetCtx) -> Vec<(RunOutcome, f64)> {
    let runs = spec.runs();
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<(RunOutcome, f64)>>> = Mutex::new(vec![None; runs.len()]);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&desc) = runs.get(i) else {
                    break;
                };
                let done = timed(|| execute_run(spec, desc, ctx));
                slots.lock().expect("no worker panicked")[desc.index] = Some(done);
            });
        }
    });
    slots
        .into_inner()
        .expect("no worker panicked")
        .into_iter()
        .map(|o| o.expect("every run executed"))
        .collect()
}

fn counter(out: &RunOutcome, name: &str) -> u64 {
    out.counters
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |&(_, v)| v)
}

/// Relative closeness for values folded two ways.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// One fleet of the round: its spec, the report of every timed round, and
/// the check pass's outcomes with their wall seconds.
struct Fleet {
    spec: FleetSpec,
    reports: Vec<FleetReport>,
    done: Vec<(RunOutcome, f64)>,
}

impl Fleet {
    fn new(spec: FleetSpec) -> Result<Self, String> {
        spec.validate().map_err(|e| format!("{}: {e}", spec.name))?;
        Ok(Self {
            spec,
            reports: Vec::new(),
            done: Vec::new(),
        })
    }

    fn report(&self) -> &FleetReport {
        &self.reports[0]
    }

    fn scenario(&self, i: usize) -> &str {
        &self.spec.scenarios[self.spec.runs()[i].key.scenario].name
    }

    fn method(&self, i: usize) -> EvalMethod {
        self.spec.methods[self.spec.runs()[i].key.method]
    }

    /// Runs of one round that failed: unresolved or with a non-finite pose.
    fn bad_runs(&self) -> u64 {
        self.done
            .iter()
            .filter(|(o, _)| o.steps == 0 || !o.finite)
            .count() as u64
    }

    /// Checks the timed reports against each other and against the
    /// benchmark's own fold of the `execute_run` outcomes.
    fn check(&self, out: &mut Outcome) {
        let name = &self.spec.name;
        for (k, r) in self.reports.iter().enumerate().skip(1) {
            out.check(r == self.report(), || {
                format!("{name}: round {k} differs from round 0")
            });
        }
        let runs = self.spec.runs();
        let rows = &self.report().cells;
        out.check(rows.len() == self.spec.cells().len(), || {
            format!("{name}: report has the wrong cell count")
        });
        for (ci, row) in rows.iter().enumerate() {
            let mine: Vec<&RunOutcome> = runs
                .iter()
                .filter(|d| d.cell == ci)
                .map(|d| &self.done[d.index].0)
                .collect();
            let lat: Vec<f64> = mine.iter().map(|o| o.mean_lat_err_cm).collect();
            let rmse: Vec<f64> = mine.iter().map(|o| o.rmse_cm).collect();
            let same = row.runs == mine.len() as u64
                && row.steps == mine.iter().map(|o| o.steps as u64).sum::<u64>()
                && row.successes == mine.iter().filter(|o| o.success).count() as u64
                && close(row.mean_lat_err_cm, mean(&lat))
                && close(row.mean_rmse_cm, mean(&rmse));
            out.check(same, || {
                format!(
                    "{name}: cell {} {} {} {} does not match the execute_run fold",
                    row.map, row.grip, row.scenario, row.method
                )
            });
        }
    }

    /// Lateral errors of one method's runs in the given scenarios \[cm\].
    fn lat_cm(&self, m: EvalMethod, scenarios: &[&str]) -> Vec<f64> {
        (0..self.done.len())
            .filter(|&i| self.method(i) == m && scenarios.contains(&self.scenario(i)))
            .map(|i| self.done[i].0.mean_lat_err_cm)
            .collect()
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut fleets = match (
        Fleet::new(robustness_spec(args.seed)),
        Fleet::new(deadline_spec(args.seed)),
    ) {
        (Ok(a), Ok(b)) => [a, b],
        (Err(e), _) | (_, Err(e)) => {
            out.problems.push(e);
            return out;
        }
    };
    // Each timed `run_fleet_with` call builds its own context, so the
    // set-up one is dropped before them and memory holds one at a time.
    let (ctx, setup_t) = repeated_setup(SETUP_REPEATS, || setup(&fleets[0].spec));
    drop(ctx);

    // Untraced measurement: whole rounds of both cold fleets.
    let opts = FleetRunOptions::new(THREADS);
    let started = Instant::now();
    let mut round_walls: Vec<f64> = Vec::new();
    let mut rss_mb = 0.0;
    while round_walls.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() < args.seconds {
        let mut wall = 0.0;
        for fleet in &mut fleets {
            let (res, s) = timed(|| run_fleet_with(&fleet.spec, &opts));
            match res {
                Ok((report, _)) => fleet.reports.push(report),
                Err(e) => {
                    out.problems
                        .push(format!("{}: run_fleet_with failed: {e}", fleet.spec.name));
                    return out;
                }
            }
            wall += s;
            // Peak memory of the first cold fleet. Later calls build their
            // LUTs in whichever pool worker's allocator arena comes first,
            // so on some runs a freed LUT is not reused and the peak grows
            // by one LUT (41 or 56 MB over seeds 1-4): a scheduling
            // accident, not a property of the fleet.
            if rss_mb == 0.0 {
                rss_mb = peak_rss_mb();
            }
        }
        round_walls.push(wall);
    }
    let rounds = round_walls.len() as u64;
    let runs_per_round: usize = fleets.iter().map(|f| f.spec.total_runs()).sum();

    // Check pass: every run again through `execute_run` on prebuilt maps.
    let (ctx, _) = setup(&fleets[0].spec);
    for fleet in &mut fleets {
        fleet.done = execute_all(&fleet.spec, &ctx);
    }
    let bad: u64 = fleets.iter().map(Fleet::bad_runs).sum();
    out.attempted = rounds * runs_per_round as u64;
    out.failed = rounds * bad;
    out.check(bad == 0, || {
        format!("{bad} run(s) unresolved or non-finite")
    });
    for fleet in &fleets {
        fleet.check(&mut out);
    }
    let [robust, deadline] = &fleets;
    // The paper's ordering: SynPF below Cartographer under odom_slip,
    // DeadReckoning worst on nominal.
    let violations = ordering_violations(robust.report());
    for v in &violations {
        out.check(false, || format!("ordering violation: {v}"));
    }
    let mut rungs = [0u64; 6];
    let (mut misses, mut below_top) = (0u64, 0u64);
    for (i, (o, _)) in deadline.done.iter().enumerate() {
        for (slot, name) in rungs.iter_mut().zip(RUNGS) {
            *slot += counter(o, name);
        }
        misses += counter(o, "deadline.miss");
        if deadline.scenario(i) == PRESSURE {
            below_top += RUNGS[1..].iter().map(|n| counter(o, n)).sum::<u64>();
        } else {
            out.check(counter(o, "deadline.miss") == 0, || {
                format!("deadline run {i} missed a deadline outside {PRESSURE}")
            });
        }
    }
    out.check(below_top > 0, || {
        format!("{PRESSURE} runs booked no step below rung 0")
    });
    for f in &fleets {
        for c in &f.report().cells {
            eprintln!(
                "fleet: {:<20} {} {} {:<16} {:<13} lat {:7.2} cm  rmse {:7.2} cm",
                f.spec.name, c.map, c.grip, c.scenario, c.method, c.mean_lat_err_cm, c.mean_rmse_cm
            );
        }
    }

    // Rounds replay the same fleets, yet their wall times spread by ±10 %
    // within one process (which worker builds each lazy LUT, wave
    // barriers, the host); the fastest is the one disturbed least.
    eprintln!("fleet: round walls [s]: {round_walls:.3?}");
    let fastest = round_walls.iter().copied().fold(f64::INFINITY, f64::min);
    let driven_s = runs_per_round as f64 * robust.spec.duration_s;
    out.e2e("setup_s", setup_t.total, "s");
    out.e2e("peak_rss_mb", rss_mb, "MB");
    out.e2e("rtf", driven_s / fastest, "sim-s/s");
    // Medians over the robustness fleet's nominal runs (8 per method):
    // SynPF loses track at LQ on some runs (README), and such a run must
    // not swing the figure. The budgeted runs lose track more often, so
    // their median is a per-layer figure.
    let nominal = |m| median(&robust.lat_cm(m, &[NOMINAL_SCENARIO]));
    out.e2e("synpf_lat_err_cm", nominal(EvalMethod::SynPf), "cm");
    out.e2e("carto_lat_err_cm", nominal(EvalMethod::Cartographer), "cm");
    if !args.trace {
        return out;
    }

    let round_s = fastest;
    out.layer("fleet_runs_per_s", runs_per_round as f64 / round_s, "1/s");
    // `FleetCtx::build` makes tracks and artifact bundles in one call, so
    // fleet reports only the LUT part of its set-up on its own.
    out.layer("range.lut_build_s", setup_t.parts[1], "s");
    let lut_bytes: usize = ctx
        .maps
        .iter()
        .map(|m| m.artifacts.lut().memory_bytes())
        .sum();
    out.layer("range.lut_bytes", lut_bytes as f64, "bytes");
    for (name, steps) in RUNG_METRICS.into_iter().zip(rungs) {
        out.layer(name, steps as f64, "count");
    }
    out.layer("deadline.miss_steps", misses as f64, "count");
    out.layer(
        "deadline.synpf_lat_err_cm",
        median(&deadline.lat_cm(EvalMethod::SynPf, &[NOMINAL_SCENARIO, PRESSURE])),
        "cm",
    );
    let reinits: u64 = fleets
        .iter()
        .flat_map(|f| &f.done)
        .map(|(o, _)| counter(o, "pf.health.reinit"))
        .sum();
    out.layer("pf.reinit_count", reinits as f64, "count");
    let synpf_failed = fleets
        .iter()
        .flat_map(|f| {
            (0..f.done.len())
                .filter(move |&i| f.method(i) == EvalMethod::SynPf && !f.done[i].0.success)
        })
        .count();
    out.layer("eval.synpf_failed_runs", synpf_failed as f64, "count");
    let run_s = |m: EvalMethod| -> Vec<f64> {
        fleets
            .iter()
            .flat_map(|f| {
                (0..f.done.len())
                    .filter(move |&i| f.method(i) == m)
                    .map(move |i| f.done[i].1)
            })
            .collect()
    };
    out.layer("eval.synpf_run_s", mean(&run_s(EvalMethod::SynPf)), "s");
    out.layer(
        "eval.carto_run_s",
        mean(&run_s(EvalMethod::Cartographer)),
        "s",
    );
    out.layer(
        "eval.dr_run_s",
        mean(&run_s(EvalMethod::DeadReckoning)),
        "s",
    );
    let all_s: Vec<f64> = fleets
        .iter()
        .flat_map(|f| f.done.iter().map(|(_, s)| *s))
        .collect();
    out.layer(
        "eval.run_s_max",
        all_s.iter().copied().fold(0.0, f64::max),
        "s",
    );
    out.layer(
        "eval.parallel_eff",
        all_s.iter().sum::<f64>() / (THREADS as f64 * round_s),
        "ratio",
    );
    let runs = robust.spec.runs();
    let (folded, agg_s) = timed(|| {
        let mut b = ReportBuilder::new(&robust.spec);
        for ci in 0..robust.spec.cells().len() {
            let slots: Vec<Option<RunOutcome>> = runs
                .iter()
                .filter(|d| d.cell == ci)
                .map(|d| Some(robust.done[d.index].0.clone()))
                .collect();
            b.fold_cell(ci, &slots);
        }
        b.finish()
    });
    out.check(&folded == robust.report(), || {
        "ReportBuilder fold of the execute_run outcomes differs from run_fleet_with's report".into()
    });
    out.layer("eval.aggregate_ms", agg_s * 1e3, "ms");
    out
}
