//! `race`: the Table I protocol in the control loop, one car at a time.
//!
//! Cells are {HQ, LQ} grip × {SynPF on IMU-fused odometry, Cartographer on
//! Ackermann odometry} on `test_track`, each driving a standing-start lap
//! plus [`LAPS`] flying laps with the localizer steering the car. The
//! Table I seed 42 is always run, where Cartographer at LQ crashes; a
//! second fixed seed adds a Cartographer LQ cell that finishes, and a
//! seed derived from `--seed` adds SynPF at both grips and Cartographer at
//! HQ (see README: Cartographer at LQ crashes on some seeds, so its crash
//! count could not stay the same share of every run).

use std::sync::Arc;
use std::time::Instant;

use raceloc_bench::{test_track, world_config, MU_HIGH_QUALITY, MU_LOW_QUALITY};
use raceloc_core::diagnostics::Diagnostics;
use raceloc_core::sensor_data::{LaserScan, Odometry};
use raceloc_core::{Health, Localizer, Pose2};
use raceloc_map::Track;
use raceloc_obs::Telemetry;
use raceloc_pf::{SynPf, SynPfConfig};
use raceloc_range::{ArtifactParams, MapArtifacts, RangeMethod, RayMarching};
use raceloc_sim::{Lidar, LidarSpec, SimLog, World};
use raceloc_slam::{CartoLocalizer, CartoLocalizerConfig};

use crate::geom::Line;
use crate::stats::{derive_seed, mean, median, quantile, repeated_setup, timed};
use crate::{peak_rss_mb, Args, Outcome, SETUP_REPEATS};

/// Flying laps every cell is asked to drive.
const LAPS: usize = 2;
/// The Table I seed (`table1` runs every cell on it).
const TABLE1_SEED: u64 = 42;
/// A fixed seed on which Cartographer at LQ grip finishes its laps.
const CARTO_LQ_SEED: u64 = 1;
/// Seeds derived from `--seed` per round.
const DERIVED_SEEDS: u64 = 1;
/// Fewest timed rounds: each LiDAR period counts at its fastest of them.
const MIN_ROUNDS: usize = 2;
/// Simulated seconds per cell: a standing-start lap plus the flying laps
/// at ~9.5 s each, with margin.
const CELL_SECONDS: f64 = 11.0 * (LAPS as f64 + 1.0);
/// Mean estimation error a finishing cell must stay under \[cm\] (the
/// fleet's success threshold).
const EST_ERROR_LIMIT_CM: f64 = 30.0;
/// SynPF filter seed, as `table1` builds it.
const SYNPF_SEED: u64 = 7;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Method {
    SynPf,
    Carto,
}

#[derive(Clone, Copy, Debug)]
struct Cell {
    method: Method,
    grip: &'static str,
    mu: f64,
    seed: u64,
}

fn cells(seed: u64) -> Vec<Cell> {
    let cell = |method, grip, seed| Cell {
        method,
        grip,
        mu: if grip == "HQ" {
            MU_HIGH_QUALITY
        } else {
            MU_LOW_QUALITY
        },
        seed,
    };
    let mut out = Vec::new();
    for method in [Method::Carto, Method::SynPf] {
        for grip in ["HQ", "LQ"] {
            out.push(cell(method, grip, TABLE1_SEED));
        }
    }
    out.push(cell(Method::Carto, "LQ", CARTO_LQ_SEED));
    for k in 0..DERIVED_SEEDS {
        let s = derive_seed(seed, k);
        out.push(cell(Method::SynPf, "HQ", s));
        out.push(cell(Method::SynPf, "LQ", s));
        out.push(cell(Method::Carto, "HQ", s));
    }
    out
}

struct Setup {
    track: Track,
    artifacts: Arc<MapArtifacts>,
}

/// Track, artifact bundle, and the forced lazy LUT: everything the first
/// timed call would otherwise build.
fn setup() -> (Setup, [f64; 3]) {
    let (track, t_track) = timed(test_track);
    let (artifacts, t_arts) =
        timed(|| Arc::new(MapArtifacts::build(&track.grid, ArtifactParams::default())));
    let (_, t_lut) = timed(|| {
        artifacts.lut();
    });
    (Setup { track, artifacts }, [t_track, t_arts, t_lut])
}

/// Per-step span samples read back from a localizer's telemetry.
struct Probe {
    tel: Telemetry,
    names: &'static [&'static str],
    seen: Vec<u64>,
    samples: Vec<Vec<f64>>,
}

impl Probe {
    fn new(tel: Telemetry, names: &'static [&'static str]) -> Self {
        Self {
            tel,
            names,
            seen: vec![0; names.len()],
            samples: vec![Vec::new(); names.len()],
        }
    }

    /// Books the spans recorded since the last call; `keep = false` only
    /// advances the counts (cold steps stay out of the samples).
    fn read(&mut self, keep: bool) {
        let snap = self.tel.snapshot();
        for (i, name) in self.names.iter().enumerate() {
            if let Some(s) = snap.span(name) {
                if s.count > self.seen[i] {
                    self.seen[i] = s.count;
                    if keep {
                        self.samples[i].push(s.last_seconds);
                    }
                }
            }
        }
    }
}

/// Wraps a localizer and times its `predict` and `correct` calls. The
/// first correction after each reset is cold and kept apart. The time
/// between the starts of consecutive corrections is one LiDAR period of
/// the whole closed loop: simulation, prediction and correction.
struct Timed<L> {
    inner: L,
    predict_s: Vec<f64>,
    correct_s: Vec<f64>,
    cold_s: Vec<f64>,
    period_s: Vec<f64>,
    last_correct: Option<Instant>,
    fresh: bool,
    probe: Option<Probe>,
}

impl<L: Localizer> Timed<L> {
    fn new(inner: L, probe: Option<Probe>) -> Self {
        Self {
            inner,
            predict_s: Vec::new(),
            correct_s: Vec::new(),
            cold_s: Vec::new(),
            period_s: Vec::new(),
            last_correct: None,
            fresh: true,
            probe,
        }
    }
}

impl<L: Localizer> Localizer for Timed<L> {
    fn predict(&mut self, odom: &Odometry) {
        let t0 = Instant::now();
        self.inner.predict(odom);
        self.predict_s.push(t0.elapsed().as_secs_f64());
    }

    fn correct(&mut self, scan: &LaserScan) -> Pose2 {
        let t0 = Instant::now();
        if let Some(prev) = self.last_correct.replace(t0) {
            self.period_s.push((t0 - prev).as_secs_f64());
        }
        let pose = self.inner.correct(scan);
        let dt = t0.elapsed().as_secs_f64();
        if self.fresh {
            self.cold_s.push(dt);
        } else {
            self.correct_s.push(dt);
        }
        if let Some(p) = self.probe.as_mut() {
            p.read(!self.fresh);
        }
        self.fresh = false;
        pose
    }

    fn pose(&self) -> Pose2 {
        self.inner.pose()
    }

    fn reset(&mut self, pose: Pose2) {
        self.fresh = true;
        self.last_correct = None;
        self.inner.reset(pose);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn diagnostics(&self) -> Diagnostics {
        self.inner.diagnostics()
    }

    fn health(&self) -> Health {
        self.inner.health()
    }

    fn set_compute_pressure(&mut self, factor: f64) {
        self.inner.set_compute_pressure(factor);
    }
}

const PF_SPANS: &[&str] = &["pf.raycast", "pf.sensor", "pf.resample"];
const SLAM_SPANS: &[&str] = &["slam.correlative", "slam.refine"];

/// One closed-loop cell as measured.
struct CellRun {
    cell: Cell,
    log: SimLog,
    wall_s: f64,
    predict_s: Vec<f64>,
    correct_s: Vec<f64>,
    cold_s: Vec<f64>,
    period_s: Vec<f64>,
    /// Per-span samples of the traced pass, in `PF_SPANS`/`SLAM_SPANS` order.
    spans: Vec<Vec<f64>>,
    /// Mean `sim.physics` span of the traced pass \[s\].
    physics_mean_s: Option<f64>,
}

fn drive<L: Localizer>(
    mut world: World,
    loc: L,
    probe: Option<Probe>,
    cell: Cell,
    seconds: f64,
) -> CellRun {
    let mut timed_loc = Timed::new(loc, probe);
    let (log, wall_s) = timed(|| world.run(&mut timed_loc, seconds));
    let physics_mean_s = world
        .telemetry()
        .snapshot()
        .span("sim.physics")
        .map(|s| s.mean_seconds());
    CellRun {
        cell,
        log,
        wall_s,
        predict_s: timed_loc.predict_s,
        correct_s: timed_loc.correct_s,
        cold_s: timed_loc.cold_s,
        period_s: timed_loc.period_s,
        spans: timed_loc.probe.map(|p| p.samples).unwrap_or_default(),
        physics_mean_s,
    }
}

fn run_cell(setup: &Setup, cell: Cell, traced: bool, seconds: f64) -> CellRun {
    let mut cfg = world_config(cell.mu, cell.seed);
    cfg.threads = 1;
    cfg.odom.use_imu_yaw = cell.method == Method::SynPf;
    let mut world = World::new(setup.track.clone(), cfg);
    let tel = if traced {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    world.set_telemetry(tel.clone());
    let probe = |names| traced.then(|| Probe::new(tel.clone(), names));
    match cell.method {
        Method::SynPf => {
            let config = SynPfConfig::builder()
                .seed(SYNPF_SEED)
                .threads(1)
                .build()
                .expect("paper configuration is valid");
            let mut pf = SynPf::from_artifacts(Arc::clone(&setup.artifacts), config);
            pf.set_telemetry(tel.clone());
            drive(world, pf, probe(PF_SPANS), cell, seconds)
        }
        Method::Carto => {
            let mut carto =
                CartoLocalizer::from_artifacts(&setup.artifacts, CartoLocalizerConfig::default());
            carto.set_telemetry(tel.clone());
            drive(world, carto, probe(SLAM_SPANS), cell, seconds)
        }
    }
}

/// What the benchmark computes itself from one cell's truth/estimate pairs.
struct CellEval {
    finite: bool,
    flying_laps: usize,
    lat_gap_m: Vec<f64>,
    est_err_cm: f64,
}

fn evaluate(line: &Line, run: &CellRun) -> CellEval {
    let truth: Vec<Pose2> = run.log.samples.iter().map(|s| s.true_pose).collect();
    let finite = run.log.samples.iter().all(|s| {
        s.est_pose.x.is_finite() && s.est_pose.y.is_finite() && s.est_pose.theta.is_finite()
    });
    let lat_gap_m = run
        .log
        .samples
        .iter()
        .map(|s| line.lateral_gap(s.true_pose, s.est_pose))
        .collect();
    let errs: Vec<f64> = run
        .log
        .samples
        .iter()
        .map(|s| 100.0 * (s.true_pose.x - s.est_pose.x).hypot(s.true_pose.y - s.est_pose.y))
        .collect();
    CellEval {
        finite,
        flying_laps: line.lap_ends(&truth).len().saturating_sub(1),
        lat_gap_m,
        est_err_cm: mean(&errs),
    }
}

/// Simulated seconds per wall second of the closed loop. Every round
/// replays the same cells bit-identically, so each LiDAR period does the
/// same work in every round: it counts at its fastest round, the one the
/// host disturbed least. A cell's periods plus the rest of its
/// `World::run` time (before the first correction, after the last) make
/// up its whole loop, so a slow correction, resampling or reinit at some
/// step stays in the figure.
fn loop_rtf(rounds: &[Vec<CellRun>]) -> f64 {
    let fastest = |xs: &mut dyn Iterator<Item = f64>| xs.fold(f64::INFINITY, f64::min);
    let sim: f64 = rounds[0].iter().map(|r| r.log.duration).sum();
    let wall: f64 = (0..rounds[0].len())
        .map(|k| {
            let n = rounds[0][k].period_s.len();
            let rest = fastest(
                &mut rounds
                    .iter()
                    .map(|r| r[k].wall_s - r[k].period_s.iter().sum::<f64>()),
            );
            let periods: f64 = (0..n)
                .map(|i| fastest(&mut rounds.iter().filter_map(|r| r[k].period_s.get(i).copied())))
                .sum();
            periods + rest
        })
        .sum();
    sim / wall
}

fn method_name(m: Method) -> &'static str {
    match m {
        Method::SynPf => "SynPF",
        Method::Carto => "Cartographer",
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (setup, setup_t) = repeated_setup(SETUP_REPEATS, setup);
    let line = Line::new(
        setup
            .track
            .raceline
            .points()
            .iter()
            .map(|p| (p.x, p.y))
            .collect(),
    );
    let cells = cells(args.seed);

    // Warm-up: one short untimed drive per method.
    for method in [Method::SynPf, Method::Carto] {
        let cell = Cell {
            method,
            grip: "HQ",
            mu: MU_HIGH_QUALITY,
            seed: TABLE1_SEED,
        };
        run_cell(&setup, cell, false, 2.0);
    }

    // Untraced measurement: whole rounds of every cell.
    let started = Instant::now();
    let mut rounds: Vec<Vec<CellRun>> = Vec::new();
    let mut rss_mb = 0.0;
    while rounds.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() < args.seconds {
        rounds.push(
            cells
                .iter()
                .map(|&c| run_cell(&setup, c, false, CELL_SECONDS))
                .collect(),
        );
        if rounds.len() == 1 {
            rss_mb = peak_rss_mb();
        }
    }

    // Checks and accuracy on round 0; later rounds must replay it exactly.
    let evals: Vec<CellEval> = rounds[0].iter().map(|r| evaluate(&line, r)).collect();
    let mut failed_laps = 0u64;
    let mut lat = [Vec::new(), Vec::new()];
    for (k, (run, ev)) in rounds[0].iter().zip(&evals).enumerate() {
        let c = run.cell;
        let tag = format!("{} {} seed {}", method_name(c.method), c.grip, c.seed);
        out.check(ev.finite, || format!("{tag}: non-finite estimate"));
        let done = ev.flying_laps.min(LAPS);
        failed_laps += (LAPS - done) as u64;
        eprintln!(
            "race: {tag}: {} flying laps{}, est err {:.2} cm, lat gap {:.2} cm, wall {:.3?} s",
            ev.flying_laps,
            if run.log.crashed { " (CRASH)" } else { "" },
            ev.est_err_cm,
            100.0 * mean(&ev.lat_gap_m),
            rounds.iter().map(|r| r[k].wall_s).collect::<Vec<_>>()
        );
        if !run.log.crashed {
            out.check(done == LAPS, || {
                format!("{tag}: finished without crashing but drove {done}/{LAPS} flying laps")
            });
            out.check(ev.est_err_cm < EST_ERROR_LIMIT_CM, || {
                format!(
                    "{tag}: mean estimation error {:.2} cm ≥ {EST_ERROR_LIMIT_CM} cm",
                    ev.est_err_cm
                )
            });
            lat[(c.method == Method::Carto) as usize].extend_from_slice(&ev.lat_gap_m);
        }
    }
    for (k, round) in rounds.iter().enumerate().skip(1) {
        for (a, b) in round.iter().zip(&rounds[0]) {
            let same = a.log.samples.len() == b.log.samples.len()
                && a.log
                    .samples
                    .iter()
                    .zip(&b.log.samples)
                    .all(|(x, y)| x.est_pose == y.est_pose);
            out.check(same, || {
                format!("round {k} did not replay round 0 bit-identically")
            });
        }
    }
    out.attempted = (rounds.len() * cells.len() * LAPS) as u64;
    out.failed = rounds.len() as u64 * failed_laps;

    let all = || rounds.iter().flatten();
    let samples = |m: Method| -> Vec<f64> {
        all()
            .filter(|r| r.cell.method == m)
            .flat_map(|r| r.correct_s.iter().map(|s| s * 1e3))
            .collect()
    };
    let sim_s: f64 = all().map(|r| r.log.duration).sum();
    let wall_s: f64 = all().map(|r| r.wall_s).sum();
    let rtf = loop_rtf(&rounds);
    out.e2e("setup_s", setup_t.total, "s");
    out.e2e("peak_rss_mb", rss_mb, "MB");
    out.e2e("rtf", rtf, "sim-s/s");
    out.e2e("synpf_lat_err_cm", 100.0 * mean(&lat[0]), "cm");
    out.e2e("carto_lat_err_cm", 100.0 * mean(&lat[1]), "cm");
    if !args.trace {
        return out;
    }

    // Per-layer figures that need no tracing come from the untraced pass.
    let (pf, carto) = (samples(Method::SynPf), samples(Method::Carto));
    out.layer("synpf_correct_ms_p50", median(&pf), "ms");
    out.layer("synpf_correct_ms_p99", quantile(&pf, 0.99), "ms");
    out.layer("carto_correct_ms_p50", median(&carto), "ms");
    out.layer("carto_correct_ms_p99", quantile(&carto, 0.99), "ms");
    let localizer_s: f64 = all()
        .map(|r| {
            r.predict_s
                .iter()
                .chain(&r.correct_s)
                .chain(&r.cold_s)
                .sum::<f64>()
        })
        .sum();
    out.layer(
        "sim.self_ms_per_sim_s",
        1e3 * (wall_s - localizer_s) / sim_s,
        "ms/sim-s",
    );
    let pf_predict: Vec<f64> = all()
        .filter(|r| r.cell.method == Method::SynPf)
        .flat_map(|r| r.predict_s.iter().map(|s| s * 1e3))
        .collect();
    out.layer("pf.predict_ms_p50", median(&pf_predict), "ms");
    let cold = |m: Method| -> Vec<f64> {
        all()
            .filter(|r| r.cell.method == m)
            .flat_map(|r| r.cold_s.iter().map(|s| s * 1e3))
            .collect()
    };
    out.layer("pf.correct_cold_ms", median(&cold(Method::SynPf)), "ms");
    out.layer("slam.correct_cold_ms", median(&cold(Method::Carto)), "ms");
    out.layer("map.track_build_s", setup_t.parts[0], "s");
    out.layer("range.artifacts_build_s", setup_t.parts[1], "s");
    out.layer("range.lut_build_s", setup_t.parts[2], "s");
    out.layer(
        "range.lut_bytes",
        setup.artifacts.lut().memory_bytes() as f64,
        "bytes",
    );

    // `Lidar::scan` on the truth poses the race recorded.
    let lidar_spec = LidarSpec::default();
    let caster = RayMarching::new(&setup.track.grid, lidar_spec.max_range);
    let mut lidar = Lidar::new(lidar_spec, args.seed);
    let scan_ms: Vec<f64> = rounds[0][0]
        .log
        .samples
        .iter()
        .map(|s| timed(|| std::hint::black_box(lidar.scan(s.true_pose, &caster, s.stamp))).1 * 1e3)
        .collect();
    out.layer("sim.lidar_scan_ms_p50", median(&scan_ms), "ms");

    // Traced pass: the program's own spans, read back after every step.
    let started = Instant::now();
    let mut traced: Vec<Vec<CellRun>> = Vec::new();
    while traced.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        traced.push(
            cells
                .iter()
                .map(|&c| run_cell(&setup, c, true, CELL_SECONDS))
                .collect(),
        );
    }
    let span = |m: Method, i: usize| -> Vec<f64> {
        traced
            .iter()
            .flatten()
            .filter(|r| r.cell.method == m)
            .flat_map(|r| r.spans[i].iter().map(|s| s * 1e3))
            .collect()
    };
    out.layer("pf.raycast_ms_p50", median(&span(Method::SynPf, 0)), "ms");
    out.layer("pf.sensor_ms_p50", median(&span(Method::SynPf, 1)), "ms");
    out.layer("pf.resample_ms_p50", median(&span(Method::SynPf, 2)), "ms");
    let correlative = span(Method::Carto, 0);
    out.layer("slam.correlative_ms_p50", median(&correlative), "ms");
    out.layer(
        "slam.correlative_ms_p99",
        quantile(&correlative, 0.99),
        "ms",
    );
    out.layer("slam.refine_ms_p50", median(&span(Method::Carto, 1)), "ms");
    let physics: Vec<f64> = traced
        .iter()
        .flatten()
        .filter_map(|r| r.physics_mean_s)
        .collect();
    out.layer("sim.physics_us_mean", 1e6 * mean(&physics), "us");
    out.layer(
        "obs.trace_overhead_pct",
        100.0 * (rtf / loop_rtf(&traced) - 1.0),
        "%",
    );
    out
}
