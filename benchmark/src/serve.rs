//! `serve`: `ServeEngine` on two pool threads answering a mixed session
//! fleet (SynPF, Cartographer, DeadReckoning) over four tracks.
//!
//! The session mix and localizer configurations are `serve_load`'s. Each
//! session replays a tape made here from `--seed` before timing starts:
//! truth weaves along the track's centerline, odometry integrates noisy
//! truth deltas, scans are cast from truth. A round is one submitted step
//! per session and the drain that answers them, so every session submits
//! its next step only after its previous one came back. A pass opens
//! fresh sessions and replays the whole tape.

use std::sync::Arc;
use std::time::Instant;

use raceloc_core::angle;
use raceloc_core::localizer::DeadReckoning;
use raceloc_core::sensor_data::{LaserScan, Odometry};
use raceloc_core::{Localizer, Pose2, Twist2};
use raceloc_map::{Track, TrackShape, TrackSpec};
use raceloc_pf::{ScanLayout, SynPf, SynPfConfig};
use raceloc_range::{ArtifactParams, MapArtifacts, RangeMethod, RayMarching};
use raceloc_serve::{
    session_seed, LocalizerSpec, ServeConfig, ServeEngine, SessionId, StepRequest, StepResult,
};
use raceloc_sim::LidarSpec;
use raceloc_slam::{CartoLocalizer, CartoLocalizerConfig, SearchWindow};

use crate::geom::Line;
use crate::stats::{derive_seed, mean, median, quantile, repeated_setup, timed, SplitMix};
use crate::{peak_rss_mb, Args, Outcome, SETUP_REPEATS};

/// Concurrent sessions: a third of each localizer kind.
const SESSIONS: usize = 384;
/// Steps per tape (one pass).
const STEPS: usize = 300;
/// Leading steps of pass 0 the answer checks replay.
const CHECK_STEPS: usize = 50;
/// Tape period \[s\].
const DT: f64 = 0.1;
/// Pool threads of the timed engine.
const THREADS: usize = 2;
/// Engine master seed (the session RNG streams derive from it).
const ENGINE_SEED: u64 = 2024;
/// Distance to truth under which every SynPF and Cartographer session
/// must end \[m\], taken as the median over its last [`END_STEPS`] answers.
const END_ERROR_LIMIT_M: f64 = 0.5;
const END_STEPS: usize = 30;
const BEAMS: usize = 36;
/// Largest lateral acceleration a tape drives with \[m/s²\]: well inside
/// the 9.5 m/s² friction limit of SynPF's motion model.
const LAT_ACCEL: f64 = 6.0;

fn params() -> ArtifactParams {
    ArtifactParams {
        max_range: 10.0,
        theta_bins: 36,
    }
}

fn tracks() -> Vec<Track> {
    [
        TrackShape::Oval {
            width: 12.0,
            height: 7.0,
        },
        TrackShape::RoundedRectangle {
            width: 11.0,
            height: 8.0,
            corner_radius: 2.0,
        },
        TrackShape::LShape {
            arm: 9.0,
            notch: 3.5,
            corner_radius: 1.2,
        },
        TrackShape::RandomFourier {
            seed: 11,
            mean_radius: 5.0,
            amplitude: 0.2,
            harmonics: 3,
        },
    ]
    .into_iter()
    .map(|shape| TrackSpec::new(shape).resolution(0.1).build())
    .collect()
}

/// `serve_load`'s session mix: every third session is SynPF (every other
/// one of those with recovery), every third Cartographer, the rest dead
/// reckoning.
fn spec_for(i: usize) -> LocalizerSpec {
    match kind(i) {
        Kind::SynPf => LocalizerSpec::SynPf {
            config: synpf_config(),
            recovery: recovery(i),
        },
        Kind::Carto => LocalizerSpec::Cartographer(carto_config()),
        Kind::DeadReckoning => LocalizerSpec::DeadReckoning,
    }
}

fn recovery(i: usize) -> bool {
    i.is_multiple_of(6)
}

fn synpf_config() -> SynPfConfig {
    SynPfConfig {
        particles: 128,
        layout: ScanLayout::Boxed {
            count: 24,
            aspect: 3.0,
        },
        ..SynPfConfig::default()
    }
}

fn carto_config() -> CartoLocalizerConfig {
    CartoLocalizerConfig {
        max_points: 60,
        window: SearchWindow {
            linear: 0.15,
            angular: 0.08,
        },
        linear_step: 0.05,
        angular_step: 0.02,
        ..CartoLocalizerConfig::default()
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    SynPf,
    Carto,
    DeadReckoning,
}

fn kind(i: usize) -> Kind {
    [Kind::SynPf, Kind::Carto, Kind::DeadReckoning][i % 3]
}

/// One session's inputs and the truth they were made from.
struct Tape {
    track: usize,
    start: Pose2,
    truth: Vec<Pose2>,
    steps: Vec<(Odometry, LaserScan)>,
}

fn tape(track: &Track, track_index: usize, seed: u64) -> Tape {
    let mut rng = SplitMix::new(seed);
    let caster = RayMarching::new(&track.grid, params().max_range);
    let path = &track.centerline;
    // Every tape drives the same way (serve_load's 3.5 m/s, a 0.2 m weave
    // with a 6 m wavelength); the seed places it on the track and draws
    // its noise, so the cost of a round barely depends on the seed.
    let s0 = rng.uniform(0.0, path.total_length());
    let phase = rng.uniform(0.0, std::f64::consts::TAU);
    let (speed, amp, wave) = (3.5, 0.2, 6.0);
    let pose_on = |s: f64| {
        let p = path.point_at(s);
        let h = path.heading_at(s);
        let arg = std::f64::consts::TAU * s / wave + phase;
        let d = amp * arg.sin();
        let slope = amp * std::f64::consts::TAU / wave * arg.cos();
        Pose2::new(p.x - d * h.sin(), p.y + d * h.cos(), h + slope.atan())
    };
    // A car corners within its grip: the tape slows wherever the path
    // (corner plus weave) would need more than LAT_ACCEL, as SynPF's
    // motion model bounds the yaw rate by its own friction limit.
    let curvature = |s: f64| {
        let (a, b) = (pose_on(s), pose_on(s + 0.05));
        angle::diff(b.theta, a.theta).abs() / (b.x - a.x).hypot(b.y - a.y)
    };
    let mut along = Vec::with_capacity(STEPS);
    let mut s = s0;
    for _ in 0..STEPS {
        along.push(s);
        let kappa = (0..8)
            .map(|j| curvature(s + j as f64 * speed * DT / 8.0))
            .fold(0.0, f64::max);
        s += speed.min((LAT_ACCEL / kappa).sqrt()) * DT;
    }
    let pose_at = |k: usize| pose_on(along[k]);
    let mount = LidarSpec::default().mount;
    let fov = 270.0f64.to_radians();
    let inc = fov / (BEAMS - 1) as f64;
    let mut odom = Pose2::IDENTITY;
    let mut truth = Vec::with_capacity(STEPS);
    let mut steps = Vec::with_capacity(STEPS);
    // Step 0 is taken at the start pose: a localizer's first odometry
    // only sets its reference, so it must come from where it was reset.
    for k in 0..STEPS {
        let now = pose_at(k);
        let mut delta = if k == 0 {
            pose_at(0).relative_to(pose_at(1))
        } else {
            pose_at(k - 1).relative_to(now)
        };
        delta.x += 0.005 * rng.gaussian();
        delta.y += 0.005 * rng.gaussian();
        delta.theta += 0.002 * rng.gaussian();
        if k > 0 {
            odom = odom * delta;
        }
        let stamp = k as f64 * DT;
        let sensor = now * mount;
        let ranges = (0..BEAMS)
            .map(|b| {
                let r = caster.range(
                    sensor.x,
                    sensor.y,
                    sensor.theta - 0.5 * fov + b as f64 * inc,
                );
                (r + 0.01 * rng.gaussian()).clamp(0.0, params().max_range)
            })
            .collect();
        let mut scan = LaserScan::new(-0.5 * fov, inc, ranges, params().max_range);
        scan.stamp = stamp;
        truth.push(now);
        // The TUM motion model integrates the reported twist, so it must
        // carry the turn rate as well as the speed.
        let twist = Twist2::new(delta.x / DT, 0.0, delta.theta / DT);
        steps.push((Odometry::new(odom, twist, stamp), scan));
    }
    Tape {
        track: track_index,
        start: pose_at(0),
        truth,
        steps,
    }
}

struct Setup {
    tracks: Vec<Track>,
    engine: ServeEngine,
    ids: Vec<SessionId>,
    open_ms: Vec<f64>,
}

fn open_all(
    engine: &mut ServeEngine,
    tracks: &[Track],
    tapes: &[Tape],
) -> (Vec<SessionId>, Vec<f64>) {
    let mut ids = Vec::with_capacity(tapes.len());
    let mut ms = Vec::with_capacity(tapes.len());
    for (i, t) in tapes.iter().enumerate() {
        let (id, s) =
            timed(|| engine.open_session(&tracks[t.track].grid, params(), spec_for(i), t.start));
        ids.push(id.expect("the session table has room"));
        ms.push(s * 1e3);
    }
    (ids, ms)
}

/// Tracks, the engine, its sessions, and every shared LUT forced.
fn set_up(tapes: &[Tape], threads: usize) -> (Setup, [f64; 3]) {
    let (tracks, t_tracks) = timed(tracks);
    let mut engine = ServeEngine::new(ServeConfig {
        seed: ENGINE_SEED,
        threads,
        queue_capacity: SESSIONS * 2,
        max_sessions: SESSIONS * 2,
        chunk_min: 2,
        ..ServeConfig::default()
    });
    let ((ids, open_ms), t_open) = timed(|| open_all(&mut engine, &tracks, tapes));
    let (_, t_lut) = timed(|| {
        for t in &tracks {
            engine.store().get_or_build(&t.grid, params()).lut();
        }
    });
    let setup = Setup {
        tracks,
        engine,
        ids,
        open_ms,
    };
    (setup, [t_tracks, t_open, t_lut])
}

/// One pass as measured.
struct Pass {
    ids: Vec<SessionId>,
    results: Vec<StepResult>,
    /// Wall seconds of each round's submits plus drain.
    round_s: Vec<f64>,
    /// Per-step submit→drain-return latency \[s\], rounds after the first.
    step_s: Vec<f64>,
    submit_s: Vec<f64>,
    /// The program's own `serve.drain` span per round (traced pass only).
    drain_span_s: Vec<f64>,
    jobs: u64,
}

/// Replays the first `steps` steps of every tape, one round at a time.
fn run_pass(
    engine: &mut ServeEngine,
    ids: &[SessionId],
    tapes: &[Tape],
    steps: usize,
    traced: bool,
) -> Pass {
    let mut pass = Pass {
        ids: ids.to_vec(),
        results: Vec::with_capacity(ids.len() * STEPS),
        round_s: Vec::with_capacity(STEPS),
        step_s: Vec::with_capacity(ids.len() * STEPS),
        submit_s: Vec::new(),
        drain_span_s: Vec::new(),
        jobs: 0,
    };
    if traced {
        engine.rollup();
    }
    let mut sent = vec![Instant::now(); ids.len()];
    for k in 0..steps {
        let round = Instant::now();
        for (j, (id, t)) in ids.iter().zip(tapes).enumerate() {
            let (odom, scan) = t.steps[k].clone();
            sent[j] = Instant::now();
            let r = engine.submit(StepRequest {
                session: *id,
                odom,
                scan: Some(scan),
            });
            if traced {
                pass.submit_s.push(sent[j].elapsed().as_secs_f64());
            }
            r.expect("the session is open");
        }
        let results = engine.drain();
        let done = Instant::now();
        pass.round_s.push((done - round).as_secs_f64());
        if k > 0 {
            pass.step_s
                .extend(sent.iter().map(|t| (done - *t).as_secs_f64()));
        }
        if traced {
            let snap = engine.telemetry().snapshot();
            pass.drain_span_s.push(
                snap.span("serve.drain")
                    .map_or(f64::NAN, |s| s.last_seconds),
            );
        }
        pass.results.extend(results);
    }
    if traced {
        pass.jobs = engine.rollup().total("par.pool.jobs").unwrap_or(0);
    }
    pass
}

fn digest(results: &[StepResult]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in results {
        for v in [
            r.session.0,
            r.seq,
            r.pose.x.to_bits(),
            r.pose.y.to_bits(),
            r.pose.theta.to_bits(),
        ] {
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// The localizer a session of kind `i` runs, built outside the engine.
fn standalone(i: usize, id: SessionId, arts: &Arc<MapArtifacts>) -> Box<dyn Localizer> {
    match kind(i) {
        Kind::SynPf => {
            let mut config = synpf_config();
            config.seed = session_seed(ENGINE_SEED, id);
            config.threads = 1;
            let mut pf = SynPf::from_artifacts(Arc::clone(arts), config);
            if recovery(i) {
                pf.enable_recovery_from_artifacts();
            }
            Box::new(pf)
        }
        Kind::Carto => Box::new(CartoLocalizer::from_artifacts(arts, carto_config())),
        Kind::DeadReckoning => Box::new(DeadReckoning::new()),
    }
}

impl Pass {
    /// Session `i`'s answers in step order.
    fn session(&self, i: usize) -> Vec<Pose2> {
        let id = self.ids[i];
        let mut mine: Vec<&StepResult> = self.results.iter().filter(|r| r.session == id).collect();
        mine.sort_by_key(|r| r.seq);
        mine.iter().map(|r| r.pose).collect()
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let tracks = tracks();
    let tapes: Vec<Tape> = (0..SESSIONS)
        .map(|i| {
            tape(
                &tracks[i % tracks.len()],
                i % tracks.len(),
                derive_seed(args.seed, i as u64),
            )
        })
        .collect();
    drop(tracks);
    let (mut setup, setup_t) = repeated_setup(SETUP_REPEATS, || set_up(&tapes, THREADS));

    // Untraced measurement: whole passes, fresh sessions each.
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut rss_mb = 0.0;
    let mut ids = setup.ids.clone();
    while passes.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        if !passes.is_empty() {
            for id in &ids {
                setup
                    .engine
                    .close_session(*id)
                    .expect("the session is open");
            }
            ids = open_all(&mut setup.engine, &setup.tracks, &tapes).0;
        }
        passes.push(run_pass(&mut setup.engine, &ids, &tapes, STEPS, false));
        if passes.len() == 1 {
            rss_mb = peak_rss_mb();
        }
    }

    // Counts: a step fails when it is shed, never answered, or non-finite.
    let shed = setup.engine.shed_total() + setup.engine.budget_shed_total();
    let answered: usize = passes.iter().map(|p| p.results.len()).sum();
    let nonfinite = passes
        .iter()
        .flat_map(|p| &p.results)
        .filter(|r| !(r.pose.x.is_finite() && r.pose.y.is_finite() && r.pose.theta.is_finite()))
        .count();
    let attempted = passes.len() * SESSIONS * STEPS;
    out.attempted = attempted as u64;
    out.failed = (attempted - answered + nonfinite) as u64;
    out.check(shed == 0, || format!("{shed} step(s) shed"));
    out.check(answered == attempted, || {
        format!("{} step(s) unanswered", attempted - answered)
    });
    out.check(nonfinite == 0, || format!("{nonfinite} non-finite pose(s)"));

    // Every SynPF and Cartographer session of every pass ends near the
    // truth its tape was made from: the median distance over its last
    // END_STEPS answers, so a single stray answer does not decide it.
    // SynPF sessions with recovery are the exception: recovery sometimes
    // moves a session onto the oval's symmetric twin pose, on some seeds
    // only (README), so their median session is gated and the lost ones
    // are reported.
    let mut worst_m = [0.0f64; 2];
    for (p, pass) in passes.iter().enumerate() {
        let mut recovering = Vec::new();
        for i in (0..SESSIONS).filter(|&i| kind(i) != Kind::DeadReckoning) {
            let poses = pass.session(i);
            let errs: Vec<f64> = poses
                .iter()
                .zip(&tapes[i].truth)
                .map(|(e, t)| (e.x - t.x).hypot(e.y - t.y))
                .skip(poses.len().saturating_sub(END_STEPS))
                .collect();
            let end = median(&errs);
            if kind(i) == Kind::SynPf && recovery(i) {
                recovering.push(end);
                continue;
            }
            let slot = &mut worst_m[(kind(i) == Kind::Carto) as usize];
            *slot = slot.max(end);
            out.check(end < END_ERROR_LIMIT_M, || {
                format!(
                    "pass {p} session {i} (track {}): ends {end:.2} m from truth (limit {END_ERROR_LIMIT_M} m)",
                    tapes[i].track
                )
            });
        }
        let mid = median(&recovering);
        out.check(mid < END_ERROR_LIMIT_M, || {
            format!("pass {p}: the median SynPF session with recovery ends {mid:.2} m from truth")
        });
        let lost = recovering
            .iter()
            .filter(|&&e| e >= END_ERROR_LIMIT_M)
            .count();
        if lost > 0 {
            eprintln!("serve: pass {p}: {lost} SynPF session(s) with recovery end ≥ {END_ERROR_LIMIT_M} m from truth");
        }
    }
    eprintln!(
        "serve: worst end error without recovery: SynPF {:.3} m, Cartographer {:.3} m",
        worst_m[0], worst_m[1]
    );

    // Accuracy of pass 0 (a pure function of the seed): per session, the
    // mean |lateral(estimate) − lateral(truth)|; per kind, the median
    // session, so one session's excursion does not swing the figure.
    let lines: Vec<Line> = setup
        .tracks
        .iter()
        .map(|t| Line::new(t.raceline.points().iter().map(|p| (p.x, p.y)).collect()))
        .collect();
    let session_lat = |i: usize| {
        let t = &tapes[i];
        let gaps: Vec<f64> = passes[0]
            .session(i)
            .iter()
            .zip(&t.truth)
            .map(|(est, truth)| lines[t.track].lateral_gap(*truth, *est))
            .collect();
        mean(&gaps)
    };
    let lat_of = |k: Kind| -> Vec<f64> {
        (0..SESSIONS)
            .filter(|&i| kind(i) == k)
            .map(session_lat)
            .collect()
    };

    // The same answers from one pool thread, and from the localizers alone,
    // over the first CHECK_STEPS rounds of pass 0.
    let head = |results: &[StepResult]| -> Vec<StepResult> {
        let mut h: Vec<StepResult> = results
            .iter()
            .filter(|r| r.seq < CHECK_STEPS as u64)
            .copied()
            .collect();
        h.sort_by_key(|r| (r.session.0, r.seq));
        h
    };
    let (mut single, _) = set_up(&tapes, 1);
    let one = run_pass(&mut single.engine, &single.ids, &tapes, CHECK_STEPS, false);
    drop(single);
    out.check(
        digest(&head(&one.results)) == digest(&head(&passes[0].results)),
        || "pass 0 differs between 1 and 2 pool threads".into(),
    );
    let mut alone: Vec<Box<dyn Localizer>> = tapes
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let arts = setup
                .engine
                .store()
                .get_or_build(&setup.tracks[t.track].grid, params());
            let mut loc = standalone(i, passes[0].ids[i], &arts);
            loc.reset(t.start);
            loc
        })
        .collect();
    let mut alone_poses: Vec<Vec<Pose2>> = (0..SESSIONS)
        .map(|_| Vec::with_capacity(CHECK_STEPS))
        .collect();
    let mut alone_round_s = Vec::with_capacity(CHECK_STEPS);
    for k in 0..CHECK_STEPS {
        let (_, s) = timed(|| {
            for (i, loc) in alone.iter_mut().enumerate() {
                let (odom, scan) = &tapes[i].steps[k];
                loc.predict(odom);
                alone_poses[i].push(loc.correct(scan));
            }
        });
        alone_round_s.push(s);
    }
    for (i, poses) in alone_poses.iter().enumerate() {
        out.check(passes[0].session(i)[..CHECK_STEPS] == poses[..], || {
            format!("session {i}: engine answers differ from the standalone localizer")
        });
    }

    // Throughput from the median round, so a stall of the host does not
    // move the figure: each round answers one step of every session.
    let rounds_s: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.round_s[1..].iter().copied())
        .collect();
    let round_s = median(&rounds_s);
    let rtf = SESSIONS as f64 * DT / round_s;
    out.e2e("setup_s", setup_t.total, "s");
    out.e2e("peak_rss_mb", rss_mb, "MB");
    out.e2e("rtf", rtf, "sim-s/s");
    out.e2e(
        "synpf_lat_err_cm",
        100.0 * median(&lat_of(Kind::SynPf)),
        "cm",
    );
    out.e2e(
        "carto_lat_err_cm",
        100.0 * median(&lat_of(Kind::Carto)),
        "cm",
    );
    if !args.trace {
        return out;
    }

    let step_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.step_s.iter().map(|s| s * 1e3))
        .collect();
    out.layer("serve_steps_per_s", SESSIONS as f64 / round_s, "1/s");
    out.layer("serve_step_ms_p50", median(&step_ms), "ms");
    out.layer("serve_step_ms_p99", quantile(&step_ms, 0.99), "ms");
    out.layer("map.track_build_s", setup_t.parts[0], "s");
    out.layer("serve.open_session_ms_p50", median(&setup.open_ms), "ms");
    out.layer("range.lut_build_s", setup_t.parts[2], "s");
    let lut_bytes: usize = setup
        .tracks
        .iter()
        .map(|t| {
            setup
                .engine
                .store()
                .get_or_build(&t.grid, params())
                .lut()
                .memory_bytes()
        })
        .sum();
    out.layer("range.lut_bytes", lut_bytes as f64, "bytes");
    out.layer("serve.first_drain_ms", 1e3 * passes[0].round_s[0], "ms");
    out.layer(
        "serve.localizer_ms_per_round",
        1e3 * median(&alone_round_s[1..]),
        "ms",
    );

    // Traced pass: the program's own drain span and pool counters.
    for id in &ids {
        setup
            .engine
            .close_session(*id)
            .expect("the session is open");
    }
    let started = Instant::now();
    let mut traced: Vec<Pass> = Vec::new();
    while traced.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        let ids = open_all(&mut setup.engine, &setup.tracks, &tapes).0;
        traced.push(run_pass(&mut setup.engine, &ids, &tapes, STEPS, true));
        for id in &ids {
            setup
                .engine
                .close_session(*id)
                .expect("the session is open");
        }
    }
    let drain_ms: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.drain_span_s[1..].iter().map(|s| s * 1e3))
        .collect();
    let submit_us: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.submit_s.iter().map(|s| s * 1e6))
        .collect();
    out.layer("serve.submit_us_p50", median(&submit_us), "us");
    out.layer("serve.drain_ms_p50", median(&drain_ms), "ms");
    out.layer("serve.drain_ms_p99", quantile(&drain_ms, 0.99), "ms");
    let jobs: u64 = traced.iter().map(|p| p.jobs).sum();
    out.layer(
        "par.pool_jobs_per_drain",
        jobs as f64 / (traced.len() * STEPS) as f64,
        "count",
    );
    let traced_rounds: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.round_s[1..].iter().copied())
        .collect();
    out.layer(
        "obs.trace_overhead_pct",
        100.0 * (median(&traced_rounds) / round_s - 1.0),
        "%",
    );
    out
}
