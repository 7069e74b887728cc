//! The four workloads, each driven through the layers' public functions.
//!
//! A run replays one or more scenes, one after the other. Scene `j` of a
//! run with seed `s` is built from seed `s + j·0x9e3779b97f4a7c15`, so the
//! first scene is the seed's own. Averaging over several scenes keeps
//! the per-seed spread of the scene-dependent metrics (host traffic,
//! simulated cycles, memory) within a third of their bounds.
//!
//! For each scene the run sets up, then runs timed passes until its share
//! of the run's seconds is spent. The very first pass of a run is a
//! warm-up and is not timed. `setup_s` is measured apart, in processes of
//! their own that each set up one scene (see [`Ctx::setup_only`]). A pass
//! replays the whole quick-scale animation (24 frames) on a freshly built
//! engine or service, so every pass of a scene must yield identical
//! totals: one of the checks.

use crate::checks::{
    exact_prediction_matches, identical_passes, lru_monotone, matches_oracle, oracle_frames,
    solo_matches, timing_consistent,
};
use crate::clock::{peak_rss_mb, process_cpu_ns, thread_cpu_ns, Elapsed, Mark, Speed};
use crate::report::{median, Report};
use crate::spans::{self_times, within, Tracer};
use mltc_cache::ClockStats;
use mltc_core::{
    ClientEngine, EngineConfig, FrameCounters, FramePrep, L1Config, L2Config, L2PartitionMode,
    LatencyModel, PreparedFrame, SimEngine, TelemetryOpts, TextureService, TimingCounters,
};
use mltc_model::{default_grid, predict, DesignPoint, Prediction};
use mltc_oracle::NaiveTiming;
use mltc_scene::{Workload, WorkloadParams};
use mltc_telemetry::Recorder;
use mltc_texture::TextureRegistry;
use mltc_trace::codec::{encode_frame, frame_cursor, FrameCursor};
use mltc_trace::{FilterMode, FrameTrace, PixelRequest};
use std::borrow::Cow;
use std::fmt::Debug;
use std::time::Instant;

/// The seed of scene `j` of a run with seed `seed`.
pub fn scene_seed(seed: u64, j: u64) -> u64 {
    seed.wrapping_add(j.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Names accepted by `--workload`.
pub const WORKLOADS: &[&str] = &[
    "village_hit",
    "city_evict_timed",
    "service_2c",
    "village_explore",
];

const FILTER: FilterMode = FilterMode::Trilinear;

/// What one pass measured.
struct Pass<T> {
    elapsed: Elapsed,
    taps: u64,
    /// Requests decoded frame by frame during the pass.
    decoded: u64,
    totals: T,
}

/// One run: its seed, its length, its tracer and what it reports.
pub struct Ctx {
    seed: u64,
    seconds: f64,
    /// Set up the seed's own scene only, then stop: [`Ctx::setup`] holds
    /// the process's on-CPU time from its start to the end of that set-up.
    pub setup_only: bool,
    /// Scaled on-CPU and wall time from the process's start to the end of
    /// its set-up (set in `setup_only` runs).
    pub setup: Option<Elapsed>,
    /// Wall-clock start of the process.
    started: Instant,
    /// Span recorder of the main thread.
    pub tr: Tracer,
    /// What the run measured and checked.
    pub report: Report,
    /// Scenes set up.
    setups: u64,
    /// Per timed pass: scaled on-CPU rate, raw on-CPU rate, wall rate,
    /// speed factor.
    rates: Vec<[f64; 4]>,
    /// Over every pass, warm-up included: taps, raw on-CPU seconds,
    /// requests decoded.
    pass_taps: u64,
    pass_cpu_s: f64,
    decoded: u64,
    /// One pass of each scene, summed over scenes.
    frames: u64,
    counters: FrameCounters,
    clock: ClockStats,
    timing: Timing,
    /// Rasterized fragments and requests, encoded bytes and animation
    /// frames, summed over scenes.
    raster: [u64; 4],
    /// Frames the timing counters cover.
    cycle_frames: u64,
    /// Taps of one reference replay of the first scene's streams.
    ref_taps: u64,
    /// Index of the scene being run.
    scene: u64,
}

impl Ctx {
    /// A run of `seconds` of timed passes over the scenes of `seed`, in a
    /// process that started at `started`.
    pub fn new(seed: u64, seconds: f64, setup_only: bool, started: Instant, tr: Tracer) -> Self {
        Self {
            seed,
            seconds,
            setup_only,
            setup: None,
            started,
            tr,
            report: Report::default(),
            setups: 0,
            rates: Vec::new(),
            pass_taps: 0,
            pass_cpu_s: 0.0,
            decoded: 0,
            frames: 0,
            counters: FrameCounters::default(),
            clock: ClockStats::default(),
            timing: Timing::default(),
            raster: [0; 4],
            cycle_frames: 0,
            ref_taps: 0,
            scene: 0,
        }
    }

    /// Records a check of the current scene.
    fn check(&mut self, name: &str, verdict: crate::checks::Verdict) {
        self.report
            .check(format!("scene{}.{name}", self.scene), verdict);
    }

    /// Drives `scenes` rounds of set-up → timed passes → `finish`, or in
    /// a `setup_only` run the seed's own set-up alone. `pass` ticks the
    /// speed probe after every frame; `finish` gets the scene's state and
    /// the totals of its passes after the identity check, to tally, replay
    /// references and check outputs.
    fn rounds<S, T: PartialEq + Debug>(
        &mut self,
        scenes: usize,
        frames_per_pass: u64,
        mut setup: impl FnMut(&mut Tracer, &mut Speed, u64) -> S,
        mut pass: impl FnMut(&mut S, &mut Tracer, &mut Speed) -> Pass<T>,
        mut finish: impl FnMut(&mut Ctx, S, &[T]),
    ) {
        if self.setup_only {
            let mut speed = Speed::default();
            let state = setup(&mut self.tr, &mut speed, self.seed);
            speed.tick();
            self.setup = Some(speed.scale(Elapsed {
                cpu_s: process_cpu_ns() as f64 * 1e-9,
                wall_s: self.started.elapsed().as_secs_f64(),
            }));
            drop(state);
            return;
        }
        let min_passes = if scenes == 1 { 3 } else { 2 };
        let scene_s = self.seconds / scenes as f64;
        let mut speed = Speed::default();
        for j in 0..scenes as u64 {
            self.scene = j;
            let seed = scene_seed(self.seed, j);
            self.tr.open("setup", None);
            let mut state = setup(&mut self.tr, &mut speed, seed);
            self.tr.close();
            self.setups += 1;
            let mut totals = Vec::new();
            let mut start = Instant::now();
            let mut timed = 0;
            loop {
                speed.restart();
                let p = pass(&mut state, &mut self.tr, &mut speed);
                let cpu_s = p.elapsed.cpu_s - speed.cal_s();
                self.report.attempted += frames_per_pass;
                self.pass_taps += p.taps;
                self.pass_cpu_s += cpu_s;
                self.decoded += p.decoded;
                totals.push(p.totals);
                if j == 0 && totals.len() == 1 {
                    start = Instant::now();
                    continue;
                }
                let e = speed.scale(p.elapsed);
                let taps = p.taps as f64 / 1e6;
                self.rates.push([
                    taps / e.cpu_s,
                    taps / cpu_s,
                    taps / e.wall_s,
                    speed.factor(),
                ]);
                timed += 1;
                if timed >= min_passes && start.elapsed().as_secs_f64() >= scene_s {
                    break;
                }
            }
            self.check("passes_identical", identical_passes(&totals));
            finish(self, state, &totals);
        }

        let col = |v: &[[f64; 4]], i: usize| median(&v.iter().map(|r| r[i]).collect::<Vec<_>>());
        let r = &mut self.report;
        r.end_to_end
            .push(("replay_mtaps_s", col(&self.rates, 0), "Mtaps/s"));
        r.reference
            .push(("replay_mtaps_s_cpu", col(&self.rates, 1), "Mtaps/s"));
        r.reference
            .push(("replay_mtaps_s_wall", col(&self.rates, 2), "Mtaps/s"));
        r.reference
            .push(("speed_factor", col(&self.rates, 3), "ratio"));
        r.reference
            .push(("timed_passes", self.rates.len() as f64, "count"));
        if self.tr.is_on() {
            r.layer("traced.replay_mtaps_s", col(&self.rates, 0));
        }
    }

    /// Adds a scene's rasterizer and codec counts to the tallies.
    fn tally_scene(&mut self, scene: &Scene) {
        let counts = [
            scene.fragments,
            scene.requests,
            scene.encoded.len() as u64,
            scene.frames,
        ];
        for (a, b) in self.raster.iter_mut().zip(counts) {
            *a += b;
        }
    }

    /// Adds one pass of a scene to the per-scene tallies.
    fn tally(&mut self, c: &FrameCounters, frames: u64, clock: Option<ClockStats>) {
        self.frames += frames;
        self.counters.merge(c);
        if let Some(k) = clock {
            self.clock = sum_clock(self.clock, k);
        }
    }

    /// On the first scene only: timing-overlay replays of `streams` at
    /// [`LatencyModel::default`] (for the simulated cycles, which spread
    /// little across scenes), then, traced, the same frames through the
    /// scalar and the traced untimed entry points as references.
    fn reference_replays(&mut self, registry: &TextureRegistry, streams: &[Stream]) {
        if self.scene > 0 {
            return;
        }
        for s in streams {
            let e = self
                .tr
                .span("timing.replay", None, || s.replay(registry, Path::Timed));
            self.timing.add(&e);
            self.cycle_frames += s.frames.count();
            self.ref_taps += e.totals().l1_accesses;
            self.report.attempted += s.frames.count();
        }
        if self.tr.is_on() {
            for s in streams {
                self.tr
                    .span("engine.scalar", None, || s.replay(registry, Path::Scalar));
                self.tr
                    .span("engine.traced", None, || s.replay(registry, Path::Traced));
                self.report.attempted += 2 * s.frames.count();
            }
        }
    }

    /// Reports the end-to-end metrics tallied over the scenes.
    fn outcome(&mut self) {
        let frames = self.frames as f64;
        let r = &mut self.report;
        r.end_to_end.push(("peak_rss_mb", peak_rss_mb(), "MB"));
        let kb = self.counters.host_bytes as f64 / frames / 1024.0;
        r.end_to_end.push(("host_kb_per_frame", kb, "KB"));
        let cycles = self.timing.t.cycles_total as f64 / self.cycle_frames as f64;
        r.end_to_end
            .push(("sim_cycles_per_frame", cycles, "cycles"));
        if !self.tr.is_on() {
            return;
        }
        counter_layers(r, &self.counters, self.clock);
        self.timing.layers(r);
        let [fragments, requests, bytes, scene_frames] = self.raster;
        r.layer("raster.fragments", fragments as f64);
        r.layer("raster.requests", requests as f64);
        r.layer("codec.bytes_per_frame", bytes as f64 / scene_frames as f64);
        self.span_layers();
    }

    /// Per-layer figures read off the spans: each layer's on-CPU self
    /// time per unit of its work, and the share of the passes' on-CPU
    /// time the layer calls cover.
    fn span_layers(&mut self) {
        let spans = self.tr.spans();
        let st = self_times(spans);
        let self_ns = |name: &str| st.get(name).map_or(0.0, |v| v.0 as f64);
        let per = |name: &str, n: u64| {
            if n == 0 {
                0.0
            } else {
                self_ns(name) / n as f64
            }
        };
        let setups = self.setups as f64;
        let taps = self.pass_taps;
        let leaf: f64 = spans
            .iter()
            .enumerate()
            .filter(|(i, s)| {
                !["pass", "frame", "client"].contains(&s.name) && within(spans, *i, "pass")
            })
            .map(|(_, s)| s.cpu_ns() as f64)
            .sum();
        // The overlay's cost: the timed replay against the untimed traced
        // replay of the same frames (City's passes are the timed replay).
        let timed = if st.contains_key("timing.replay") {
            per("timing.replay", self.ref_taps)
        } else {
            per("engine.replay", taps)
        };
        let points = self
            .report
            .layers
            .get("model.grid_points")
            .copied()
            .unwrap_or(0.0);
        let layers = [
            ("raster.render_s", self_ns("raster.render") * 1e-9 / setups),
            ("codec.encode_s", self_ns("codec.encode") * 1e-9 / setups),
            (
                "codec.decode_ns_per_request",
                per("codec.decode", self.decoded),
            ),
            ("prep.ns_per_tap", per("prep.prepare", taps)),
            ("engine.ns_per_tap", per("engine.replay", taps)),
            (
                "engine.scalar_ns_per_tap",
                per("engine.scalar", self.ref_taps),
            ),
            (
                "engine.traced_ns_per_tap",
                per("engine.traced", self.ref_taps),
            ),
            (
                "timing.overlay_ns_per_tap",
                timed - per("engine.traced", self.ref_taps),
            ),
            ("service.ns_per_tap", per("service.run_frame", taps)),
            ("model.finalize_ms", self_ns("model.finalize") * 1e-6),
            (
                "model.predict_us_per_point",
                per("model.predict", points as u64) * 1e-3,
            ),
            ("traced.self_time_share", leaf * 1e-9 / self.pass_cpu_s),
        ];
        for (name, v) in layers {
            self.report.layer(name, v);
        }
    }
}

/// A rendered, encoded animation.
pub struct Scene {
    workload: Workload,
    encoded: Vec<u8>,
    frames: u64,
    requests: u64,
    fragments: u64,
}

impl Scene {
    /// Builds the quick-scale Village (or City) of `seed`, rasterizes its
    /// 24 frames and encodes them into one buffer.
    fn build(city: bool, seed: u64, tr: &mut Tracer, speed: &mut Speed) -> Self {
        let params = WorkloadParams {
            seed,
            ..WorkloadParams::quick()
        };
        let workload = tr.span("scene.build", None, || {
            if city {
                Workload::city(&params)
            } else {
                Workload::village(&params)
            }
        });
        let (mut encoded, mut frames, mut requests, mut fragments) = (Vec::new(), 0, 0, 0);
        tr.open("raster.render", None);
        workload.render_animation(FilterMode::Point, false, |t| {
            let id = tr.next_frame_id();
            tr.span("codec.encode", id, || {
                encoded.extend_from_slice(&encode_frame(&t))
            });
            frames += 1;
            requests += t.requests.len() as u64;
            fragments += t.pixels_rendered;
            speed.tick();
        });
        tr.close();
        Self {
            workload,
            encoded,
            frames,
            requests,
            fragments,
        }
    }

    fn registry(&self) -> &TextureRegistry {
        self.workload.registry()
    }

    /// The animation as a replay source, decoded a frame at a time.
    fn frames(&self) -> Frames<'_> {
        Frames::Encoded(&self.encoded, self.frames)
    }
}

/// Decodes the header of the next frame in `rest` and advances past it.
fn next_frame<'a>(rest: &mut &'a [u8]) -> FrameCursor<'a> {
    let (cursor, tail) = frame_cursor(rest).expect("the scene's own encoding decodes");
    *rest = tail;
    cursor
}

/// Decodes the next frame's requests into `reqs`.
fn decode(rest: &mut &[u8], reqs: &mut Vec<PixelRequest>) {
    let cursor = next_frame(rest);
    reqs.clear();
    reqs.extend(cursor.requests());
}

/// Frames a reference replay or a check reads.
#[derive(Clone, Copy)]
enum Frames<'a> {
    /// An encoded animation of `n` frames, decoded one frame at a time.
    Encoded(&'a [u8], u64),
    /// Decoded frames, starting at a phase offset and wrapping.
    Rotated(&'a [FrameTrace], usize),
}

impl<'a> Frames<'a> {
    fn count(&self) -> u64 {
        match self {
            Frames::Encoded(_, n) => *n,
            Frames::Rotated(t, _) => t.len() as u64,
        }
    }

    fn iter(self) -> Box<dyn Iterator<Item = Cow<'a, FrameTrace>> + 'a> {
        match self {
            Frames::Encoded(mut rest, n) => {
                Box::new((0..n).map(move |_| Cow::Owned(next_frame(&mut rest).into_frame())))
            }
            Frames::Rotated(t, off) => {
                Box::new((0..t.len()).map(move |s| Cow::Borrowed(&t[(s + off) % t.len()])))
            }
        }
    }
}

/// Which public entry point a reference replay goes through.
#[derive(Debug, Clone, Copy)]
enum Path {
    /// `try_run_frame_as_batched`: the wide kernel.
    Batched,
    /// `try_run_frame_as`: the monomorphized scalar loop.
    Scalar,
    /// `try_run_frame_as_traced`: the canonical per-tap body.
    Traced,
    /// `try_run_frame_as` with the timing overlay at the default model.
    Timed,
}

/// A stream of frames replayed under one engine configuration.
#[derive(Clone, Copy)]
struct Stream<'a> {
    cfg: EngineConfig,
    frames: Frames<'a>,
    filter: FilterMode,
}

impl Stream<'_> {
    fn replay(&self, registry: &TextureRegistry, path: Path) -> SimEngine {
        let mut e = SimEngine::try_new(self.cfg, registry).expect("valid config");
        if let Path::Timed = path {
            e.attach_timing(LatencyModel::default());
        }
        for f in self.frames.iter() {
            match path {
                Path::Batched => e.try_run_frame_as_batched(&f, self.filter),
                Path::Scalar | Path::Timed => e.try_run_frame_as(&f, self.filter),
                Path::Traced => e.try_run_frame_as_traced(&f, self.filter),
            }
            .expect("replay of the scene's own frames");
        }
        e
    }
}

/// Timing-overlay figures summed over engines.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Timing {
    t: TimingCounters,
    peaks: (usize, usize, usize),
}

impl Timing {
    fn of(e: &SimEngine) -> Self {
        let mut t = Self::default();
        t.add(e);
        t
    }

    fn add(&mut self, e: &SimEngine) {
        let sim = e.timing().expect("timing attached");
        self.merge(&Timing {
            t: *sim.totals(),
            peaks: sim.peak_occupancy(),
        });
    }

    fn merge(&mut self, o: &Timing) {
        let (a, b) = (&mut self.t, &o.t);
        a.cycles_total += b.cycles_total;
        a.stall_cycles += b.stall_cycles;
        a.issue_stall_cycles += b.issue_stall_cycles;
        a.taps += b.taps;
        a.fragments += b.fragments;
        a.link_bytes += b.link_bytes;
        a.link_busy_cycles += b.link_busy_cycles;
        a.prefetch_useful += b.prefetch_useful;
        a.prefetch_late += b.prefetch_late;
        a.prefetch_useless += b.prefetch_useless;
        let (p, q) = (self.peaks, o.peaks);
        self.peaks = (p.0.max(q.0), p.1.max(q.1), p.2.max(q.2));
    }

    fn layers(&self, r: &mut Report) {
        let t = &self.t;
        for (name, v) in [
            ("timing.cycles", t.cycles_total),
            ("timing.stall_cycles", t.stall_cycles),
            ("timing.issue_stall_cycles", t.issue_stall_cycles),
            ("timing.link_busy_cycles", t.link_busy_cycles),
            ("timing.mshr_peak.l1", self.peaks.0 as u64),
            ("timing.mshr_peak.l2", self.peaks.1 as u64),
            ("timing.mshr_peak.fill", self.peaks.2 as u64),
            ("timing.prefetch.useful", t.prefetch_useful),
            ("timing.prefetch.late", t.prefetch_late),
            ("timing.prefetch.useless", t.prefetch_useless),
        ] {
            r.layer(name, v as f64);
        }
    }
}

/// Cache-hierarchy counters of one pass per scene.
fn counter_layers(r: &mut Report, c: &FrameCounters, clock: ClockStats) {
    let misses = c.l1_accesses - c.l1_hits;
    for (name, v) in [
        ("l1.accesses", c.l1_accesses),
        ("l1.hits", c.l1_hits),
        ("l1.misses", misses),
        ("l2.accesses", c.l2_accesses()),
        ("l2.full_hits", c.l2_full_hits),
        ("l2.partial_hits", c.l2_partial_hits),
        ("l2.misses", c.l2_full_misses),
        ("l2.clock_searches", clock.searches),
        ("l2.clock_entries_examined", clock.entries_examined),
        ("l2.clock_max_search", clock.max_search),
        ("tlb.hits", c.tlb_hits),
        ("tlb.misses", c.tlb_accesses - c.tlb_hits),
        // One download per L1 miss the L2 could not serve whole.
        ("host.transfers", misses - c.l2_full_hits),
        ("host.bytes", c.host_bytes),
        ("service.degraded_taps", c.degraded_taps),
    ] {
        r.layer(name, v as f64);
    }
}

fn sum_clock(a: ClockStats, b: ClockStats) -> ClockStats {
    ClockStats {
        searches: a.searches + b.searches,
        entries_examined: a.entries_examined + b.entries_examined,
        max_search: a.max_search.max(b.max_search),
    }
}

/// Runs `name`, filling `ctx.report`.
///
/// # Panics
///
/// On an unknown workload name (the caller validates it).
pub fn run(name: &str, ctx: &mut Ctx) {
    match name {
        "village_hit" => village_hit(ctx),
        "city_evict_timed" => city_evict_timed(ctx),
        "service_2c" => service_2c(ctx),
        "village_explore" => village_explore(ctx),
        other => panic!("unknown workload {other}"),
    }
    if !ctx.setup_only {
        ctx.outcome();
    }
}

/// Per-scene state of the single-engine workloads: the scene, the engine
/// built at set-up (used by the first pass), the last pass's engine and
/// the reused decode buffer.
struct EngineScene<E> {
    scene: Scene,
    spare: Option<E>,
    last: Option<E>,
    reqs: Vec<PixelRequest>,
}

impl<E> EngineScene<E> {
    fn new(scene: Scene, engine: E) -> Self {
        Self {
            scene,
            spare: Some(engine),
            last: None,
            reqs: Vec::new(),
        }
    }

    /// One pass over the scene on the set-up's engine (first pass) or a
    /// fresh one from `new`: each frame is decoded into the reused buffer
    /// and handed to `replay`; `totals` reads the taps and totals off the
    /// engine, which is kept for `finish`.
    fn pass<T>(
        &mut self,
        tr: &mut Tracer,
        speed: &mut Speed,
        new: impl FnOnce(&TextureRegistry) -> E,
        mut replay: impl FnMut(&mut E, &mut Tracer, Option<u64>, &[PixelRequest]),
        totals: impl FnOnce(&E) -> (u64, T),
    ) -> Pass<T> {
        let mut e = self
            .spare
            .take()
            .unwrap_or_else(|| new(self.scene.registry()));
        let mut rest = &self.scene.encoded[..];
        tr.open("pass", None);
        let m = Mark::now();
        for _ in 0..self.scene.frames {
            let id = tr.next_frame_id();
            tr.open("frame", id);
            tr.span("codec.decode", id, || decode(&mut rest, &mut self.reqs));
            replay(&mut e, tr, id, &self.reqs);
            tr.close();
            speed.tick();
        }
        let elapsed = m.elapsed();
        tr.close();
        let (taps, totals) = totals(&e);
        self.last = Some(e);
        Pass {
            elapsed,
            taps,
            decoded: self.scene.requests,
            totals,
        }
    }
}

/// Replays one decoded frame through `try_run_frame_requests`.
fn replay_requests(e: &mut SimEngine, tr: &mut Tracer, id: Option<u64>, reqs: &[PixelRequest]) {
    tr.span("engine.replay", id, || {
        e.try_run_frame_requests(FILTER, reqs.iter().copied())
    })
    .expect("replay of the scene's own frames");
}

/// Village through decode → `FramePrep::prepare` →
/// `try_run_frame_prepared` on a 2 KB L1 + 2 MB clock L2 + 16-entry TLB;
/// four scenes a run.
fn village_hit(ctx: &mut Ctx) {
    let cfg = EngineConfig {
        l1: L1Config::kb(2),
        l2: Some(L2Config::mb(2)),
        tlb_entries: 16,
        ..EngineConfig::default()
    };
    let mut prepared = PreparedFrame::default();
    ctx.rounds(
        4,
        24,
        |tr, speed, seed| {
            let scene = Scene::build(false, seed, tr, speed);
            let prep = FramePrep::new(&cfg, scene.registry());
            let engine = tr.span("engine.new", None, || {
                SimEngine::try_new(cfg, scene.registry())
            });
            (EngineScene::new(scene, engine.expect("valid config")), prep)
        },
        |(st, prep), tr, speed| {
            st.pass(
                tr,
                speed,
                |registry| SimEngine::try_new(cfg, registry).expect("valid config"),
                |e, tr, id, reqs| {
                    let requests = reqs.iter().copied();
                    tr.span("prep.prepare", id, || {
                        prep.prepare(FILTER, requests, &mut prepared)
                    });
                    tr.span("engine.replay", id, || e.try_run_frame_prepared(&prepared))
                        .expect("replay of the scene's own frames");
                },
                |e| (e.totals().l1_accesses, e.totals()),
            )
        },
        |ctx, (st, _), totals| {
            let (scene, e) = (&st.scene, st.last.expect("at least one pass"));
            ctx.tally(&totals[0], scene.frames, e.l2().map(|l2| l2.clock_stats()));
            let stream = Stream {
                cfg,
                frames: scene.frames(),
                filter: FILTER,
            };
            ctx.reference_replays(scene.registry(), &[stream]);
            ctx.tally_scene(scene);
            if ctx.tr.is_on() {
                ctx.report
                    .add_layer("prep.taps", totals[0].l1_accesses as f64);
            }
            let oracle = oracle_frames(cfg, scene.registry(), scene.frames().iter(), FILTER, None);
            ctx.check("oracle_matches_engine", matches_oracle(e.frames(), &oracle));
        },
    );
}

/// City through decode → `try_run_frame_requests` with the timing overlay
/// attached, on a 2 KB L1 + 128 KB clock L2 + 16-entry TLB; two scenes a
/// run.
fn city_evict_timed(ctx: &mut Ctx) {
    let cfg = EngineConfig {
        l1: L1Config::kb(2),
        l2: Some(L2Config {
            size_bytes: 128 << 10,
            ..L2Config::mb(1)
        }),
        tlb_entries: 16,
        ..EngineConfig::default()
    };
    let timed_engine = |registry: &TextureRegistry| {
        let mut e = SimEngine::try_new(cfg, registry).expect("valid config");
        e.attach_timing(LatencyModel::default());
        e
    };
    ctx.rounds(
        2,
        24,
        |tr, speed, seed| {
            let scene = Scene::build(true, seed, tr, speed);
            let engine = tr.span("engine.new", None, || timed_engine(scene.registry()));
            EngineScene::new(scene, engine)
        },
        |st, tr, speed| {
            st.pass(tr, speed, timed_engine, replay_requests, |e| {
                (e.totals().l1_accesses, (e.totals(), Timing::of(e)))
            })
        },
        |ctx, st, totals| {
            let (scene, e) = (&st.scene, st.last.expect("at least one pass"));
            let (counters, timing) = totals[0];
            ctx.tally(&counters, scene.frames, e.l2().map(|l2| l2.clock_stats()));
            ctx.timing.merge(&timing);
            ctx.cycle_frames += scene.frames;
            let stream = Stream {
                cfg,
                frames: scene.frames(),
                filter: FILTER,
            };
            ctx.tally_scene(scene);
            if ctx.tr.is_on() && ctx.scene == 0 {
                for (name, path) in [
                    ("engine.scalar", Path::Scalar),
                    ("engine.traced", Path::Traced),
                ] {
                    ctx.tr
                        .span(name, None, || stream.replay(scene.registry(), path));
                    ctx.report.attempted += scene.frames;
                }
                ctx.ref_taps += counters.l1_accesses;
            }
            let untimed = stream.replay(scene.registry(), Path::Batched);
            let mut naive = NaiveTiming::new(LatencyModel::default());
            let oracle = oracle_frames(
                cfg,
                scene.registry(),
                scene.frames().iter(),
                FILTER,
                Some(&mut naive),
            );
            ctx.check("oracle_matches_engine", matches_oracle(e.frames(), &oracle));
            let fragments = scene.requests;
            ctx.check(
                "timing_consistent",
                timing_consistent(
                    untimed.frames(),
                    e.frames(),
                    &timing.t,
                    fragments,
                    naive.cycles(),
                ),
            );
        },
    );
}

/// The two service clients: filter and phase offset into the animation.
const CLIENTS: [(FilterMode, usize); 2] = [(FilterMode::Bilinear, 0), (FilterMode::Trilinear, 12)];

/// Per-scene state of `service_2c`.
struct ServiceScene {
    scene: Scene,
    traces: Vec<FrameTrace>,
    spare: Option<TextureService>,
    last: Option<(TextureService, Vec<ClientEngine>)>,
}

/// Two clients of a partitioned `TextureService` replaying phase-offset
/// Village streams through `ClientEngine::run_frame`, one thread each;
/// four scenes a run.
fn service_2c(ctx: &mut Ctx) {
    let svc_cfg = mltc_experiments::experiment_service_config(L2PartitionMode::Partitioned);
    let new_service = |registry: &TextureRegistry| {
        TextureService::try_new(svc_cfg, registry, CLIENTS.len() as u32).expect("valid service")
    };
    let mut wait_s = 0.0;
    let mut frame_cpu_ms = Vec::new();
    ctx.rounds(
        4,
        24 * CLIENTS.len() as u64,
        |tr, speed, seed| {
            let scene = Scene::build(false, seed, tr, speed);
            let traces = tr.span("codec.decode_all", None, || {
                scene.frames().iter().map(Cow::into_owned).collect()
            });
            let service = tr.span("service.new", None, || new_service(scene.registry()));
            ServiceScene {
                scene,
                traces,
                spare: Some(service),
                last: None,
            }
        },
        |st, tr, speed| {
            let svc = st
                .spare
                .take()
                .unwrap_or_else(|| new_service(st.scene.registry()));
            let mut clients: Vec<ClientEngine> = (0..CLIENTS.len() as u32)
                .map(|i| svc.client(i).expect("client id within the population"))
                .collect();
            let (shared, traces) = (svc.shared_l2(), &st.traces);
            tr.open("pass", None);
            let m = Mark::now();
            // Client 0 runs on this thread, client 1 on one more.
            let drive =
                |client: &mut ClientEngine, (filter, off): (FilterMode, usize), mut t: Tracer| {
                    let (wall, cpu) = (Instant::now(), thread_cpu_ns());
                    let mut speed = Speed::default();
                    t.open("client", None);
                    for step in 0..traces.len() {
                        let f = &traces[(step + off) % traces.len()];
                        let id = t.next_frame_id();
                        t.span("service.run_frame", id, || {
                            client.run_frame(shared, f, filter)
                        })
                        .expect("client runs its frame");
                        speed.tick();
                    }
                    t.close();
                    let cpu_s = (thread_cpu_ns() - cpu) as f64 * 1e-9;
                    (t, speed, wall.elapsed().as_secs_f64() - cpu_s)
                };
            let [first, second] = &mut clients[..] else {
                unreachable!("the service has two clients")
            };
            let (t1, t2) = (tr.fork(1), tr.fork(2));
            let workers = std::thread::scope(|s| {
                let other = s.spawn(|| drive(second, CLIENTS[1], t2));
                let mine = drive(first, CLIENTS[0], t1);
                [mine, other.join().expect("client thread panicked")]
            });
            let elapsed = m.elapsed();
            for (t, worker_speed, wait) in workers {
                speed.absorb(&worker_speed);
                wait_s += wait;
                frame_cpu_ms.extend(
                    t.spans()
                        .iter()
                        .filter(|s| s.name == "service.run_frame")
                        .map(|s| s.cpu_ns() as f64 * 1e-6),
                );
                tr.absorb(t);
            }
            tr.close();
            let totals: Vec<FrameCounters> = clients.iter().map(ClientEngine::totals).collect();
            st.last = Some((svc, clients));
            Pass {
                elapsed,
                taps: totals.iter().map(|c| c.l1_accesses).sum(),
                decoded: 0,
                totals,
            }
        },
        |ctx, st, totals| {
            let (svc, clients) = st.last.expect("at least one pass");
            let shared = svc.shared_l2();
            let clock = (0..CLIENTS.len() as u32)
                .filter_map(|i| shared.lock_for(i).map(|l2| l2.clock_stats()))
                .reduce(sum_clock);
            let mut pass_sum = FrameCounters::default();
            for c in &totals[0] {
                pass_sum.merge(c);
            }
            ctx.tally(&pass_sum, st.scene.frames * CLIENTS.len() as u64, clock);
            let streams: Vec<Stream> = CLIENTS
                .iter()
                .enumerate()
                .map(|(i, &(filter, off))| Stream {
                    cfg: svc.solo_config(i as u32),
                    frames: Frames::Rotated(&st.traces, off),
                    filter,
                })
                .collect();
            ctx.reference_replays(st.scene.registry(), &streams);
            ctx.tally_scene(&st.scene);
            if ctx.tr.is_on() {
                let r = &mut ctx.report;
                r.add_layer(
                    "service.l2_lock_stalls",
                    shared.contention().contended as f64,
                );
                let shed: u64 = clients.iter().map(|c| c.service_stats().shed_taps).sum();
                r.add_layer("service.shed_taps", shed as f64);
            }
            for (i, (client, stream)) in clients.iter().zip(&streams).enumerate() {
                let solo = stream.replay(st.scene.registry(), Path::Batched);
                ctx.check(
                    &format!("client{i}_matches_solo"),
                    solo_matches(
                        client.frames(),
                        solo.frames(),
                        &client.service_stats(),
                        client.quarantined().is_some(),
                    ),
                );
            }
        },
    );
    if ctx.tr.is_on() {
        ctx.report
            .layer("service.frame_ms_p50", median(&frame_cpu_ms));
        ctx.report.layer("service.wait_s", wait_s);
    }
}

/// The explorer's instrumented configuration with telemetry, attribution
/// and locality capture attached, recording into a fresh recorder.
fn capture_engine(registry: &TextureRegistry) -> (SimEngine, Recorder) {
    let rec = Recorder::enabled();
    let mut e = SimEngine::try_new(mltc_experiments::instrumented_config(), registry)
        .expect("valid config");
    e.attach_telemetry_opts(
        &rec,
        "perfbench/explore",
        "explore",
        TelemetryOpts {
            attribution: true,
            locality: true,
        },
    );
    (e, rec)
}

/// Conformance-matrix configurations the explorer's exact points are
/// checked against: pull, LRU, clock and an evicting FIFO.
const EXPLORE_CHECKED: &[&str] = &[
    "l2=off tlb=8",
    "l2=1MB policy=lru tlb=8",
    "l2=4MB policy=clock tlb=0",
    "l2=64KB policy=fifo tlb=8 (eviction stress)",
];

/// Village at the explorer's capture configuration (2 KB L1, no L2) with
/// telemetry, attribution and locality capture on; after the passes the
/// profile is finalized and the default design grid predicted from it.
/// One scene a run: a capture pass costs about ten Village passes.
fn village_explore(ctx: &mut Ctx) {
    ctx.rounds(
        1,
        24,
        |tr, speed, seed| {
            let scene = Scene::build(false, seed, tr, speed);
            let engine = tr.span("engine.new", None, || capture_engine(scene.registry()));
            EngineScene::new(scene, engine)
        },
        |st, tr, speed| {
            st.pass(
                tr,
                speed,
                capture_engine,
                |(e, _), tr, id, reqs| replay_requests(e, tr, id, reqs),
                |(e, _)| (e.totals().l1_accesses, e.totals()),
            )
        },
        |ctx, st, totals| {
            let (scene, (e, rec)) = (&st.scene, st.last.expect("at least one pass"));
            let profile = ctx.tr.span("model.finalize", None, || {
                e.locality_profile().expect("locality capture attached")
            });
            let grid = default_grid(&profile);
            let predictions: Vec<(DesignPoint, Prediction)> =
                ctx.tr.span("model.predict", None, || {
                    grid.iter()
                        .map(|p| {
                            (
                                *p,
                                predict(&profile, p).expect("grid is built from captured shifts"),
                            )
                        })
                        .collect()
                });
            ctx.tally(&totals[0], scene.frames, None);
            let stream = Stream {
                cfg: mltc_experiments::instrumented_config(),
                frames: scene.frames(),
                filter: FILTER,
            };
            ctx.reference_replays(scene.registry(), &[stream]);

            // The exact points must equal their replays; every checked
            // point adds its hit-rate errors to the model's mean error.
            let matrix = mltc_experiments::conformance_matrix();
            let mut errs = Vec::new();
            for label in EXPLORE_CHECKED {
                let (_, cfg) = matrix
                    .iter()
                    .find(|(l, _)| l == label)
                    .expect("label names a conformance-matrix configuration");
                let sim = Stream {
                    cfg: *cfg,
                    ..stream
                }
                .replay(scene.registry(), Path::Batched)
                .totals();
                let pred = predict(&profile, &mltc_experiments::design_point_for(cfg))
                    .expect("matrix page shift is captured");
                let rate = |n: u64, d: u64| n as f64 / d.max(1) as f64;
                errs.push((rate(sim.l1_hits, sim.l1_accesses) - pred.l1_hit_rate()).abs());
                if let Some(l2) = pred.l2 {
                    let acc = sim.l2_accesses();
                    errs.push((rate(sim.l2_full_hits, acc) - l2.full_hit_rate()).abs());
                    errs.push((rate(sim.l2_partial_hits, acc) - l2.partial_hit_rate()).abs());
                }
                if let Some(tlb) = pred.tlb_hit_rate {
                    errs.push((rate(sim.tlb_hits, sim.tlb_accesses) - tlb).abs());
                }
                let verdict = if pred.exact {
                    exact_prediction_matches(&sim, &pred)
                } else {
                    Err("prediction not exact on a conformance rung".into())
                };
                ctx.check(&format!("exact_point[{label}]"), verdict);
            }
            ctx.check("lru_miss_ratio_monotone", lru_monotone(&predictions));

            ctx.tally_scene(scene);
            if ctx.tr.is_on() {
                let snap = rec.snapshot();
                let r = &mut ctx.report;
                for (name, class) in [
                    ("attrib.compulsory", "compulsory"),
                    ("attrib.capacity", "capacity"),
                    ("attrib.conflict", "conflict"),
                ] {
                    let n: u64 = ["l1", "l2"]
                        .iter()
                        .filter_map(|lvl| {
                            snap.counters.get(&format!("attrib/explore/{lvl}/{class}"))
                        })
                        .sum();
                    r.add_layer(name, n as f64);
                }
                r.add_layer("model.grid_points", grid.len() as f64);
                let exact = predictions.iter().filter(|(_, p)| p.exact).count();
                r.add_layer("model.exact_points", exact as f64);
                let mean = errs.iter().sum::<f64>() / errs.len() as f64;
                r.add_layer("model.mean_abs_err_pp", mean * 100.0);
                // The capture replay against the same frames through the
                // same scalar loop with no telemetry attached.
                let st = self_times(ctx.tr.spans());
                let ns = |name: &str| st.get(name).map_or(0, |v| v.0) as f64;
                let overlay = ns("engine.replay") / ctx.pass_taps as f64
                    - ns("engine.scalar") / ctx.ref_taps as f64;
                ctx.report.layer("telemetry.overlay_ns_per_tap", overlay);
            }
        },
    );
}
