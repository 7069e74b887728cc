//! Correctness checks. Each compares the engine's output against a
//! computation made apart from it (the naive oracle, a solo replay, an
//! untimed replay, the analytic model's exact points) or against a
//! property the method must have. None compares against stored output.
//!
//! The tests at the bottom feed every check a result it must reject.

use mltc_core::{
    AccessTrace, ClientServiceStats, EngineConfig, FrameCounters, L2Outcome, TimingCounters,
};
use mltc_model::{DesignPoint, Prediction};
use mltc_oracle::{expand_frame, NaiveTiming, OracleEngine};
use mltc_texture::{TextureId, TextureRegistry};
use mltc_trace::{FilterMode, FrameTrace};
use std::borrow::Borrow;

/// A check's verdict: `Err` names what disagreed.
pub type Verdict = Result<(), String>;

/// Adds one oracle access to a frame's counters, the way the engine counts.
fn count(tr: &AccessTrace, c: &mut FrameCounters) {
    c.l1_accesses += 1;
    if tr.l1_hit {
        c.l1_hits += 1;
    }
    if let Some(hit) = tr.tlb_hit {
        c.tlb_accesses += 1;
        c.tlb_hits += u64::from(hit);
    }
    match tr.l2 {
        Some(L2Outcome::FullHit) => c.l2_full_hits += 1,
        Some(L2Outcome::PartialHit) => c.l2_partial_hits += 1,
        Some(L2Outcome::FullMiss) => c.l2_full_misses += 1,
        None => {}
    }
    c.host_bytes += tr.host_bytes;
}

/// Replays `frames` tap by tap through the naive oracle; returns its
/// per-frame counters and, when asked, feeds each access to a serial
/// timing reference.
pub fn oracle_frames<F: Borrow<FrameTrace>>(
    cfg: EngineConfig,
    registry: &TextureRegistry,
    frames: impl IntoIterator<Item = F>,
    filter: FilterMode,
    mut naive: Option<&mut NaiveTiming>,
) -> Vec<FrameCounters> {
    let mut oracle = OracleEngine::new(cfg, registry);
    let mut taps = Vec::new();
    frames
        .into_iter()
        .map(|f| {
            taps.clear();
            expand_frame(f.borrow(), filter, registry, &mut taps).expect("trace textures exist");
            let mut c = FrameCounters::default();
            for t in &taps {
                let tr = oracle.access_texel(TextureId::from_index(t.tid), t.m, t.u, t.v);
                count(&tr, &mut c);
                if let Some(n) = naive.as_deref_mut() {
                    n.observe(&tr);
                }
            }
            c
        })
        .collect()
}

/// The counters the oracle defines.
fn oracle_view(c: &FrameCounters) -> [u64; 8] {
    [
        c.l1_accesses,
        c.l1_hits,
        c.l2_full_hits,
        c.l2_partial_hits,
        c.l2_full_misses,
        c.tlb_accesses,
        c.tlb_hits,
        c.host_bytes,
    ]
}

/// The engine's per-frame counters agree with the oracle's on every
/// counter the oracle defines.
pub fn matches_oracle(engine: &[FrameCounters], oracle: &[FrameCounters]) -> Verdict {
    if engine.len() != oracle.len() {
        return Err(format!(
            "engine closed {} frames, oracle {}",
            engine.len(),
            oracle.len()
        ));
    }
    for (i, (e, o)) in engine.iter().zip(oracle).enumerate() {
        if oracle_view(e) != oracle_view(o) {
            return Err(format!("frame {i}: engine {e:?} vs oracle {o:?}"));
        }
    }
    Ok(())
}

/// Two replays of the same stream closed identical frames.
pub fn same_frames(what: &str, a: &[FrameCounters], b: &[FrameCounters]) -> Verdict {
    if a.len() != b.len() {
        return Err(format!("{what}: {} frames vs {}", a.len(), b.len()));
    }
    match a.iter().zip(b).position(|(x, y)| x != y) {
        None => Ok(()),
        Some(i) => Err(format!(
            "{what}: frame {i} differs: {:?} vs {:?}",
            a[i], b[i]
        )),
    }
}

/// Every timed pass produced the same totals as the first.
pub fn identical_passes<T: PartialEq + std::fmt::Debug>(passes: &[T]) -> Verdict {
    match passes.iter().position(|p| *p != passes[0]) {
        None => Ok(()),
        Some(i) => Err(format!(
            "pass {i} totals {:?} vs pass 0 {:?}",
            passes[i], passes[0]
        )),
    }
}

/// The timing overlay observed without changing behaviour, scheduled
/// exactly the behavioural host bytes, and took at least one cycle per
/// fragment and at most the serial reference's cycles.
pub fn timing_consistent(
    untimed: &[FrameCounters],
    timed: &[FrameCounters],
    t: &TimingCounters,
    fragments: u64,
    naive_cycles: u64,
) -> Verdict {
    same_frames("timed vs untimed counters", timed, untimed)?;
    let host_bytes: u64 = timed.iter().map(|f| f.host_bytes).sum();
    if t.link_bytes != host_bytes {
        return Err(format!(
            "link bytes {} != behavioural host bytes {host_bytes}",
            t.link_bytes
        ));
    }
    if t.cycles_total < fragments {
        return Err(format!(
            "{} cycles for {fragments} fragments: below one fragment per cycle",
            t.cycles_total
        ));
    }
    if t.cycles_total > naive_cycles {
        return Err(format!(
            "{} cycles exceed the serial reference's {naive_cycles}",
            t.cycles_total
        ));
    }
    Ok(())
}

/// A partitioned client matches its solo replay and ran undisturbed.
pub fn solo_matches(
    client: &[FrameCounters],
    solo: &[FrameCounters],
    svc: &ClientServiceStats,
    quarantined: bool,
) -> Verdict {
    same_frames("client vs solo replay", client, solo)?;
    if quarantined || svc.shed_taps > 0 || svc.shed_frames > 0 {
        return Err(format!("client shed or quarantined: {svc:?}"));
    }
    Ok(())
}

/// An exact prediction equals the replay it predicts, count for count.
pub fn exact_prediction_matches(sim: &FrameCounters, pred: &Prediction) -> Verdict {
    let l2 = pred.l2.unwrap_or_default();
    let predicted = [
        pred.l1_hits,
        l2.full_hits,
        l2.partial_hits,
        l2.full_misses,
        pred.host_bytes,
    ];
    let replayed = [
        sim.l1_hits,
        sim.l2_full_hits,
        sim.l2_partial_hits,
        sim.l2_full_misses,
        sim.host_bytes,
    ];
    if sim.l1_accesses != pred.taps || predicted != replayed.map(|v| v as f64) {
        return Err(format!(
            "exact prediction {predicted:?} over {} taps vs replay {replayed:?} over {} taps",
            pred.taps, sim.l1_accesses
        ));
    }
    let tlb_sim = sim.tlb_hits as f64 / sim.tlb_accesses.max(1) as f64;
    let tlb_pred = pred.tlb_hit_rate.unwrap_or(0.0);
    if (tlb_sim - tlb_pred).abs() > 1e-12 {
        return Err(format!(
            "TLB hit rate {tlb_pred} predicted, {tlb_sim} replayed"
        ));
    }
    Ok(())
}

/// Among LRU points that differ only in L2 capacity, a larger L2 never
/// has a higher predicted L2 miss ratio or more host traffic (LRU's stack
/// inclusion).
pub fn lru_monotone(points: &[(DesignPoint, Prediction)]) -> Verdict {
    let mut lru: Vec<&(DesignPoint, Prediction)> = points
        .iter()
        .filter(|(p, _)| p.policy == mltc_model::Policy::Lru && p.l2_blocks.is_some())
        .collect();
    if lru.len() < 2 {
        return Err("grid holds fewer than two LRU points".into());
    }
    let others = |p: &DesignPoint| (p.l1_lines, p.l1_ways, p.page_shift, p.sector, p.tlb_entries);
    lru.sort_by_key(|(p, _)| (others(p), p.l2_blocks));
    for w in lru.windows(2) {
        let ((a, pa), (b, pb)) = (w[0], w[1]);
        if others(a) != others(b) {
            continue;
        }
        let miss = |p: &Prediction| 1.0 - p.l2.map_or(0.0, |l| l.full_hit_rate());
        if miss(pb) > miss(pa) + 1e-12 || pb.host_bytes > pa.host_bytes + 1e-6 {
            return Err(format!(
                "{b} predicts L2 miss ratio {:.6} and {} host bytes, above the smaller {a}'s {:.6} and {}",
                miss(pb),
                pb.host_bytes,
                miss(pa),
                pa.host_bytes
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mltc_core::{L1Config, L2Config, LatencyModel, SimEngine};
    use mltc_scene::{Workload, WorkloadParams};

    fn tiny() -> (Workload, Vec<FrameTrace>) {
        let w = Workload::village(&WorkloadParams {
            frames: 4,
            ..WorkloadParams::tiny()
        });
        let mut frames = Vec::new();
        w.render_animation(FilterMode::Point, false, |t| frames.push(t));
        (w, frames)
    }

    fn cfg(l2_kb: usize) -> EngineConfig {
        EngineConfig {
            l1: L1Config::kb(2),
            l2: Some(L2Config {
                size_bytes: l2_kb << 10,
                ..L2Config::mb(1)
            }),
            tlb_entries: 16,
            ..EngineConfig::default()
        }
    }

    fn replay(cfg: EngineConfig, w: &Workload, frames: &[FrameTrace], f: FilterMode) -> SimEngine {
        let mut e = SimEngine::try_new(cfg, w.registry()).expect("valid config");
        for t in frames {
            e.try_run_frame_as_batched(t, f).expect("replay");
        }
        e
    }

    #[test]
    fn oracle_check_rejects_an_engine_with_another_l2_size() {
        let (w, frames) = tiny();
        let f = FilterMode::Trilinear;
        let oracle = oracle_frames(cfg(1024), w.registry(), &frames, f, None);
        let same = replay(cfg(1024), &w, &frames, f);
        assert_eq!(matches_oracle(same.frames(), &oracle), Ok(()));
        let other = replay(cfg(16), &w, &frames, f);
        assert!(matches_oracle(other.frames(), &oracle).is_err());
    }

    #[test]
    fn pass_check_rejects_a_differing_pass() {
        assert!(identical_passes(&[1, 1, 1]).is_ok());
        assert!(identical_passes(&[1, 1, 2]).is_err());
    }

    #[test]
    fn timing_check_rejects_low_cycles_high_cycles_and_lost_bytes() {
        let (w, frames) = tiny();
        let f = FilterMode::Trilinear;
        let untimed = replay(cfg(64), &w, &frames, f);
        let mut timed = SimEngine::try_new(cfg(64), w.registry()).expect("valid config");
        timed.attach_timing(LatencyModel::default());
        for t in &frames {
            timed.try_run_frame_as(t, f).expect("replay");
        }
        let mut naive = NaiveTiming::new(LatencyModel::default());
        oracle_frames(cfg(64), w.registry(), &frames, f, Some(&mut naive));
        let t = *timed.timing().expect("attached").totals();
        let fragments: u64 = frames.iter().map(|t| t.requests.len() as u64).sum();
        let ok = |t: &TimingCounters, fr, nv| {
            timing_consistent(untimed.frames(), timed.frames(), t, fr, nv)
        };
        assert_eq!(ok(&t, fragments, naive.cycles()), Ok(()));
        assert!(ok(&t, t.cycles_total + 1, naive.cycles()).is_err());
        assert!(ok(&t, fragments, t.cycles_total - 1).is_err());
        let lost = TimingCounters {
            link_bytes: t.link_bytes - 1,
            ..t
        };
        assert!(ok(&lost, fragments, naive.cycles()).is_err());
        let other = replay(cfg(16), &w, &frames, f);
        assert!(
            timing_consistent(other.frames(), timed.frames(), &t, fragments, u64::MAX).is_err()
        );
    }

    #[test]
    fn solo_check_rejects_the_other_clients_filter_and_shedding() {
        let (w, frames) = tiny();
        let bi = replay(cfg(1024), &w, &frames, FilterMode::Bilinear);
        let tri = replay(cfg(1024), &w, &frames, FilterMode::Trilinear);
        let calm = ClientServiceStats::default();
        assert_eq!(solo_matches(bi.frames(), bi.frames(), &calm, false), Ok(()));
        assert!(solo_matches(bi.frames(), tri.frames(), &calm, false).is_err());
        assert!(solo_matches(bi.frames(), bi.frames(), &calm, true).is_err());
        let shed = ClientServiceStats {
            shed_taps: 1,
            ..calm
        };
        assert!(solo_matches(bi.frames(), bi.frames(), &shed, false).is_err());
    }

    #[test]
    fn model_checks_reject_a_wrong_replay_and_a_rising_miss_curve() {
        let (w, frames) = tiny();
        let shared: Vec<_> = frames.iter().cloned().map(std::sync::Arc::new).collect();
        let profile =
            mltc_experiments::capture_profile(w.registry(), &shared).expect("capture replay");
        let lru = |kb| EngineConfig {
            l2: Some(L2Config {
                policy: mltc_core::ReplacementPolicy::Lru,
                ..cfg(kb).l2.expect("has L2")
            }),
            ..cfg(kb)
        };
        let pred = mltc_model::predict(&profile, &mltc_experiments::design_point_for(&lru(64)))
            .expect("captured shift");
        assert!(pred.exact);
        let right = replay(lru(64), &w, &frames, FilterMode::Trilinear).totals();
        assert_eq!(exact_prediction_matches(&right, &pred), Ok(()));
        let wrong = replay(lru(16), &w, &frames, FilterMode::Trilinear).totals();
        assert!(exact_prediction_matches(&wrong, &pred).is_err());

        let points: Vec<(DesignPoint, Prediction)> = [16usize, 64, 256]
            .iter()
            .map(|&kb| {
                let p = mltc_experiments::design_point_for(&lru(kb));
                (
                    p,
                    mltc_model::predict(&profile, &p).expect("captured shift"),
                )
            })
            .collect();
        assert_eq!(lru_monotone(&points), Ok(()));
        let mut rising = points.clone();
        rising[0].1 = points[2].1;
        rising[2].1 = points[0].1;
        assert!(lru_monotone(&rising).is_err());
    }
}
