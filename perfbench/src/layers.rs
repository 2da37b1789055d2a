//! Per-layer metrics of a traced run.
//!
//! Most numbers come from the rollup the engine (or executor) already
//! produces with `ObsOptions::metrics()` on: the `stage.*` and
//! `analysis.*` spans and the `engine.*`, `journal.*`, `verify.digest.*`,
//! `interp.heap.*`, `cache.*`, `deps.*` and `exec.*` counters. The rest
//! the benchmark measures itself by timing calls into public functions
//! after the traced passes: `record_golden` for the exact golden-step
//! count, `record_golden` beside `record_golden_profiled` and
//! `check_decomposable` for the dependence layer, and `VerdictCache::open`
//! plus `decide` for cache lookup.

use crate::workload::{Pass, Prepared, Workload};
use dca_analysis::{exclusion, EffectMap, IteratorSlice};
use dca_core::{
    check_decomposable, record_golden, record_golden_profiled, KeyBuilder, ObsRollup, VerdictCache,
};
use dca_interp::Machine;
use dca_ir::{FuncId, FuncView};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Every per-layer metric, with its unit, in `BENCHMARK.json` order.
/// A traced run reports all of them; a layer that does no work on a
/// workload reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ir.compile_s", "s"),
    ("analysis.static_s", "s"),
    ("analysis.liveness_passes", "count"),
    ("record.s", "s"),
    ("record.runs", "count"),
    ("record.steps", "count"),
    ("record.estimate_diff", "count"),
    ("replay.s", "s"),
    ("replay.runs", "count"),
    ("replay.steps", "count"),
    ("replay.ns_per_step", "ns"),
    ("restore.s", "s"),
    ("restore.cells_undone", "count"),
    ("restore.objs_discarded", "count"),
    ("verify.s", "s"),
    ("verify.digest_cells", "count"),
    ("verify.hashed", "count"),
    ("verify.structural", "count"),
    ("interp.ns_per_step", "ns"),
    ("interp.heap_reads", "count"),
    ("interp.heap_writes", "count"),
    ("interp.allocs", "count"),
    ("cache.keying_s", "s"),
    ("cache.lookup_s", "s"),
    ("cache.hits", "count"),
    ("cache.hit_ratio", "ratio"),
    ("deps.profile_s", "s"),
    ("deps.footprint_s", "s"),
    ("deps.check_s", "s"),
    ("deps.prespawn_refusals", "count"),
    ("deps.conflicts", "count"),
    ("exec.loop_s", "s"),
    ("exec.iters", "count"),
    ("exec.steals", "count"),
    ("exec.combine_steps", "count"),
    ("exec.validated_ratio", "ratio"),
    ("engine.self_s", "s"),
    ("obs.overhead", "ratio"),
    ("pass.traced_s", "s"),
    ("pass.interp_steps", "count"),
    ("pass.replay_steps", "count"),
    ("pass.golden_runs", "count"),
    ("share.static", "ratio"),
    ("share.record", "ratio"),
    ("share.restore", "ratio"),
    ("share.replay", "ratio"),
    ("share.verify", "ratio"),
    ("share.cache", "ratio"),
    ("share.deps", "ratio"),
    ("share.exec", "ratio"),
];

/// The traced run's output: per-program rows and every per-layer metric.
pub struct Layers {
    /// One human-readable line per program.
    pub rows: Vec<String>,
    /// `(name, value, unit)` for every entry of [`PER_LAYER`].
    pub metrics: Vec<(String, f64, &'static str)>,
}

fn span_s(r: &ObsRollup, name: &str) -> f64 {
    r.spans.get(name).map_or(0.0, |s| s.total.as_secs_f64())
}

fn ms(d: f64) -> String {
    format!("{:.1}", d * 1e3)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Timed sweeps repeat this many times; each call keeps its fastest time.
const SWEEP_REPS: usize = 5;

/// Builds the per-layer metrics from an untraced pass `base` (for its
/// counts), the fastest traced pass `traced` (for layer times), the
/// untraced `pass_s`, the traced-to-untraced pass-time ratio and post-pass
/// timed calls.
pub fn per_layer(
    prepared: &Prepared,
    base: &Pass,
    traced: &Pass,
    plain_pass_s: f64,
    overhead: f64,
    compile_s: f64,
) -> Result<Layers, String> {
    let w = prepared.workload.name();
    let mut rollup = ObsRollup::default();
    let mut rows = Vec::new();
    for p in &traced.programs {
        let r = p.rollup.as_ref().ok_or("traced pass produced no rollup")?;
        rollup.merge(r);
        rows.push(match prepared.workload {
            Workload::Execute => {
                let validated = traced
                    .counts
                    .entries
                    .iter()
                    .filter(|e| e.prog == p.name && e.class() == Some("validated"))
                    .count();
                format!(
                    "row {w} {:<10} ops={:<3} wall_ms={:<8} validated={validated} iters={} steals={} refusals={}",
                    p.name,
                    p.ops,
                    ms(p.wall.as_secs_f64()),
                    r.counter("exec.iters"),
                    r.counter("exec.steals"),
                    r.counter("deps.prespawn_refusals"),
                )
            }
            _ => format!(
                "row {w} {:<10} ops={:<3} wall_ms={:<8} static_ms={} record_ms={} restore_ms={} replay_ms={} verify_ms={} \
                 golden_runs={} replay_steps={} cache_hits={}",
                p.name,
                p.ops,
                ms(p.wall.as_secs_f64()),
                ms(span_s(r, "stage.static") + span_s(r, "analysis.effect_map") + span_s(r, "analysis.liveness")),
                ms(span_s(r, "stage.record")),
                ms(span_s(r, "stage.restore")),
                ms(span_s(r, "stage.replay")),
                ms(span_s(r, "stage.verify")),
                r.counter("engine.golden_runs"),
                r.counter("engine.replay_steps"),
                r.counter("cache.hits"),
            ),
        });
    }

    let c = |name: &str| rollup.counter(name) as f64;
    let pass_s = traced.wall.as_secs_f64();
    let counts = &base.counts;
    let mut m: Vec<(&str, f64)> = vec![
        ("ir.compile_s", compile_s),
        ("obs.overhead", overhead),
        ("pass.traced_s", pass_s),
        ("pass.replay_steps", counts.replay_steps as f64),
        ("pass.golden_runs", counts.golden_runs as f64),
    ];
    let mut interp_steps = counts.interp_steps;
    match prepared.workload {
        Workload::Execute => {
            // The sweep is untraced, so its shares are of the untraced
            // pass: plain recording, footprint capture plus the
            // decomposability check, and the rest of `execute_loop`.
            let sweep = deps_sweep(prepared, base)?;
            let (record_s, profile_s, check_s) = (
                sweep.record.as_secs_f64(),
                sweep.profile.as_secs_f64(),
                sweep.check.as_secs_f64(),
            );
            let footprint_s = (profile_s - record_s).max(0.0);
            let validated = counts
                .entries
                .iter()
                .filter(|e| e.class() == Some("validated"))
                .count();
            check_golden_runs(
                "deps.loops_profiled",
                c("deps.loops_profiled"),
                counts.golden_runs,
            )?;
            let estimate = counts.interp_steps;
            interp_steps = sweep.steps;
            m.extend([
                ("record.s", record_s),
                ("record.runs", c("deps.loops_profiled")),
                ("record.steps", sweep.steps as f64),
                ("record.estimate_diff", sweep.steps as f64 - estimate as f64),
                ("deps.profile_s", profile_s),
                ("deps.footprint_s", footprint_s),
                ("deps.check_s", check_s),
                ("deps.prespawn_refusals", c("deps.prespawn_refusals")),
                ("deps.conflicts", c("deps.conflicts")),
                ("exec.loop_s", plain_pass_s),
                ("exec.iters", c("exec.iters")),
                ("exec.steals", c("exec.steals")),
                ("exec.combine_steps", c("exec.combine_steps")),
                (
                    "exec.validated_ratio",
                    ratio(validated as f64, counts.entries.len() as f64),
                ),
                ("share.record", ratio(record_s, plain_pass_s)),
                ("share.deps", ratio(footprint_s + check_s, plain_pass_s)),
                (
                    "share.exec",
                    ratio((plain_pass_s - profile_s - check_s).max(0.0), plain_pass_s),
                ),
            ]);
        }
        _ => {
            let static_s = span_s(&rollup, "stage.static")
                + span_s(&rollup, "analysis.effect_map")
                + span_s(&rollup, "analysis.liveness");
            let record_s = span_s(&rollup, "stage.record");
            let restore_s = span_s(&rollup, "stage.restore");
            let replay_s = span_s(&rollup, "stage.replay");
            let verify_s = span_s(&rollup, "stage.verify");
            let keying_s = span_s(&rollup, "cache.keying");
            let engine_s = span_s(&rollup, "engine.analyze");
            let replay_steps = c("engine.replay_steps");
            check_golden_runs(
                "engine.golden_runs",
                c("engine.golden_runs"),
                counts.golden_runs,
            )?;
            let engine_self_s =
                (engine_s - static_s - record_s - restore_s - replay_s - verify_s - keying_s)
                    .max(0.0);
            let warm = prepared.workload == Workload::SuiteWarm;
            let (record_steps, lookup_s) = if warm {
                (0, cache_sweep(prepared)?.as_secs_f64())
            } else {
                let exact = golden_steps(prepared)?;
                interp_steps = exact + counts.replay_steps;
                m.push((
                    "record.estimate_diff",
                    interp_steps as f64 - counts.interp_steps as f64,
                ));
                (exact, 0.0)
            };
            let hits = c("cache.hits");
            m.extend([
                ("analysis.static_s", static_s),
                ("analysis.liveness_passes", c("analysis.liveness.passes")),
                ("record.s", record_s),
                ("record.runs", c("engine.golden_runs")),
                ("record.steps", record_steps as f64),
                ("replay.s", replay_s),
                ("replay.runs", c("engine.replays")),
                ("replay.steps", replay_steps),
                ("replay.ns_per_step", ratio(replay_s * 1e9, replay_steps)),
                ("restore.s", restore_s),
                ("restore.cells_undone", c("journal.cells_undone")),
                ("restore.objs_discarded", c("journal.objs_discarded")),
                ("verify.s", verify_s),
                ("verify.digest_cells", c("verify.digest.cells")),
                ("verify.hashed", c("verify.digest.hashed")),
                ("verify.structural", c("verify.digest.structural")),
                (
                    "interp.ns_per_step",
                    ratio(
                        (record_s + replay_s) * 1e9,
                        record_steps as f64 + replay_steps,
                    ),
                ),
                ("interp.heap_reads", c("interp.heap.reads")),
                ("interp.heap_writes", c("interp.heap.writes")),
                ("interp.allocs", c("interp.heap.allocs")),
                ("cache.keying_s", keying_s),
                ("cache.lookup_s", lookup_s),
                ("cache.hits", hits),
                ("cache.hit_ratio", ratio(hits, hits + c("cache.misses"))),
                ("engine.self_s", engine_self_s),
                ("share.static", ratio(static_s, pass_s)),
                ("share.record", ratio(record_s, pass_s)),
                ("share.restore", ratio(restore_s, pass_s)),
                ("share.replay", ratio(replay_s, pass_s)),
                ("share.verify", ratio(verify_s, pass_s)),
                // With a cache configured, the engine's self time is its
                // cache open and lookups, which have no span of their own.
                (
                    "share.cache",
                    ratio(keying_s + if warm { engine_self_s } else { 0.0 }, pass_s),
                ),
            ]);
        }
    }
    m.push(("pass.interp_steps", interp_steps as f64));

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = m.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v);
            (name.to_string(), v, unit)
        })
        .collect();
    Ok(Layers { rows, metrics })
}

/// The engine's own golden-run counter must agree with the count the
/// untraced passes derive from verdicts.
fn check_golden_runs(counter: &str, traced: f64, derived: u64) -> Result<(), String> {
    if traced as u64 == derived {
        Ok(())
    } else {
        Err(format!(
            "golden-run count disagrees: {counter}={traced} in the traced pass, {derived} derived from verdicts"
        ))
    }
}

/// Exact golden-run steps: one `record_golden` per loop the static stage
/// keeps, counting the interpreter's steps whether or not it returned a
/// record.
fn golden_steps(prepared: &Prepared) -> Result<u64, String> {
    let cfg = &prepared.config;
    let mut total = 0;
    for p in &prepared.programs {
        let main = p.module.main().ok_or("program has no main")?;
        let effects = EffectMap::new(&p.module);
        for f in 0..p.module.funcs.len() {
            let view = FuncView::new(&p.module, FuncId(f as u32));
            for l in view.loops.iter() {
                let slice = IteratorSlice::compute_with(&view, l, &effects);
                if exclusion(&view, l, &slice, &effects.io_funcs()).is_some() {
                    continue;
                }
                let mut machine = Machine::new(&p.module);
                let _ = record_golden(
                    &mut machine,
                    main,
                    &p.args,
                    view.id,
                    l,
                    &slice,
                    0,
                    cfg.max_trip,
                    cfg.max_steps,
                );
                total += machine.steps();
            }
        }
    }
    Ok(total)
}

/// Each timed call's fastest time across [`SWEEP_REPS`] sweeps, summed
/// over the loops, and the exact steps of one profiled recording each.
struct DepsSweep {
    record: Duration,
    profile: Duration,
    check: Duration,
    steps: u64,
}

/// Times, per executed loop that records a golden run and in reference
/// order, one `record_golden`, one `record_golden_profiled` and one
/// `check_decomposable` of its profile; repeats the sweep [`SWEEP_REPS`]
/// times and keeps each call's fastest time. Profiled recording minus
/// plain recording of the same loop is the cost of footprint capture.
fn deps_sweep(prepared: &Prepared, base: &Pass) -> Result<DepsSweep, String> {
    let cfg = &prepared.config;
    let excluded = BTreeSet::new();
    let mut loops = Vec::new();
    for (k, &(pi, lref)) in prepared.exec_loops.iter().enumerate() {
        // These two refusals happen before `execute_loop` records.
        if matches!(
            base.counts.entries[k].class(),
            Some("unresolved" | "order-sensitive")
        ) {
            continue;
        }
        let p = &prepared.programs[pi];
        let main = p.module.main().ok_or("program has no main")?;
        let view = FuncView::new(&p.module, lref.func);
        let l = view.loops.get(lref.loop_id);
        let slice = IteratorSlice::compute_with(&view, l, &EffectMap::new(&p.module));
        loops.push((p, main, lref.func, l.clone(), slice));
    }
    let mut mins = vec![[Duration::MAX; 3]; loops.len()];
    let mut steps = None;
    for _ in 0..SWEEP_REPS {
        let mut sweep_steps = 0;
        for ((p, main, func, l, slice), best) in loops.iter().zip(&mut mins) {
            let mut machine = Machine::new(&p.module);
            let t = Instant::now();
            let _ = std::hint::black_box(record_golden(
                &mut machine,
                *main,
                &p.args,
                *func,
                l,
                slice,
                0,
                cfg.max_trip,
                cfg.max_steps,
            ));
            best[0] = best[0].min(t.elapsed());
            let mut machine = Machine::new(&p.module);
            let t = Instant::now();
            let profiled = record_golden_profiled(
                &mut machine,
                *main,
                &p.args,
                *func,
                p.module.func(*func),
                l,
                slice,
                0,
                cfg.max_trip,
                cfg.max_steps,
            );
            best[1] = best[1].min(t.elapsed());
            sweep_steps += machine.steps();
            match profiled {
                Ok((_, profile)) => {
                    let t = Instant::now();
                    std::hint::black_box(check_decomposable(&profile, &excluded));
                    best[2] = best[2].min(t.elapsed());
                }
                Err(_) => best[2] = Duration::ZERO,
            }
        }
        if steps.is_some_and(|s| s != sweep_steps) {
            return Err("profiled recording steps differ between sweeps".into());
        }
        steps = Some(sweep_steps);
    }
    let sum = |i: usize| mins.iter().map(|b| b[i]).sum();
    Ok(DepsSweep {
        record: sum(0),
        profile: sum(1),
        check: sum(2),
        steps: steps.unwrap_or(0),
    })
}

/// Times opening the warmed cache and deciding every loop's key, per
/// program — the lookup work a warm `analyze` does besides keying.
fn cache_sweep(prepared: &Prepared) -> Result<Duration, String> {
    let path = prepared
        .config
        .cache
        .as_ref()
        .ok_or("suite-warm has no cache path")?;
    let mut total = Duration::ZERO;
    for p in &prepared.programs {
        let keys = KeyBuilder::new(&prepared.config, &p.args, &p.module).all_loop_keys(&p.module);
        let t = Instant::now();
        let cache = VerdictCache::open(path);
        for &k in &keys {
            std::hint::black_box(cache.decide(k));
        }
        total += t.elapsed();
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::PER_LAYER;
    use dca_obs::{parse_json, Json};

    fn metrics(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.as_object().unwrap()[key]
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                let m = m.as_object().unwrap();
                (
                    m["name"].as_str().unwrap().to_string(),
                    m["unit"].as_str().unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let declared = metrics(&doc, "per_layer");
        let reported: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared, reported);
        let e2e: Vec<String> = metrics(&doc, "end_to_end")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(e2e, ["pass_s", "setup_s", "peak_rss_mb", "ok_share"]);
    }
}
