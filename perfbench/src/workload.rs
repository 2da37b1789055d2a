//! The four workloads: their configuration, their set-up and one pass.
//!
//! Every workload runs the suite on its `test_args`. On `default_args`
//! a pass takes 1–4 s, a run fits only 5–10 passes, and the run-to-run
//! spread of the pass time reached 16–30% on a 2-vCPU VM whose memory
//! system is shared with busy neighbours; `test_args` fits 25–200 passes
//! in a run and touches less memory (see `NOTES.md`).

use crate::reference::{Entry, Outcome, Reference};
use dca_core::perm::{derive_seed, schedules};
use dca_core::{Dca, DcaConfig, LoopVerdict, Obs, ObsOptions, ObsRollup, WallLimits};
use dca_interp::Value;
use dca_ir::{LoopRef, Module};
use dca_parallel::{execute_loop, ExecConfig, ExecError};
use dca_suite::SuiteProgram;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `DcaConfig::default()`: the paper's setting.
    SuiteDefault,
    /// `DcaConfig::exact()`: loop-exit scope, hashed verification, no
    /// program suffix.
    SuiteExact,
    /// `execute_loop` over every loop the reference proves commutative.
    Execute,
    /// `DcaConfig::fast()` against a warmed verdict cache.
    SuiteWarm,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SuiteDefault,
        Workload::SuiteExact,
        Workload::Execute,
        Workload::SuiteWarm,
    ];

    /// The workload's name on the command line and in reference files.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteDefault => "suite-default",
            Workload::SuiteExact => "suite-exact",
            Workload::Execute => "execute",
            Workload::SuiteWarm => "suite-warm",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The committed reference text.
    pub fn reference_text(self) -> &'static str {
        match self {
            Workload::SuiteDefault => include_str!("../reference/suite-default.tsv"),
            Workload::SuiteExact => include_str!("../reference/suite-exact.tsv"),
            Workload::Execute => include_str!("../reference/execute.tsv"),
            Workload::SuiteWarm => include_str!("../reference/suite-warm.tsv"),
        }
    }

    /// Where `--record-reference` writes this workload's reference.
    pub fn reference_path(self) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("reference")
            .join(format!("{}.tsv", self.name()))
    }

    /// The engine configuration, with every field the engine would
    /// otherwise resolve from the environment set explicitly.
    pub fn config(self, seed: u64, exec_width: usize, cache: Option<PathBuf>) -> DcaConfig {
        let base = match self {
            Workload::SuiteDefault | Workload::Execute => DcaConfig::default(),
            Workload::SuiteExact => DcaConfig::exact(),
            Workload::SuiteWarm => DcaConfig::fast(),
        };
        DcaConfig {
            seed,
            threads: 1,
            exec_threads: exec_width,
            exec_validate: true,
            max_wall: WallLimits::default(),
            fault: None,
            obs: ObsOptions::default(),
            cache,
            journal: None,
            max_heap_cells: None,
            fault_retries: 0,
            cancel: None,
            ..base
        }
    }
}

/// A compiled suite program with its workload arguments.
pub struct Program {
    /// The suite entry.
    pub suite: &'static SuiteProgram,
    /// Its compiled IR.
    pub module: Module,
    /// The workload's arguments.
    pub args: Vec<Value>,
    /// Whole-program interpreter steps of one `run_program` on `args`.
    pub steps: u64,
}

/// Everything a pass needs, built once per set-up.
pub struct Prepared {
    /// The workload.
    pub workload: Workload,
    /// The engine configuration; its `seed` is the benchmark seed.
    pub config: DcaConfig,
    /// The suite, compiled.
    pub programs: Vec<Program>,
    /// The parsed reference.
    pub reference: Reference,
    /// Per reference entry, the deduplicated schedule size (analysis
    /// workloads only; see [`crate::reference::check`]).
    pub perm_bounds: Vec<usize>,
    /// `execute`: per reference entry, its program index and loop, in
    /// reference order; the pass runs them in `exec_order`.
    pub exec_loops: Vec<(usize, LoopRef)>,
    /// `execute`: the seed-shuffled order of `exec_loops`.
    pub exec_order: Vec<usize>,
    /// `suite-warm`: the cold verdicts the cache was warmed with.
    pub warm_truth: Vec<Vec<dca_core::LoopResult>>,
    /// Time spent in `dca_ir::compile` during this set-up.
    pub compile: Duration,
}

/// Builds a workload's inputs: compiles the suite, resolves the
/// reference's loops, measures whole-program steps and, for
/// `suite-warm`, warms the cache.
pub fn prepare(
    workload: Workload,
    seed: u64,
    exec_width: usize,
    cache: &Path,
    reference: Reference,
) -> Result<Prepared, String> {
    let t = Instant::now();
    let modules: Vec<(&'static SuiteProgram, Module)> = dca_suite::all_programs()
        .into_iter()
        .map(|p| {
            dca_ir::compile(p.source)
                .map(|m| (p, m))
                .map_err(|e| format!("{}: {e}", p.name))
        })
        .collect::<Result<_, _>>()?;
    let compile = t.elapsed();
    let warm = workload == Workload::SuiteWarm;
    let config = workload.config(seed, exec_width, warm.then(|| cache.to_path_buf()));
    let mut programs = Vec::with_capacity(modules.len());
    for (suite, module) in modules {
        let args = suite.targs();
        // The cache workload runs no interpreter, so it needs no step
        // baseline.
        let steps = if warm {
            0
        } else {
            dca_interp::run_program(&module, &args)
                .map_err(|e| format!("{}: run_program trapped: {e}", suite.name))?
                .steps
        };
        programs.push(Program {
            suite,
            module,
            args,
            steps,
        });
    }
    let mut prepared = Prepared {
        workload,
        config,
        programs,
        reference,
        perm_bounds: Vec::new(),
        exec_loops: Vec::new(),
        exec_order: Vec::new(),
        warm_truth: Vec::new(),
        compile,
    };
    match workload {
        Workload::SuiteDefault | Workload::SuiteExact => {
            prepared.perm_bounds = perm_bounds(&prepared)?;
        }
        Workload::Execute => {
            prepared.exec_loops = exec_loops(&prepared)?;
            let mut order: Vec<usize> = (0..prepared.exec_loops.len()).collect();
            dca_rng::Rng::seed_from_u64(seed).shuffle(&mut order);
            prepared.exec_order = order;
        }
        Workload::SuiteWarm => {
            // A fresh file each set-up, so every set-up pays the same
            // cold analysis and the pass finds exactly its entries.
            let _ = std::fs::remove_file(cache);
            let dca = Dca::new(prepared.config.clone());
            for p in &prepared.programs {
                let report = dca
                    .analyze(&p.module, &p.args)
                    .map_err(|e| format!("{}: {e}", p.suite.name))?;
                prepared.warm_truth.push(report.iter().cloned().collect());
            }
        }
    }
    Ok(prepared)
}

fn find_program(prepared: &Prepared, name: &str) -> Result<usize, String> {
    prepared
        .programs
        .iter()
        .position(|p| p.suite.name == name)
        .ok_or_else(|| format!("reference names unknown program `{name}`"))
}

fn find_loop(p: &Program, tag: &str) -> Result<LoopRef, String> {
    p.suite
        .loop_by_tag(&p.module, tag)
        .ok_or_else(|| format!("reference names unknown loop `{} @{tag}`", p.suite.name))
}

/// The size of each reference loop's deduplicated permutation schedule
/// at this seed, from the public `dca_core::perm` functions the engine
/// draws its schedules from.
fn perm_bounds(prepared: &Prepared) -> Result<Vec<usize>, String> {
    let cfg = &prepared.config;
    prepared
        .reference
        .entries
        .iter()
        .map(|e| {
            let Outcome::Verdict { trips, .. } = e.outcome else {
                return Ok(0);
            };
            let p = &prepared.programs[find_program(prepared, &e.prog)?];
            let l = find_loop(p, &e.tag)?;
            if trips < 2 {
                return Ok(0);
            }
            let seed = derive_seed(cfg.seed, l.func.0, l.loop_id.0, 0);
            Ok(schedules(&cfg.permutations, trips, seed).len())
        })
        .collect()
}

/// The `execute` loop list, taken from the reference rather than from a
/// fresh analysis.
fn exec_loops(prepared: &Prepared) -> Result<Vec<(usize, LoopRef)>, String> {
    prepared
        .reference
        .entries
        .iter()
        .map(|e| {
            let i = find_program(prepared, &e.prog)?;
            Ok((i, find_loop(&prepared.programs[i], &e.tag)?))
        })
        .collect()
}

/// What one pass produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassCounts {
    /// One entry per operation, in reference order.
    pub entries: Vec<Entry>,
    /// Σ `DcaReport::replay_steps()`.
    pub replay_steps: u64,
    /// Whole-program golden recordings.
    pub golden_runs: u64,
    /// Golden steps (`golden_runs` × whole-program steps, per program)
    /// plus replay steps.
    pub interp_steps: u64,
}

/// Timing and, when traced, the observability rollup of one program's
/// share of a pass.
pub struct ProgramTiming {
    /// Program name.
    pub name: &'static str,
    /// Operations the pass ran on this program.
    pub ops: usize,
    /// Wall time of the calls into the library for this program.
    pub wall: Duration,
    /// The program's engine or executor rollup (traced passes only).
    pub rollup: Option<ObsRollup>,
}

/// One complete pass.
pub struct Pass {
    /// Wall time of the whole pass.
    pub wall: Duration,
    /// Wall time of each timed library call, in a fixed order: one
    /// `analyze` per program, or one `execute_loop` per loop in
    /// reference order.
    pub calls: Vec<Duration>,
    /// Deterministic results.
    pub counts: PassCounts,
    /// Per-program breakdown.
    pub programs: Vec<ProgramTiming>,
}

/// Runs one pass of the workload; `traced` turns on `ObsOptions::metrics`.
pub fn run_pass(prepared: &Prepared, traced: bool) -> Result<Pass, String> {
    match prepared.workload {
        Workload::Execute => execute_pass(prepared, traced),
        _ => analysis_pass(prepared, traced),
    }
}

/// A verdict's class, the part of it the reference pins.
fn verdict_class(v: &LoopVerdict) -> &'static str {
    match v {
        LoopVerdict::Commutative => "commutative",
        LoopVerdict::NonCommutative(_) => "non-commutative",
        LoopVerdict::Excluded(_) => "excluded",
        LoopVerdict::NotExercised => "not-exercised",
        LoopVerdict::Skipped(_) => "skipped",
    }
}

fn analysis_pass(prepared: &Prepared, traced: bool) -> Result<Pass, String> {
    let mut config = prepared.config.clone();
    if traced {
        config.obs = ObsOptions::metrics();
    }
    let dca = Dca::new(config);
    let warm = prepared.workload == Workload::SuiteWarm;
    let mut counts = PassCounts {
        entries: Vec::new(),
        replay_steps: 0,
        golden_runs: 0,
        interp_steps: 0,
    };
    let mut programs = Vec::with_capacity(prepared.programs.len());
    let mut calls = Vec::with_capacity(prepared.programs.len());
    let start = Instant::now();
    for (i, p) in prepared.programs.iter().enumerate() {
        let t = Instant::now();
        let report = dca
            .analyze(&p.module, &p.args)
            .map_err(|e| format!("{}: {e}", p.suite.name))?;
        let wall = t.elapsed();
        calls.push(wall);
        for (k, r) in report.iter().enumerate() {
            let tag = r.tag.clone().unwrap_or_default();
            let outcome = if warm {
                // A hit must also serve exactly the verdict the cache was
                // warmed with; anything else is reported as a miss.
                let same = prepared.warm_truth[i].get(k) == Some(r);
                Outcome::Warm {
                    hit: r.cached && same,
                }
            } else {
                Outcome::Verdict {
                    class: verdict_class(&r.verdict).to_string(),
                    trips: r.trips,
                    perms: r.permutations_tested,
                }
            };
            counts.entries.push(Entry {
                prog: p.suite.name.to_string(),
                tag,
                outcome,
            });
        }
        if !warm {
            // With one tested invocation, every loop the static stage
            // keeps gets exactly one golden recording.
            let golden = report
                .iter()
                .filter(|r| !matches!(r.verdict, LoopVerdict::Excluded(_)))
                .count() as u64;
            counts.golden_runs += golden;
            counts.replay_steps += report.replay_steps();
            counts.interp_steps += golden * p.steps + report.replay_steps();
        }
        programs.push(ProgramTiming {
            name: p.suite.name,
            ops: report.len(),
            wall,
            rollup: report.obs,
        });
    }
    Ok(Pass {
        wall: start.elapsed(),
        calls,
        counts,
        programs,
    })
}

/// An `execute_loop` result's class, and whether the call recorded a
/// golden run (every refusal after the plan and live-out checks does).
fn exec_class(r: &Result<dca_parallel::ExecOutcome, ExecError>) -> (&'static str, bool) {
    match r {
        Ok(o) if o.validated => ("validated", true),
        Ok(_) => ("unvalidated", true),
        Err(ExecError::Diverged { .. }) => ("diverged", true),
        Err(ExecError::NotDecomposable { .. }) => ("not-decomposable", true),
        Err(ExecError::Unsupported(_)) => ("unsupported", true),
        Err(ExecError::Unresolved(_)) => ("unresolved", false),
        Err(ExecError::OrderSensitive(_)) => ("order-sensitive", false),
        Err(ExecError::Record(_) | ExecError::Trapped(_) | ExecError::BudgetExhausted) => {
            ("error", true)
        }
    }
}

fn execute_pass(prepared: &Prepared, traced: bool) -> Result<Pass, String> {
    let cfg = ExecConfig::from_dca(&prepared.config);
    let n = prepared.exec_loops.len();
    let mut slots: Vec<Option<Entry>> = vec![None; n];
    let mut calls = vec![Duration::ZERO; n];
    let mut per_prog: Vec<(Duration, usize, Obs)> = prepared
        .programs
        .iter()
        .map(|_| {
            let obs = if traced {
                Obs::enabled()
            } else {
                Obs::disabled()
            };
            (Duration::ZERO, 0, obs)
        })
        .collect();
    let (mut golden_runs, mut interp_steps) = (0u64, 0u64);
    let start = Instant::now();
    for &k in &prepared.exec_order {
        let (pi, lref) = prepared.exec_loops[k];
        let p = &prepared.programs[pi];
        let slot = &mut per_prog[pi];
        let t = Instant::now();
        let result = execute_loop(&p.module, &p.args, lref, &cfg, &slot.2);
        calls[k] = t.elapsed();
        slot.0 += calls[k];
        slot.1 += 1;
        let (class, recorded) = exec_class(&result);
        if recorded {
            golden_runs += 1;
            interp_steps += p.steps;
        }
        let fp = match &result {
            Ok(o) => o.oracle_fingerprint,
            Err(ExecError::Diverged { expected, .. }) => Some(*expected),
            Err(_) => None,
        };
        slots[k] = Some(Entry {
            prog: p.suite.name.to_string(),
            tag: prepared.reference.entries[k].tag.clone(),
            outcome: Outcome::Exec {
                class: class.to_string(),
                fp,
            },
        });
    }
    let wall = start.elapsed();
    let programs = prepared
        .programs
        .iter()
        .zip(per_prog)
        .filter(|(_, (_, ops, _))| *ops > 0)
        .map(|(p, (wall, ops, obs))| ProgramTiming {
            name: p.suite.name,
            ops,
            wall,
            rollup: obs.rollup(),
        })
        .collect();
    Ok(Pass {
        wall,
        calls,
        counts: PassCounts {
            entries: slots
                .into_iter()
                .map(|e| e.expect("every loop ran"))
                .collect(),
            replay_steps: 0,
            golden_runs,
            interp_steps,
        },
        programs,
    })
}

/// Recording re-analyzes the suite at shuffle seeds `0..SCAN_SEEDS` to
/// find the loops whose verdict class depends on the seed.
pub const SCAN_SEEDS: u64 = 100;

/// The shuffle seed a benchmark seed runs the engine at: the seed reduced
/// into the scanned range, so the reference lists every verdict class a
/// run can show. Seeds below [`SCAN_SEEDS`] are used as they are.
pub fn engine_seed(seed: u64) -> u64 {
    seed % SCAN_SEEDS
}

/// Analyzes (or executes) the whole suite once at the reference seed and
/// returns the reference it produces. The analysis workloads then run at
/// every seed below [`SCAN_SEEDS`] and list each further class a loop shows.
/// `execute` takes its loop list from `suite_default`, the freshly
/// recorded `suite-default` reference.
pub fn record_reference(
    workload: Workload,
    exec_width: usize,
    cache: &Path,
    suite_default: &Reference,
) -> Result<Reference, String> {
    let mut reference = Reference {
        workload: workload.name().to_string(),
        seed: crate::REFERENCE_SEED,
        entries: Vec::new(),
    };
    if workload == Workload::Execute {
        reference.entries = suite_default
            .entries
            .iter()
            .filter(|e| e.class().and_then(|c| c.split('|').next()) == Some("commutative"))
            .cloned()
            .collect();
    }
    let prepared = prepare(
        workload,
        crate::REFERENCE_SEED,
        exec_width,
        cache,
        reference.clone(),
    )?;
    reference.entries = run_pass(&prepared, false)?.counts.entries;
    if matches!(workload, Workload::SuiteDefault | Workload::SuiteExact) {
        for seed in 0..SCAN_SEEDS {
            let empty = Reference {
                entries: Vec::new(),
                ..reference.clone()
            };
            let pass = run_pass(&prepare(workload, seed, exec_width, cache, empty)?, false)?;
            for (want, got) in reference.entries.iter_mut().zip(&pass.counts.entries) {
                if let (Outcome::Verdict { class, .. }, Some(c)) = (&mut want.outcome, got.class())
                {
                    if !class.split('|').any(|k| k == c) {
                        eprintln!(
                            "perfbench: {}: {} @{} is {c} at seed {seed}",
                            workload.name(),
                            got.prog,
                            got.tag
                        );
                        class.push('|');
                        class.push_str(c);
                    }
                }
            }
        }
    }
    Ok(reference)
}
