//! End-to-end and per-layer benchmark of the DCA workspace over the
//! 24-program suite.
//!
//! ```text
//! perfbench --workload <suite-default|suite-exact|execute|suite-warm>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --record-reference
//! ```
//!
//! One run sets the workload up, then runs whole passes over the suite
//! until `--seconds` of passes have run, timing further set-ups spread
//! over the passes. `setup_s` is the fastest set-up and `pass_s` each
//! timed library call's fastest time across the passes, summed: host
//! interference only ever adds time. Every pass is checked against
//! the committed reference (`reference/*.tsv`) and against every other
//! pass of the run: the deterministic counts (replay steps, golden runs,
//! interpreter steps) and verdicts must repeat exactly, or the run fails.
//!
//! With `--trace 1` the run measures half its time untraced and half
//! with `ObsOptions::metrics()` on, and reports per-layer metrics from
//! the engine's rollup plus the benchmark's own timings of calls into
//! public functions. The last line of standard output is one JSON
//! object; see `NOTES.md` for the workloads and metrics.

mod layers;
mod reference;
mod workload;

use reference::Reference;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{engine_seed, prepare, run_pass, Pass, Prepared, Workload};

/// The benchmark seed the committed references were recorded at.
pub const REFERENCE_SEED: u64 = 42;

/// Set-ups per run; `setup_s` is the fastest.
const SETUP_REPS: usize = 20;

/// Passes every run makes however short `--seconds` is, so the count
/// self-check always compares at least two.
const MIN_PASSES: usize = 2;

/// Environment variables the engine reads in preference to, or in place
/// of, its configuration. Any of them would silently change the work
/// being measured.
const ENGINE_ENV: [&str; 6] = [
    "DCA_CACHE",
    "DCA_JOURNAL",
    "DCA_TRACE",
    "DCA_THREADS",
    "DCA_EXEC_THREADS",
    "DCA_FAULT",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --record-reference",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
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
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Clears every engine environment variable, saying so on stderr. Runs
/// before any thread exists.
fn clear_engine_env() {
    for var in ENGINE_ENV {
        if let Some(v) = std::env::var_os(var) {
            eprintln!(
                "perfbench: clearing {var}={} (it would override the benchmark's engine config)",
                v.to_string_lossy()
            );
            std::env::remove_var(var);
        }
    }
}

/// Executor width: two workers, or one on a single-CPU host.
fn exec_width() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Private scratch directory for the verdict cache, inside the
/// benchmark's own directory.
fn work_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".work");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn fastest(xs: &[Duration]) -> f64 {
    xs.iter().min().map_or(0.0, Duration::as_secs_f64)
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// What a run's passes add up to. Only the fastest pass is kept whole,
/// so the benchmark's own memory does not grow with the pass count.
struct Measured {
    /// The fastest pass; its counts equal every other pass's.
    fastest: Pass,
    /// Wall time of every pass.
    walls: Vec<Duration>,
    /// Each timed call's fastest time across the passes.
    call_mins: Vec<Duration>,
}

impl Measured {
    /// The pass time with interference removed at call granularity: each
    /// timed library call's fastest time across the passes, summed. Host
    /// interference only ever adds time, and it comes and goes within a
    /// pass, so this is steadier than the fastest whole pass.
    fn pass_s(&self) -> f64 {
        self.call_mins.iter().map(Duration::as_secs_f64).sum()
    }
}

/// A run's timed set-ups. The first builds what the passes use; the
/// others are spread over the untraced passes and only timed, so that the
/// fastest of them samples the host over the whole run rather than over
/// its first seconds.
struct Setups<'a> {
    args: &'a Args,
    width: usize,
    cache: &'a Path,
    times: Vec<Duration>,
    compiles: Vec<Duration>,
}

impl Setups<'_> {
    /// Reads the reference and prepares the workload, timed.
    fn once(&mut self) -> Result<Prepared, String> {
        let t = Instant::now();
        let reference = Reference::parse(self.args.workload.reference_text())?;
        let p = prepare(
            self.args.workload,
            engine_seed(self.args.seed),
            self.width,
            self.cache,
            reference,
        )?;
        self.times.push(t.elapsed());
        self.compiles.push(p.compile);
        Ok(p)
    }

    /// Times further set-ups until their share of [`SETUP_REPS`] keeps
    /// pace with the share `spent` is of `budget`.
    fn keep_pace(&mut self, spent: Duration, budget: Duration) -> Result<(), String> {
        while self.times.len() < SETUP_REPS
            && spent.as_secs_f64() * SETUP_REPS as f64
                >= budget.as_secs_f64() * self.times.len() as f64
        {
            self.once()?;
        }
        Ok(())
    }
}

/// Runs passes while another one still fits in `budget` of pass time (at
/// least [`MIN_PASSES`]), enforcing that every pass repeats the counts of
/// the first one, or of `base` when given. Set-ups timed in between do
/// not count against the budget.
fn measure(
    prepared: &Prepared,
    budget: Duration,
    traced: bool,
    base: Option<&Pass>,
    mut setups: Option<&mut Setups<'_>>,
) -> Result<Measured, String> {
    let first = run_pass(prepared, traced)?;
    if let Some(base) = base {
        if first.counts != base.counts {
            return Err(count_drift(base, &first));
        }
    }
    let mut spent = first.wall;
    let mut m = Measured {
        walls: vec![first.wall],
        call_mins: first.calls.clone(),
        fastest: first,
    };
    loop {
        if let Some(s) = setups.as_mut() {
            s.keep_pace(spent, budget)?;
        }
        if m.walls.len() >= MIN_PASSES && spent + m.walls[m.walls.len() - 1] > budget {
            break;
        }
        let pass = run_pass(prepared, traced)?;
        spent += pass.wall;
        if pass.counts != m.fastest.counts {
            return Err(count_drift(&m.fastest, &pass));
        }
        m.walls.push(pass.wall);
        for (best, &t) in m.call_mins.iter_mut().zip(&pass.calls) {
            *best = (*best).min(t);
        }
        if pass.wall < m.fastest.wall {
            m.fastest = pass;
        }
    }
    Ok(m)
}

fn count_drift(base: &Pass, pass: &Pass) -> String {
    let (a, b) = (&base.counts, &pass.counts);
    let verdicts = a
        .entries
        .iter()
        .zip(&b.entries)
        .find(|(x, y)| x != y)
        .map(|(x, y)| format!("; first verdict change `{x}` -> `{y}`"))
        .unwrap_or_default();
    format!(
        "count self-check failed: passes of one run disagree \
         (replay_steps {} vs {}, golden_runs {} vs {}, interp_steps {} vs {}, {} vs {} operations{verdicts})",
        a.replay_steps,
        b.replay_steps,
        a.golden_runs,
        b.golden_runs,
        a.interp_steps,
        b.interp_steps,
        a.entries.len(),
        b.entries.len()
    )
}

/// Runs one workload and returns the result line. The verdict-cache
/// file is removed whether or not the run succeeds.
fn run(args: &Args) -> Result<String, String> {
    let cache = work_dir()?.join(format!("cache-{}.json", std::process::id()));
    let result = run_with_cache(args, &cache);
    let _ = std::fs::remove_file(&cache);
    result
}

fn run_with_cache(args: &Args, cache: &Path) -> Result<String, String> {
    let mut setups = Setups {
        args,
        width: exec_width(),
        cache,
        times: Vec::with_capacity(SETUP_REPS),
        compiles: Vec::with_capacity(SETUP_REPS),
    };
    let prepared = setups.once()?;

    let budget = Duration::from_secs_f64(args.seconds);
    let plain_budget = if args.trace { budget / 2 } else { budget };
    let plain = measure(&prepared, plain_budget, false, None, Some(&mut setups))?;
    setups.keep_pace(plain_budget, plain_budget)?;
    let setup_s = fastest(&setups.times);
    let base = &plain.fastest;

    // Reference check on one pass: the self-check has already shown every
    // other pass to be identical.
    let failures = reference::check(
        &prepared.reference,
        prepared.config.seed,
        &base.counts.entries,
        &prepared.perm_bounds,
    );
    for f in failures.iter().take(20) {
        eprintln!(
            "perfbench: {}: reference mismatch: {f}",
            args.workload.name()
        );
    }
    let ops = base.counts.entries.len() as u64;
    if ops == 0 {
        return Err("a pass ran no operations".into());
    }
    let passes = plain.walls.len() as u64;
    let attempted = ops * passes;
    let failed = failures.len() as u64 * passes;
    let mut walls: Vec<f64> = plain.walls.iter().map(Duration::as_secs_f64).collect();
    let (slowest, fastest_wall) = (
        walls.iter().copied().fold(0.0, f64::max),
        walls.iter().copied().fold(f64::INFINITY, f64::min),
    );
    println!(
        "{} seed={} engine_seed={} passes={} pass_wall_s(min/median/max)={fastest_wall:.3}/{:.3}/{slowest:.3} \
         pass_s={:.3} ops/pass={} replay_steps={} golden_runs={} interp_steps={} failed={}",
        args.workload.name(),
        args.seed,
        prepared.config.seed,
        passes,
        median(&mut walls),
        plain.pass_s(),
        ops,
        base.counts.replay_steps,
        base.counts.golden_runs,
        base.counts.interp_steps,
        failures.len()
    );

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        let traced = measure(&prepared, budget / 2, true, Some(base), None)?;
        let overhead = traced.pass_s() / plain.pass_s();
        let layer = layers::per_layer(
            &prepared,
            base,
            &traced.fastest,
            plain.pass_s(),
            overhead,
            fastest(&setups.compiles),
        )?;
        for row in &layer.rows {
            println!("{row}");
        }
        metrics = layer.metrics;
    } else {
        metrics.push(("setup_s".into(), setup_s, "s"));
        metrics.push(("pass_s".into(), plain.pass_s(), "s"));
        metrics.push(("peak_rss_mb".into(), peak_rss_mb()?, "MiB"));
        metrics.push((
            "ok_share".into(),
            1.0 - failed as f64 / attempted as f64,
            "ratio",
        ));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    ))
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Records every workload's reference at [`REFERENCE_SEED`].
fn record_references() -> Result<(), String> {
    let cache = work_dir()?.join(format!("cache-{}.json", std::process::id()));
    let width = exec_width();
    let mut suite_default = None;
    for w in Workload::ALL {
        let r = workload::record_reference(
            w,
            width,
            &cache,
            suite_default.as_ref().unwrap_or(&Reference {
                workload: String::new(),
                seed: REFERENCE_SEED,
                entries: Vec::new(),
            }),
        )?;
        let path = w.reference_path();
        std::fs::write(&path, r.render()).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "perfbench: wrote {} ({} operations)",
            path.display(),
            r.entries.len()
        );
        if w == Workload::SuiteDefault {
            suite_default = Some(r);
        }
    }
    let _ = std::fs::remove_file(&cache);
    Ok(())
}

fn main() -> ExitCode {
    clear_engine_env();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = if argv == ["--record-reference"] {
        record_references().map(|()| None)
    } else {
        parse_args(&argv)
            .map_err(|e| format!("{e}\n{}", usage()))
            .and_then(|a| run(&a).map(Some))
    };
    match result {
        Ok(Some(json)) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: error: {e}");
            ExitCode::FAILURE
        }
    }
}
