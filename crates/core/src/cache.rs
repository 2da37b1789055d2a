//! Persistent verdict cache: incremental re-analysis across engine runs
//! (DESIGN.md §15).
//!
//! A commutativity verdict is a pure function of (program, workload,
//! verdict-affecting configuration). This module keys each loop's verdict
//! by a 128-bit [`Fingerprint`] over exactly those inputs and persists
//! the map as schema-versioned, hand-rolled JSON (schema
//! [`SCHEMA`]), so a re-run of an unchanged program skips golden
//! recording and permuted replay entirely — the caching/scaling step the
//! ROADMAP north-star calls for, and the reuse that Koskinen & Bansal's
//! verification-based treatments of commutativity get by construction.
//!
//! # Key derivation
//!
//! The **base** fingerprint absorbs, in order: the schema string; every
//! [`DcaConfig`] knob that can change a verdict (permutation preset,
//! seed, verify scope, float tolerance bits, digest mode, invocations,
//! step budget, trip limit — *not* `threads` or `obs`, which are
//! guaranteed verdict-neutral); the entry arguments; and the canonical
//! text of the whole module ([`dca_ir::canonical_module`] — the verdict
//! depends on the whole program: callees run inside the loop, and
//! program-end verification observes everything downstream). The
//! **per-loop** key extends a copy of the base with the loop's identity
//! and its canonical body text. Any change to any component lands in the
//! digest, so invalidation is automatic: the old entry simply never
//! matches again. Entries are never evicted; the file is a content-keyed
//! map, not an LRU.
//!
//! # Integrity
//!
//! A cache file is advisory input from disk and is never trusted:
//!
//! * file-level damage (unreadable, truncated, non-JSON, wrong schema)
//!   degrades the whole run to [`CacheDecision::Bypass`] — analysis
//!   proceeds from scratch and the damaged file is left untouched for
//!   inspection;
//! * entry-level damage is caught by a per-entry fingerprint checksum
//!   over the entry's own fields, so a mutated-but-still-parseable entry
//!   is dropped rather than replayed as a wrong verdict.
//!
//! Both paths increment the `engine.cache_fault` counter and neither can
//! panic — the `cache_fuzz` test drives [`dca_rng`]-seeded byte
//! mutations through the loader to hold that line.
//!
//! # What is never cached
//!
//! Verdicts that are not functions of the key: [`SkipReason::Deadline`]
//! (host speed), [`SkipReason::EngineFault`] (contained panic) and
//! [`SkipReason::Cancelled`] (operator action). Runs with
//! verdict-perturbing fault injection or wall deadlines configured
//! bypass the cache wholesale for the same reason — see
//! [`DcaConfig::cache`](crate::DcaConfig::cache).

use crate::config::{DcaConfig, DigestMode, PermutationSet, VerifyScope};
use crate::fault::{FaultKind, FaultPlan};
use crate::outcome::Divergence;
use crate::report::{LoopResult, LoopVerdict, SkipReason, Violation};
use dca_analysis::ExclusionReason;
use dca_interp::{Trap, Value};
use dca_ir::{canonical_loop_body, canonical_module, FuncView, Loop, Module};
use dca_obs::{parse_json, Json};
use dca_rng::Fingerprint;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Schema identifier of the on-disk format. Bumping it orphans every
/// existing file (they load as a schema mismatch → bypass), so bump only
/// when the entry layout itself changes incompatibly; key-derivation
/// changes need no bump — they change the keys, which invalidates
/// entries individually.
pub const SCHEMA: &str = "dca-cache/1";

/// The engine's per-loop cache consultation result.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheDecision {
    /// A valid entry existed; the carried verdict is served without
    /// recording or replaying.
    Hit(CachedVerdict),
    /// The cache was consulted and had no entry; the verdict is computed
    /// and (when cacheable) stored.
    Miss,
    /// The cache was not consulted at all: none configured, the file was
    /// damaged, or the run uses fault injection / wall deadlines.
    Bypass,
}

/// The cached portion of a [`crate::LoopResult`]: the verdict plus the
/// deterministic counters that ride with it. `wall` is deliberately
/// absent (never reproducible), as is `lref` (implied by the key).
#[derive(Debug, Clone, PartialEq)]
pub struct CachedVerdict {
    /// The loop's source tag, if any.
    pub tag: Option<String>,
    /// The verdict.
    pub verdict: LoopVerdict,
    /// Trip count observed during the golden run.
    pub trips: usize,
    /// Permutations executed when the verdict was computed.
    pub permutations_tested: usize,
    /// Interpreter steps the verification consumed when computed.
    pub replay_steps: u64,
}

/// The storable part of a result: everything but the provenance flags
/// and the wall time.
impl From<&LoopResult> for CachedVerdict {
    fn from(r: &LoopResult) -> Self {
        CachedVerdict {
            tag: r.tag.clone(),
            verdict: r.verdict.clone(),
            trips: r.trips,
            permutations_tested: r.permutations_tested,
            replay_steps: r.replay_steps,
        }
    }
}

/// Cache statistics for one analysis run, surfaced as
/// [`crate::DcaReport::cache`] and printed by the CLI footer. All fields
/// are derived from the ordered result vector after the deterministic
/// fold, so they are identical at every worker-thread count.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// The cache file consulted (or that would have been).
    pub path: PathBuf,
    /// True when the whole run bypassed the cache (damaged file, fault
    /// injection, or wall deadlines).
    pub bypassed: bool,
    /// Loops served from the cache.
    pub hits: u64,
    /// Loops consulted but not found.
    pub misses: u64,
    /// New entries written back this run.
    pub stores: u64,
    /// Integrity faults absorbed: file-level damage, checksum-rejected
    /// entries, or a failed write-back. Mirrored as the
    /// `engine.cache_fault` counter.
    pub faults: u64,
}

/// Builds per-loop cache keys for one (config, workload, module) triple.
///
/// Construction does the expensive work once — one streaming fingerprint
/// pass over the canonical module text — and each loop key is a copy of
/// that state plus the loop's identity and body.
pub struct KeyBuilder {
    base: Fingerprint,
}

impl KeyBuilder {
    /// Absorbs the verdict-affecting configuration, the workload and the
    /// whole module into the base fingerprint.
    #[must_use]
    pub fn new(config: &DcaConfig, args: &[Value], module: &Module) -> Self {
        let mut fp = Fingerprint::new();
        fp.push_str(SCHEMA);
        match &config.permutations {
            PermutationSet::Presets { shuffles } => {
                fp.push(0);
                fp.push(u64::from(*shuffles));
            }
            PermutationSet::ReverseOnly => fp.push(1),
            PermutationSet::Shuffles { shuffles } => {
                fp.push(2);
                fp.push(u64::from(*shuffles));
            }
            PermutationSet::Exhaustive {
                max_trip,
                fallback_shuffles,
            } => {
                fp.push(3);
                fp.push(*max_trip as u64);
                fp.push(u64::from(*fallback_shuffles));
            }
        }
        fp.push(config.seed);
        fp.push(match config.verify_scope {
            VerifyScope::ProgramEnd => 0,
            VerifyScope::LoopExit => 1,
        });
        fp.push(config.float_tolerance.to_bits());
        fp.push(match config.digest {
            DigestMode::Auto => 0,
            DigestMode::Structural => 1,
        });
        fp.push(u64::from(config.invocations));
        fp.push(config.max_steps);
        fp.push(config.max_trip as u64);
        // The heap budget changes verdicts (a budgeted replay can skip
        // where an unbudgeted one commits), so it is part of the key.
        match config.max_heap_cells {
            None => fp.push(0),
            Some(cells) => {
                fp.push(1);
                fp.push(cells);
            }
        }
        fp.push(args.len() as u64);
        for v in args {
            match v {
                Value::Int(i) => {
                    fp.push(1);
                    fp.push(*i as u64);
                }
                Value::Float(x) => {
                    fp.push(2);
                    fp.push(x.to_bits());
                }
                Value::Bool(b) => {
                    fp.push(3);
                    fp.push(u64::from(*b));
                }
                // Entry pointers cannot be constructed portably; absorb
                // their debug rendering so distinct values stay distinct.
                other => {
                    fp.push(4);
                    fp.push_str(&format!("{other:?}"));
                }
            }
        }
        fp.push_str(&canonical_module(module));
        KeyBuilder { base: fp }
    }

    /// The 128-bit key for one loop of the module.
    #[must_use]
    pub fn loop_key(&self, view: &FuncView<'_>, l: &Loop) -> u128 {
        let mut fp = self.base;
        fp.push(u64::from(view.id.0));
        fp.push(u64::from(l.id.0));
        fp.push_str(&canonical_loop_body(view.func, l));
        fp.digest()
    }

    /// Keys for every loop of `module` in the engine's deterministic
    /// (function, loop) analysis order — index-aligned with the work
    /// list `analyze` builds.
    #[must_use]
    pub fn all_loop_keys(&self, module: &Module) -> Vec<u128> {
        let mut out = Vec::new();
        for i in 0..module.funcs.len() {
            let view = FuncView::new(module, dca_ir::FuncId(i as u32));
            for l in view.loops.iter() {
                out.push(self.loop_key(&view, l));
            }
        }
        out
    }
}

/// An open verdict cache: the entries loaded from disk plus those stored
/// this run. Lookups are read-only and thread-safe by `&self`; stores
/// happen from the single-threaded post-fold pass in `analyze`.
#[derive(Debug)]
pub struct VerdictCache {
    path: PathBuf,
    entries: BTreeMap<u128, CachedVerdict>,
    /// File-level damage: consult nothing, store nothing.
    bypassed: bool,
    /// Integrity faults observed while loading.
    load_faults: u64,
    /// Entries added this run (subset of `entries`' keys).
    added: u64,
}

impl VerdictCache {
    /// Opens the cache at `path`. A missing file is an empty cache; a
    /// damaged one (unreadable, truncated, non-JSON, schema mismatch)
    /// yields a bypassed cache that serves no hits and writes nothing,
    /// leaving the damaged file in place. Never panics and never errors —
    /// degradation is the contract.
    #[must_use]
    pub fn open(path: &Path) -> Self {
        let mut cache = VerdictCache {
            path: path.to_path_buf(),
            entries: BTreeMap::new(),
            bypassed: false,
            load_faults: 0,
            added: 0,
        };
        if !path.exists() {
            return cache;
        }
        let Ok(text) = std::fs::read_to_string(path) else {
            cache.bypassed = true;
            cache.load_faults = 1;
            return cache;
        };
        match parse_file(&text) {
            Ok((entries, dropped)) => {
                cache.entries = entries;
                cache.load_faults = dropped;
            }
            Err(()) => {
                cache.bypassed = true;
                cache.load_faults = 1;
            }
        }
        cache
    }

    /// A cache that refuses all lookups and stores — used when fault
    /// injection or wall deadlines make verdicts non-functions of the
    /// key. Carries the path so [`CacheStats`] can still report it.
    #[must_use]
    pub fn bypass(path: &Path) -> Self {
        VerdictCache {
            path: path.to_path_buf(),
            entries: BTreeMap::new(),
            bypassed: true,
            load_faults: 0,
            added: 0,
        }
    }

    /// The cache file's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// True when the whole run is bypassing this cache.
    #[must_use]
    pub fn is_bypassed(&self) -> bool {
        self.bypassed
    }

    /// Integrity faults observed while loading the file.
    #[must_use]
    pub fn load_faults(&self) -> u64 {
        self.load_faults
    }

    /// Number of entries currently held (loaded plus stored).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Consults the cache for one loop key.
    #[must_use]
    pub fn decide(&self, key: u128) -> CacheDecision {
        if self.bypassed {
            return CacheDecision::Bypass;
        }
        match self.entries.get(&key) {
            Some(v) => CacheDecision::Hit(v.clone()),
            None => CacheDecision::Miss,
        }
    }

    /// Stores a verdict under `key` if it is cacheable (see the module
    /// docs) and not already present. Returns whether it was stored.
    pub fn store(&mut self, key: u128, v: &CachedVerdict) -> bool {
        if self.bypassed || self.entries.contains_key(&key) || !cacheable(&v.verdict) {
            return false;
        }
        self.entries.insert(key, v.clone());
        self.added += 1;
        true
    }

    /// Writes the cache back to disk (via a sibling temp file and rename,
    /// so a crash mid-write cannot truncate the previous file in place).
    /// A no-op when bypassed or when nothing was added this run.
    ///
    /// # Errors
    ///
    /// Returns the I/O error; callers degrade it to a cache fault.
    pub fn save(&self) -> std::io::Result<()> {
        self.save_faulted(None)
    }

    /// [`save`](Self::save), with an optional [`FaultKind::KillSave`]
    /// plan simulating a process kill at a chosen point of the write:
    /// stage `0` dies after the temp file is fully written but before
    /// the rename; any other stage dies mid temp-file write, leaving a
    /// torn temp file. Either way the previous cache file is untouched —
    /// that is the atomicity property the chaos suite asserts.
    ///
    /// # Errors
    ///
    /// Returns the I/O error (injected or real); callers degrade it to a
    /// cache fault.
    pub fn save_faulted(&self, fault: Option<&FaultPlan>) -> std::io::Result<()> {
        if self.bypassed || self.added == 0 {
            return Ok(());
        }
        let mut doc = String::from("{\"schema\": \"");
        doc.push_str(SCHEMA);
        doc.push_str("\", \"tool\": \"dca ");
        doc.push_str(env!("CARGO_PKG_VERSION"));
        doc.push_str("\", \"entries\": [");
        for (i, (key, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                doc.push(',');
            }
            doc.push_str("\n  ");
            doc.push_str(
                &encode_entry(*key, v)
                    .expect("stored entries are cacheable by construction")
                    .to_string(),
            );
        }
        doc.push_str("\n]}\n");
        let tmp = self.path.with_extension("tmp");
        match fault.map(|p| p.kind) {
            Some(FaultKind::KillSave { stage: 0 }) => {
                std::fs::write(&tmp, &doc)?;
                return Err(std::io::Error::other(
                    "injected kill after temp write, before rename",
                ));
            }
            Some(FaultKind::KillSave { .. }) => {
                std::fs::write(&tmp, &doc[..doc.len() / 2])?;
                return Err(std::io::Error::other("injected kill mid temp write"));
            }
            _ => {}
        }
        std::fs::write(&tmp, &doc)?;
        std::fs::rename(&tmp, &self.path)
    }
}

/// True when the verdict is a pure function of the cache key.
fn cacheable(v: &LoopVerdict) -> bool {
    encode_verdict(v).is_some()
}

/// Parses a whole cache document. `Err(())` means file-level damage
/// (bypass); `Ok` carries the surviving entries plus the count of
/// dropped (checksum- or shape-rejected) ones.
#[allow(clippy::result_unit_err)]
fn parse_file(text: &str) -> Result<(BTreeMap<u128, CachedVerdict>, u64), ()> {
    let doc = parse_json(text).map_err(|_| ())?;
    let obj = doc.as_object().ok_or(())?;
    if obj.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(());
    }
    let list = obj.get("entries").and_then(Json::as_array).ok_or(())?;
    let mut out = BTreeMap::new();
    let mut dropped = 0u64;
    for e in list {
        match decode_entry(e) {
            Some((key, v)) => {
                out.insert(key, v);
            }
            None => dropped += 1,
        }
    }
    Ok((out, dropped))
}

/// The per-entry integrity checksum: a fingerprint over every field the
/// entry carries, so any single-field mutation that survives JSON
/// parsing is still rejected.
fn entry_check(key: u128, v: &CachedVerdict, verdict_json: &str) -> u128 {
    let mut fp = Fingerprint::new();
    fp.push(key as u64);
    fp.push((key >> 64) as u64);
    match &v.tag {
        Some(t) => {
            fp.push(1);
            fp.push_str(t);
        }
        None => fp.push(0),
    }
    fp.push_str(verdict_json);
    fp.push(v.trips as u64);
    fp.push(v.permutations_tested as u64);
    fp.push(v.replay_steps);
    fp.digest()
}

fn encode_entry(key: u128, v: &CachedVerdict) -> Option<Json> {
    let verdict = encode_verdict(&v.verdict)?;
    let verdict_text = verdict.to_string();
    let mut m = BTreeMap::new();
    m.insert("key".to_string(), Json::Str(format!("{key:032x}")));
    m.insert(
        "check".to_string(),
        Json::Str(format!("{:032x}", entry_check(key, v, &verdict_text))),
    );
    m.insert(
        "tag".to_string(),
        match &v.tag {
            Some(t) => Json::Str(t.clone()),
            None => Json::Null,
        },
    );
    m.insert("verdict".to_string(), verdict);
    m.insert("trips".to_string(), Json::Num(v.trips as f64));
    m.insert("perms".to_string(), Json::Num(v.permutations_tested as f64));
    m.insert("replay_steps".to_string(), Json::Num(v.replay_steps as f64));
    Some(Json::Obj(m))
}

fn decode_entry(e: &Json) -> Option<(u128, CachedVerdict)> {
    let m = e.as_object()?;
    let key = u128::from_str_radix(m.get("key")?.as_str()?, 16).ok()?;
    let check = u128::from_str_radix(m.get("check")?.as_str()?, 16).ok()?;
    let tag = match m.get("tag")? {
        Json::Null => None,
        Json::Str(s) => Some(s.clone()),
        _ => return None,
    };
    let verdict_json = m.get("verdict")?;
    let verdict = decode_verdict(verdict_json)?;
    let v = CachedVerdict {
        tag,
        verdict,
        trips: m.get("trips")?.as_u64()? as usize,
        permutations_tested: m.get("perms")?.as_u64()? as usize,
        replay_steps: m.get("replay_steps")?.as_u64()?,
    };
    // Re-encode the verdict through the writer so the checksum covers the
    // canonical text, not whatever byte soup the file held.
    let canon = encode_verdict(&v.verdict)?.to_string();
    if entry_check(key, &v, &canon) != check {
        return None;
    }
    Some((key, v))
}

// ---- verdict serialization ------------------------------------------------
//
// `None` from an encoder means "not cacheable" (deadline/fault verdicts,
// traps carrying non-reconstructible payloads); `None` from a decoder
// means "damaged entry" — both are handled by dropping the entry.

fn obj(kind: &str) -> BTreeMap<String, Json> {
    let mut m = BTreeMap::new();
    m.insert("kind".to_string(), Json::Str(kind.to_string()));
    m
}

pub(crate) fn encode_verdict(v: &LoopVerdict) -> Option<Json> {
    let m = match v {
        LoopVerdict::Commutative => obj("commutative"),
        LoopVerdict::NonCommutative(violation) => {
            let mut m = obj("non_commutative");
            m.insert("violation".to_string(), encode_violation(violation)?);
            m
        }
        LoopVerdict::Excluded(r) => {
            let mut m = obj("excluded");
            m.insert(
                "reason".to_string(),
                Json::Str(
                    match r {
                        ExclusionReason::PerformsIo => "performs_io",
                        ExclusionReason::EmptyPayload => "empty_payload",
                    }
                    .to_string(),
                ),
            );
            m
        }
        LoopVerdict::NotExercised => obj("not_exercised"),
        LoopVerdict::Skipped(r) => {
            let mut m = obj("skipped");
            m.insert("reason".to_string(), encode_skip(r)?);
            m
        }
    };
    Some(Json::Obj(m))
}

pub(crate) fn decode_verdict(j: &Json) -> Option<LoopVerdict> {
    let m = j.as_object()?;
    Some(match m.get("kind")?.as_str()? {
        "commutative" => LoopVerdict::Commutative,
        "non_commutative" => LoopVerdict::NonCommutative(decode_violation(m.get("violation")?)?),
        "excluded" => LoopVerdict::Excluded(match m.get("reason")?.as_str()? {
            "performs_io" => ExclusionReason::PerformsIo,
            "empty_payload" => ExclusionReason::EmptyPayload,
            _ => return None,
        }),
        "not_exercised" => LoopVerdict::NotExercised,
        "skipped" => LoopVerdict::Skipped(decode_skip(m.get("reason")?)?),
        _ => return None,
    })
}

fn encode_violation(v: &Violation) -> Option<Json> {
    let m = match v {
        Violation::OutcomeMismatch(d) => {
            let mut m = obj("outcome_mismatch");
            if let Some(d) = d {
                m.insert("divergence".to_string(), encode_divergence(d));
            }
            m
        }
        Violation::ReplayTrapped(t) => {
            let mut m = obj("replay_trapped");
            m.insert("trap".to_string(), encode_trap(t)?);
            m
        }
        Violation::ReplayDiverged => obj("replay_diverged"),
    };
    Some(Json::Obj(m))
}

fn decode_violation(j: &Json) -> Option<Violation> {
    let m = j.as_object()?;
    Some(match m.get("kind")?.as_str()? {
        "outcome_mismatch" => Violation::OutcomeMismatch(match m.get("divergence") {
            Some(d) => Some(decode_divergence(d)?),
            None => None,
        }),
        "replay_trapped" => Violation::ReplayTrapped(decode_trap(m.get("trap")?)?),
        "replay_diverged" => Violation::ReplayDiverged,
        _ => return None,
    })
}

fn encode_skip(r: &SkipReason) -> Option<Json> {
    let m = match r {
        SkipReason::TripLimit => obj("trip_limit"),
        SkipReason::GoldenTrapped(t) => {
            let mut m = obj("golden_trapped");
            m.insert("trap".to_string(), encode_trap(t)?);
            m
        }
        SkipReason::GoldenBudget => obj("golden_budget"),
        SkipReason::ReplayBudget => obj("replay_budget"),
        // The heap budget is part of the cache key, so a budget skip is a
        // pure function of it — cacheable like the step-budget skips.
        SkipReason::MemoryBudget => obj("memory_budget"),
        // Host-speed, contained-panic and operator-cancellation verdicts
        // are not functions of the key; replaying them from a cache would
        // be a wrong verdict.
        SkipReason::Deadline | SkipReason::EngineFault(_) | SkipReason::Cancelled => return None,
    };
    Some(Json::Obj(m))
}

fn decode_skip(j: &Json) -> Option<SkipReason> {
    let m = j.as_object()?;
    Some(match m.get("kind")?.as_str()? {
        "trip_limit" => SkipReason::TripLimit,
        "golden_trapped" => SkipReason::GoldenTrapped(decode_trap(m.get("trap")?)?),
        "golden_budget" => SkipReason::GoldenBudget,
        "replay_budget" => SkipReason::ReplayBudget,
        "memory_budget" => SkipReason::MemoryBudget,
        _ => return None,
    })
}

fn encode_trap(t: &Trap) -> Option<Json> {
    let m = match t {
        Trap::NullDeref => obj("null_deref"),
        Trap::OutOfBounds { len, index } => {
            let mut m = obj("out_of_bounds");
            m.insert("len".to_string(), Json::Num(*len as f64));
            m.insert("index".to_string(), Json::Num(*index as f64));
            m
        }
        Trap::DivByZero => obj("div_by_zero"),
        Trap::StackOverflow => obj("stack_overflow"),
        Trap::OutOfMemory => obj("out_of_memory"),
        Trap::ArityMismatch { expected, given } => {
            let mut m = obj("arity_mismatch");
            m.insert("expected".to_string(), Json::Num(*expected as f64));
            m.insert("given".to_string(), Json::Num(*given as f64));
            m
        }
        // `IllTyped` carries a `&'static str` that cannot be
        // reconstructed from a file; `Injected`/`NotRunning` are
        // harness-internal and never legitimate verdict payloads.
        Trap::IllTyped(_) | Trap::Injected | Trap::NotRunning => return None,
    };
    Some(Json::Obj(m))
}

fn as_i64(j: &Json) -> Option<i64> {
    match j {
        Json::Num(n) if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) => Some(*n as i64),
        _ => None,
    }
}

fn decode_trap(j: &Json) -> Option<Trap> {
    let m = j.as_object()?;
    Some(match m.get("kind")?.as_str()? {
        "null_deref" => Trap::NullDeref,
        "out_of_bounds" => Trap::OutOfBounds {
            len: m.get("len")?.as_u64()? as usize,
            index: as_i64(m.get("index")?)?,
        },
        "div_by_zero" => Trap::DivByZero,
        "stack_overflow" => Trap::StackOverflow,
        "out_of_memory" => Trap::OutOfMemory,
        "arity_mismatch" => Trap::ArityMismatch {
            expected: m.get("expected")?.as_u64()? as usize,
            given: m.get("given")?.as_u64()? as usize,
        },
        _ => return None,
    })
}

fn str_field(m: &mut BTreeMap<String, Json>, k: &str, v: &str) {
    m.insert(k.to_string(), Json::Str(v.to_string()));
}

fn encode_divergence(d: &Divergence) -> Json {
    let m = match d {
        Divergence::Root {
            name,
            golden,
            permuted,
        } => {
            let mut m = obj("root");
            str_field(&mut m, "name", name);
            str_field(&mut m, "golden", golden);
            str_field(&mut m, "permuted", permuted);
            m
        }
        Divergence::ObjectCount { golden, permuted } => {
            let mut m = obj("object_count");
            m.insert("golden".to_string(), Json::Num(*golden as f64));
            m.insert("permuted".to_string(), Json::Num(*permuted as f64));
            m
        }
        Divergence::ObjectShape {
            object,
            golden,
            permuted,
        } => {
            let mut m = obj("object_shape");
            m.insert("object".to_string(), Json::Num(f64::from(*object)));
            str_field(&mut m, "golden", golden);
            str_field(&mut m, "permuted", permuted);
            m
        }
        Divergence::Cell {
            object,
            cell,
            golden,
            permuted,
        } => {
            let mut m = obj("cell");
            m.insert("object".to_string(), Json::Num(f64::from(*object)));
            m.insert("cell".to_string(), Json::Num(f64::from(*cell)));
            str_field(&mut m, "golden", golden);
            str_field(&mut m, "permuted", permuted);
            m
        }
        Divergence::OutputLen { golden, permuted } => {
            let mut m = obj("output_len");
            m.insert("golden".to_string(), Json::Num(*golden as f64));
            m.insert("permuted".to_string(), Json::Num(*permuted as f64));
            m
        }
        Divergence::Output {
            index,
            golden,
            permuted,
        } => {
            let mut m = obj("output");
            m.insert("index".to_string(), Json::Num(*index as f64));
            str_field(&mut m, "golden", golden);
            str_field(&mut m, "permuted", permuted);
            m
        }
        Divergence::Ret { golden, permuted } => {
            let mut m = obj("ret");
            str_field(&mut m, "golden", golden);
            str_field(&mut m, "permuted", permuted);
            m
        }
    };
    Json::Obj(m)
}

fn decode_divergence(j: &Json) -> Option<Divergence> {
    let m = j.as_object()?;
    let s = |k: &str| -> Option<String> { Some(m.get(k)?.as_str()?.to_string()) };
    Some(match m.get("kind")?.as_str()? {
        "root" => Divergence::Root {
            name: s("name")?,
            golden: s("golden")?,
            permuted: s("permuted")?,
        },
        "object_count" => Divergence::ObjectCount {
            golden: m.get("golden")?.as_u64()? as usize,
            permuted: m.get("permuted")?.as_u64()? as usize,
        },
        "object_shape" => Divergence::ObjectShape {
            object: u32::try_from(m.get("object")?.as_u64()?).ok()?,
            golden: s("golden")?,
            permuted: s("permuted")?,
        },
        "cell" => Divergence::Cell {
            object: u32::try_from(m.get("object")?.as_u64()?).ok()?,
            cell: u32::try_from(m.get("cell")?.as_u64()?).ok()?,
            golden: s("golden")?,
            permuted: s("permuted")?,
        },
        "output_len" => Divergence::OutputLen {
            golden: m.get("golden")?.as_u64()? as usize,
            permuted: m.get("permuted")?.as_u64()? as usize,
        },
        "output" => Divergence::Output {
            index: m.get("index")?.as_u64()? as usize,
            golden: s("golden")?,
            permuted: s("permuted")?,
        },
        "ret" => Divergence::Ret {
            golden: s("golden")?,
            permuted: s("permuted")?,
        },
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(label: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dca-cache-unit-{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn sample_verdicts() -> Vec<LoopVerdict> {
        vec![
            LoopVerdict::Commutative,
            LoopVerdict::NotExercised,
            LoopVerdict::Excluded(ExclusionReason::PerformsIo),
            LoopVerdict::Excluded(ExclusionReason::EmptyPayload),
            LoopVerdict::Skipped(SkipReason::TripLimit),
            LoopVerdict::Skipped(SkipReason::GoldenBudget),
            LoopVerdict::Skipped(SkipReason::ReplayBudget),
            LoopVerdict::Skipped(SkipReason::MemoryBudget),
            LoopVerdict::Skipped(SkipReason::GoldenTrapped(Trap::DivByZero)),
            LoopVerdict::NonCommutative(Violation::ReplayDiverged),
            LoopVerdict::NonCommutative(Violation::OutcomeMismatch(None)),
            LoopVerdict::NonCommutative(Violation::ReplayTrapped(Trap::OutOfBounds {
                len: 8,
                index: -3,
            })),
            LoopVerdict::NonCommutative(Violation::ReplayTrapped(Trap::ArityMismatch {
                expected: 2,
                given: 3,
            })),
            LoopVerdict::NonCommutative(Violation::OutcomeMismatch(Some(Divergence::Root {
                name: "s".into(),
                golden: "1".into(),
                permuted: "2".into(),
            }))),
            LoopVerdict::NonCommutative(Violation::OutcomeMismatch(Some(
                Divergence::ObjectCount {
                    golden: 3,
                    permuted: 4,
                },
            ))),
            LoopVerdict::NonCommutative(Violation::OutcomeMismatch(Some(
                Divergence::ObjectShape {
                    object: 7,
                    golden: "array[4]".into(),
                    permuted: "array[5]".into(),
                },
            ))),
            LoopVerdict::NonCommutative(Violation::OutcomeMismatch(Some(Divergence::Cell {
                object: 1,
                cell: 2,
                golden: "9".into(),
                permuted: "q\"\n".into(),
            }))),
            LoopVerdict::NonCommutative(Violation::OutcomeMismatch(Some(Divergence::OutputLen {
                golden: 1,
                permuted: 0,
            }))),
            LoopVerdict::NonCommutative(Violation::OutcomeMismatch(Some(Divergence::Output {
                index: 0,
                golden: "a".into(),
                permuted: "b".into(),
            }))),
            LoopVerdict::NonCommutative(Violation::OutcomeMismatch(Some(Divergence::Ret {
                golden: "1".into(),
                permuted: "2".into(),
            }))),
        ]
    }

    fn cached(verdict: LoopVerdict) -> CachedVerdict {
        CachedVerdict {
            tag: Some("t".into()),
            verdict,
            trips: 4,
            permutations_tested: 3,
            replay_steps: 123,
        }
    }

    #[test]
    fn every_cacheable_verdict_round_trips() {
        for (i, v) in sample_verdicts().into_iter().enumerate() {
            let entry = cached(v.clone());
            let key = 0x1234_5678_9abc_def0_u128 + i as u128;
            let json = encode_entry(key, &entry).expect("cacheable");
            let (k2, back) =
                decode_entry(&parse_json(&json.to_string()).expect("parse")).expect("round trip");
            assert_eq!(k2, key);
            assert_eq!(back, entry, "verdict {v:?}");
        }
    }

    #[test]
    fn non_key_verdicts_are_never_cacheable() {
        for v in [
            LoopVerdict::Skipped(SkipReason::Deadline),
            LoopVerdict::Skipped(SkipReason::Cancelled),
            LoopVerdict::Skipped(SkipReason::EngineFault("boom".into())),
            LoopVerdict::NonCommutative(Violation::ReplayTrapped(Trap::IllTyped("op"))),
            LoopVerdict::NonCommutative(Violation::ReplayTrapped(Trap::Injected)),
            LoopVerdict::Skipped(SkipReason::GoldenTrapped(Trap::NotRunning)),
        ] {
            assert!(!cacheable(&v), "{v:?} must not be cacheable");
        }
    }

    #[test]
    fn save_load_round_trips_and_dedups() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("cache.json");
        let mut c = VerdictCache::open(&path);
        assert!(c.is_empty());
        for (i, v) in sample_verdicts().into_iter().enumerate() {
            assert!(c.store(i as u128, &cached(v)));
        }
        // Storing the same key again is a no-op.
        assert!(!c.store(0, &cached(LoopVerdict::Commutative)));
        // Non-cacheable verdicts are refused.
        assert!(!c.store(999, &cached(LoopVerdict::Skipped(SkipReason::Deadline))));
        c.save().expect("save");
        let back = VerdictCache::open(&path);
        assert_eq!(back.load_faults(), 0);
        assert_eq!(back.len(), sample_verdicts().len());
        for (i, v) in sample_verdicts().into_iter().enumerate() {
            match back.decide(i as u128) {
                CacheDecision::Hit(h) => assert_eq!(h, cached(v)),
                other => panic!("expected hit, got {other:?}"),
            }
        }
        assert_eq!(back.decide(999), CacheDecision::Miss);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_empty_not_bypassed() {
        let dir = tmpdir("missing");
        let c = VerdictCache::open(&dir.join("nope.json"));
        assert!(!c.is_bypassed());
        assert_eq!(c.load_faults(), 0);
        assert_eq!(c.decide(1), CacheDecision::Miss);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damaged_files_degrade_to_bypass() {
        let dir = tmpdir("damaged");
        for (name, text) in [
            ("garbage.json", "not json at all"),
            (
                "truncated.json",
                "{\"schema\": \"dca-cache/1\", \"entries\": [",
            ),
            (
                "wrong_schema.json",
                "{\"schema\": \"dca-cache/999\", \"entries\": []}",
            ),
            ("not_object.json", "[1, 2, 3]"),
            ("no_entries.json", "{\"schema\": \"dca-cache/1\"}"),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, text).expect("write");
            let c = VerdictCache::open(&path);
            assert!(c.is_bypassed(), "{name} must bypass");
            assert_eq!(c.load_faults(), 1, "{name} counts one fault");
            assert_eq!(c.decide(1), CacheDecision::Bypass);
            // Bypassed caches never write: the damaged file survives for
            // inspection.
            let mut c = c;
            assert!(!c.store(1, &cached(LoopVerdict::Commutative)));
            c.save().expect("no-op save");
            assert_eq!(
                std::fs::read_to_string(&path).expect("read"),
                text,
                "{name} left untouched"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checksum_rejects_field_tampering() {
        let dir = tmpdir("tamper");
        let path = dir.join("cache.json");
        let mut c = VerdictCache::open(&path);
        assert!(c.store(7, &cached(LoopVerdict::Commutative)));
        c.save().expect("save");
        let text = std::fs::read_to_string(&path).expect("read");
        // Flip the verdict while keeping the JSON valid: the checksum
        // must reject the entry rather than serve a wrong verdict.
        let tampered = text.replace("commutative", "not_exercised");
        assert_ne!(text, tampered, "substitution applied");
        std::fs::write(&path, &tampered).expect("write");
        let back = VerdictCache::open(&path);
        assert!(!back.is_bypassed(), "entry damage is not file damage");
        assert_eq!(back.load_faults(), 1);
        assert_eq!(back.decide(7), CacheDecision::Miss);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kill_save_fault_never_touches_the_real_file() {
        let dir = tmpdir("killsave");
        let path = dir.join("cache.json");
        let mut c = VerdictCache::open(&path);
        assert!(c.store(1, &cached(LoopVerdict::Commutative)));
        c.save().expect("clean save");
        let before = std::fs::read_to_string(&path).expect("read");
        let mut c = VerdictCache::open(&path);
        assert!(c.store(2, &cached(LoopVerdict::NotExercised)));
        for stage in [0u64, 1] {
            let plan = FaultPlan {
                kind: FaultKind::KillSave { stage },
                loop_ordinal: 0,
                replay: 0,
            };
            let err = c.save_faulted(Some(&plan)).expect_err("injected kill");
            assert!(err.to_string().contains("injected kill"), "{err}");
            assert_eq!(
                std::fs::read_to_string(&path).expect("read"),
                before,
                "stage {stage} left the real file untouched"
            );
        }
        // A later clean save overwrites the stale temp file and lands.
        c.save().expect("save");
        let back = VerdictCache::open(&path);
        assert_eq!(back.load_faults(), 0);
        assert_eq!(back.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn key_builder_separates_config_args_and_program() {
        let m1 = dca_ir::compile(
            "fn main() -> int { let i: int = 0; let s: int = 0;
             @l: while (i < 4) { s = s + i; i = i + 1; } return s; }",
        )
        .expect("compile");
        let m2 = dca_ir::compile(
            "fn main() -> int { let i: int = 0; let s: int = 0;
             @l: while (i < 5) { s = s + i; i = i + 1; } return s; }",
        )
        .expect("compile");
        let cfg = DcaConfig::fast();
        let base = KeyBuilder::new(&cfg, &[], &m1).all_loop_keys(&m1);
        assert_eq!(base.len(), 1);
        // Same everything → same key.
        assert_eq!(base, KeyBuilder::new(&cfg, &[], &m1).all_loop_keys(&m1));
        // Different program → different key.
        assert_ne!(base, KeyBuilder::new(&cfg, &[], &m2).all_loop_keys(&m2));
        // Different verdict-affecting knobs → different keys.
        let mut seen = vec![base[0]];
        for other in [
            DcaConfig {
                seed: 43,
                ..DcaConfig::fast()
            },
            DcaConfig {
                permutations: PermutationSet::ReverseOnly,
                ..DcaConfig::fast()
            },
            DcaConfig {
                float_tolerance: 0.0,
                ..DcaConfig::fast()
            },
            DcaConfig {
                verify_scope: VerifyScope::LoopExit,
                ..DcaConfig::fast()
            },
            DcaConfig {
                digest: DigestMode::Structural,
                ..DcaConfig::fast()
            },
            DcaConfig {
                invocations: 2,
                ..DcaConfig::fast()
            },
            DcaConfig {
                max_steps: 1,
                ..DcaConfig::fast()
            },
            DcaConfig {
                max_trip: 3,
                ..DcaConfig::fast()
            },
            DcaConfig {
                max_heap_cells: Some(1 << 20),
                ..DcaConfig::fast()
            },
        ] {
            let k = KeyBuilder::new(&other, &[], &m1).all_loop_keys(&m1)[0];
            assert!(!seen.contains(&k), "knob change must change the key");
            seen.push(k);
        }
        // Thread count and obs options are verdict-neutral: same key.
        let threads = DcaConfig {
            threads: 7,
            obs: crate::ObsOptions::metrics(),
            ..DcaConfig::fast()
        };
        assert_eq!(
            base[0],
            KeyBuilder::new(&threads, &[], &m1).all_loop_keys(&m1)[0]
        );
        // Different workload arguments → different key.
        let k_args = KeyBuilder::new(&cfg, &[Value::Int(3)], &m1).all_loop_keys(&m1)[0];
        assert_ne!(base[0], k_args);
        assert_ne!(
            k_args,
            KeyBuilder::new(&cfg, &[Value::Float(3.0)], &m1).all_loop_keys(&m1)[0],
            "arg type is part of the key"
        );
        std::mem::drop(seen);
    }
}
