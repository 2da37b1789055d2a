//! The recorded reference every benchmark pass is checked against.
//!
//! One file per workload under `perfbench/reference/`, one line per
//! operation (a loop verdict, a loop execution or a cache lookup), with
//! tab-separated fields (aligned with spaces here):
//!
//! ```text
//! # workload=suite-default seed=42
//! ep  gen  verdict  commutative  64  4
//! ep  gen  exec     validated    0123…cdef
//! ep  gen  warm     hit
//! ```
//!
//! The files are written by `perfbench --record-reference` and are only
//! rewritten when a change is meant to move a verdict; a mismatch in any
//! field counts the operation as failed.
//!
//! DCA tests a sample of permutations, so a loop refuted by one shuffle
//! seed can pass under another. Recording therefore also analyzes the
//! suite at every seed below [`crate::workload::SCAN_SEEDS`], the range
//! every run's shuffle seed is reduced into, and lists every class a
//! loop showed, reference-seed class first: `non-commutative|commutative`.

use std::fmt;

/// What one operation produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// A loop verdict of the analysis workloads.
    Verdict {
        /// Verdict class (`commutative`, `non-commutative`, ...); in a
        /// reference, the `|`-separated classes seen across seeds.
        class: String,
        /// Trip count of the golden invocation.
        trips: usize,
        /// Permutations replayed.
        perms: usize,
    },
    /// One `execute_loop` call.
    Exec {
        /// Outcome class (`validated`, `not-decomposable`, ...).
        class: String,
        /// The sequential oracle's live-out fingerprint, when one ran.
        fp: Option<u128>,
    },
    /// One verdict lookup against the warmed cache.
    Warm {
        /// Whether the verdict came from the cache.
        hit: bool,
    },
}

/// One operation: the loop it concerns and its outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Suite program name.
    pub prog: String,
    /// Loop tag within the program.
    pub tag: String,
    /// What the operation produced.
    pub outcome: Outcome,
}

impl Entry {
    /// The verdict or execution class, when the outcome has one.
    pub fn class(&self) -> Option<&str> {
        match &self.outcome {
            Outcome::Verdict { class, .. } | Outcome::Exec { class, .. } => Some(class),
            Outcome::Warm { .. } => None,
        }
    }
}

impl fmt::Display for Entry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}\t{}\t", self.prog, self.tag)?;
        match &self.outcome {
            Outcome::Verdict {
                class,
                trips,
                perms,
            } => write!(f, "verdict\t{class}\t{trips}\t{perms}"),
            Outcome::Exec {
                class,
                fp: Some(fp),
            } => write!(f, "exec\t{class}\t{fp:032x}"),
            Outcome::Exec { class, fp: None } => write!(f, "exec\t{class}\t-"),
            Outcome::Warm { hit } => write!(f, "warm\t{}", if *hit { "hit" } else { "miss" }),
        }
    }
}

/// A parsed reference file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    /// Workload name from the header.
    pub workload: String,
    /// Benchmark seed the reference was recorded at.
    pub seed: u64,
    /// One entry per operation, in pass order.
    pub entries: Vec<Entry>,
}

impl Reference {
    /// Parses the text format described in the module docs.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or("empty reference")?;
        let mut workload = None;
        let mut seed = None;
        for kv in header.trim_start_matches('#').split_whitespace() {
            match kv.split_once('=') {
                Some(("workload", w)) => workload = Some(w.to_string()),
                Some(("seed", s)) => seed = s.parse().ok(),
                _ => {}
            }
        }
        let (Some(workload), Some(seed)) = (workload, seed) else {
            return Err(format!("bad reference header `{header}`"));
        };
        let mut entries = Vec::new();
        for (i, line) in lines {
            if line.trim().is_empty() || line.starts_with('#') {
                continue;
            }
            entries.push(parse_entry(line).map_err(|e| format!("line {}: {e}", i + 1))?);
        }
        Ok(Reference {
            workload,
            seed,
            entries,
        })
    }

    /// Renders the reference back into its text format.
    pub fn render(&self) -> String {
        let mut out = format!("# workload={} seed={}\n", self.workload, self.seed);
        for e in &self.entries {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }
}

fn parse_entry(line: &str) -> Result<Entry, String> {
    let f: Vec<&str> = line.split('\t').collect();
    let num = |s: &str| s.parse::<usize>().map_err(|e| format!("`{s}`: {e}"));
    let outcome = match f.as_slice() {
        [_, _, "verdict", class, trips, perms] => Outcome::Verdict {
            class: (*class).to_string(),
            trips: num(trips)?,
            perms: num(perms)?,
        },
        [_, _, "exec", class, fp] => Outcome::Exec {
            class: (*class).to_string(),
            fp: match *fp {
                "-" => None,
                hex => Some(u128::from_str_radix(hex, 16).map_err(|e| format!("`{hex}`: {e}"))?),
            },
        },
        [_, _, "warm", hit] => Outcome::Warm {
            hit: match *hit {
                "hit" => true,
                "miss" => false,
                other => return Err(format!("`{other}` is neither hit nor miss")),
            },
        },
        _ => return Err(format!("malformed entry `{line}`")),
    };
    Ok(Entry {
        prog: f[0].to_string(),
        tag: f[1].to_string(),
        outcome,
    })
}

/// Compares one pass's observations with the reference and returns one
/// message per failed operation.
///
/// Trip counts, execution classes, oracle fingerprints and hit flags are
/// independent of the benchmark seed and must match exactly. A verdict
/// class must equal the reference's first class at the reference seed,
/// and be one of its listed classes at any other. The number of permutations replayed depends on the shuffle
/// seed (duplicate shuffles of short loops are dropped, and a refuted
/// loop stops at its first violating order), so it is compared exactly
/// only at the seed the reference was recorded at. At any other seed a
/// commutative loop must have replayed exactly `perm_bounds[i]` orders —
/// the size of its deduplicated schedule — and any other loop at most
/// that many.
pub fn check(
    reference: &Reference,
    seed: u64,
    observed: &[Entry],
    perm_bounds: &[usize],
) -> Vec<String> {
    let mut failures = Vec::new();
    for (i, obs) in observed.iter().enumerate() {
        let Some(want) = reference.entries.get(i) else {
            failures.push(format!("unexpected operation {obs}"));
            continue;
        };
        let same = want.prog == obs.prog
            && want.tag == obs.tag
            && match (&want.outcome, &obs.outcome) {
                (
                    Outcome::Verdict {
                        class: wc,
                        trips: wt,
                        perms: wp,
                    },
                    Outcome::Verdict {
                        class: oc,
                        trips: ot,
                        perms: op,
                    },
                ) => {
                    let perms_ok = if seed == reference.seed {
                        wp == op
                    } else {
                        let bound = perm_bounds.get(i).copied().unwrap_or(0);
                        if oc == "commutative" {
                            *op == bound
                        } else {
                            *op <= bound
                        }
                    };
                    let class_ok = if seed == reference.seed {
                        wc.split('|').next() == Some(oc.as_str())
                    } else {
                        wc.split('|').any(|c| c == oc)
                    };
                    class_ok && wt == ot && perms_ok
                }
                (w, o) => w == o,
            };
        if !same {
            failures.push(format!("expected `{want}`, got `{obs}`"));
        }
    }
    for want in reference.entries.iter().skip(observed.len()) {
        failures.push(format!("missing operation `{want}`"));
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    const WORKLOADS: [&str; 4] = ["suite-default", "suite-exact", "execute", "suite-warm"];

    fn load(workload: &str) -> Reference {
        let path = format!("{}/reference/{workload}.tsv", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).expect("reference file is committed");
        Reference::parse(&text).expect("reference parses")
    }

    /// What a pass at the reference seed observes: each verdict's first
    /// listed class.
    fn observed(r: &Reference) -> Vec<Entry> {
        let mut entries = r.entries.clone();
        for e in &mut entries {
            if let Outcome::Verdict { class, .. } = &mut e.outcome {
                *class = class.split('|').next().unwrap().to_string();
            }
        }
        entries
    }

    /// Permutation bounds under which the reference itself passes at any
    /// seed: each recorded count, which a commutative loop must hit.
    fn bounds(r: &Reference) -> Vec<usize> {
        r.entries
            .iter()
            .map(|e| match e.outcome {
                Outcome::Verdict { perms, .. } => perms,
                _ => 0,
            })
            .collect()
    }

    #[test]
    fn committed_references_round_trip_and_match_themselves() {
        for w in WORKLOADS {
            let r = load(w);
            assert_eq!(r.workload, w);
            assert!(!r.entries.is_empty(), "{w} reference is empty");
            assert_eq!(Reference::parse(&r.render()).unwrap(), r);
            assert!(check(&r, r.seed, &observed(&r), &[]).is_empty());
            assert!(check(&r, r.seed + 1, &observed(&r), &bounds(&r)).is_empty());
        }
    }

    #[test]
    fn a_flipped_reference_entry_is_one_failed_operation() {
        for w in WORKLOADS {
            let truth = load(w);
            // Flip an entry near the middle of the reference; the
            // unchanged observations must now fail exactly there.
            let mut flipped = truth.clone();
            let mid = (flipped.entries.len() / 2..)
                .find(|&i| !flipped.entries[i].class().is_some_and(|c| c.contains('|')))
                .unwrap();
            match &mut flipped.entries[mid].outcome {
                Outcome::Verdict { class, .. } | Outcome::Exec { class, .. } => {
                    *class = if class == "commutative" {
                        "non-commutative".into()
                    } else {
                        "commutative".into()
                    };
                }
                Outcome::Warm { hit } => *hit = !*hit,
            }
            let failures = check(&flipped, truth.seed, &observed(&truth), &[]);
            assert_eq!(failures.len(), 1, "{w}: {failures:?}");
        }
    }

    #[test]
    fn every_field_is_checked() {
        let r = load("suite-default");
        let i = r
            .entries
            .iter()
            .position(|e| matches!(e.outcome, Outcome::Verdict { ref class, .. } if class == "commutative"))
            .unwrap();
        let mut obs = observed(&r);
        if let Outcome::Verdict { trips, .. } = &mut obs[i].outcome {
            *trips += 1;
        }
        assert_eq!(check(&r, r.seed, &obs, &[]).len(), 1, "trips");
        let mut obs = observed(&r);
        if let Outcome::Verdict { perms, .. } = &mut obs[i].outcome {
            *perms += 1;
        }
        assert_eq!(
            check(&r, r.seed, &obs, &[]).len(),
            1,
            "perms at the reference seed"
        );
        assert_eq!(
            check(&r, r.seed + 1, &obs, &bounds(&r)).len(),
            1,
            "perms off the schedule"
        );
        obs[i].tag.push('x');
        assert_eq!(check(&r, r.seed, &obs, &[]).len(), 1, "loop identity");

        // A loop refuted at the reference seed may pass at another seed
        // only when the reference lists both classes.
        let k = r
            .entries
            .iter()
            .position(|e| e.class() == Some("non-commutative"))
            .expect("the suite has refuted loops");
        let mut obs = observed(&r);
        if let Outcome::Verdict { class, perms, .. } = &mut obs[k].outcome {
            *class = "commutative".into();
            *perms = 1;
        }
        let mut b = bounds(&r);
        b[k] = 1;
        assert_eq!(
            check(&r, r.seed, &obs, &[]).len(),
            1,
            "class at the reference seed"
        );
        assert_eq!(check(&r, r.seed + 1, &obs, &b).len(), 1, "unlisted class");
        let mut listed = r.clone();
        if let Outcome::Verdict { class, .. } = &mut listed.entries[k].outcome {
            class.push_str("|commutative");
        }
        assert!(
            check(&listed, r.seed + 1, &obs, &b).is_empty(),
            "listed class"
        );

        let x = load("execute");
        let mut obs = x.entries.clone();
        let j = obs
            .iter()
            .position(|e| matches!(e.outcome, Outcome::Exec { fp: Some(_), .. }))
            .unwrap();
        if let Outcome::Exec { fp: Some(fp), .. } = &mut obs[j].outcome {
            *fp ^= 1;
        }
        assert_eq!(check(&x, x.seed, &obs, &[]).len(), 1, "oracle fingerprint");
        assert_eq!(
            check(&x, x.seed, &obs[1..], &[]).len(),
            obs.len(),
            "shifted pass"
        );
        assert_eq!(
            check(&x, x.seed, &obs[..obs.len() - 2], &[]).len(),
            3,
            "short pass"
        );
    }
}
