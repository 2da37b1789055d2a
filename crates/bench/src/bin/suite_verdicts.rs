//! Analyzes every suite program on its test workload and prints one
//! stable line per loop verdict, then two aggregate footers: a
//! `cache-stats:` line for the verdict cache (`DCA_CACHE`) and a
//! `journal-stats:` line for the run journal (`DCA_JOURNAL`), each
//! saying `disabled` when its store is not configured.
//!
//! CI runs this in two jobs:
//!
//! - `cache` runs it twice against one `DCA_CACHE` file and fails when
//!   the verdict lines differ between runs or the second run serves
//!   zero hits — the end-to-end proof that warm verdicts are
//!   indistinguishable from fresh ones.
//! - `interrupt` runs it three times: once fault-free for an oracle,
//!   once with a `DCA_FAULT=cancel@…` plan stopping the run
//!   mid-verification against a `DCA_JOURNAL`, and once more against
//!   the same journal with the fault cleared. It fails when the resumed
//!   verdict lines differ from the oracle or the resume serves nothing
//!   from the journal — the proof that a killed run resumes exactly
//!   where it stopped.
//!
//! The verdict lines deliberately include the full verdict payload
//! (violation details, trip counts, permutation counts, replay steps)
//! so a served verdict that drifted in *any* field breaks the diff, not
//! just one whose headline class changed. Provenance fields expected to
//! differ between runs (`cached`, `resumed`, wall time) are absent.

use dca_core::{CacheStats, Dca, DcaConfig, RunJournalStats};
use std::process::ExitCode;

fn main() -> ExitCode {
    let dca = Dca::new(DcaConfig::fast());
    let mut cache: Option<(CacheStats, u64)> = None;
    let mut journal: Option<(RunJournalStats, u64)> = None;
    for p in dca_suite::all_programs() {
        let m = p.module();
        let report = match dca.analyze(&m, &p.targs()) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {}: {e}", p.name);
                return ExitCode::FAILURE;
            }
        };
        for r in report.iter() {
            let tag = r
                .tag
                .as_deref()
                .map(|t| format!(" @{t}"))
                .unwrap_or_default();
            println!(
                "{} {}{tag}: {} trips={} perms={} steps={}",
                p.name, r.lref, r.verdict, r.trips, r.permutations_tested, r.replay_steps
            );
        }
        // Totals over the suite; `bypassed` counts programs.
        if let Some(s) = &report.cache {
            let (t, bypassed) = cache.get_or_insert_with(Default::default);
            t.hits += s.hits;
            t.misses += s.misses;
            t.stores += s.stores;
            t.faults += s.faults;
            *bypassed += u64::from(s.bypassed);
        }
        if let Some(s) = &report.journal {
            let (t, bypassed) = journal.get_or_insert_with(Default::default);
            t.resumed += s.resumed;
            t.recorded += s.recorded;
            t.quarantined = t.quarantined.max(s.quarantined);
            t.dropped += s.dropped;
            t.faults += s.faults;
            *bypassed += u64::from(s.bypassed);
        }
    }
    match cache {
        Some((t, bypassed)) => {
            let consults = t.hits + t.misses;
            let rate = if consults > 0 {
                100.0 * t.hits as f64 / consults as f64
            } else {
                0.0
            };
            println!(
                "cache-stats: hits={} misses={} stores={} faults={} bypassed={bypassed} \
                 hit_rate={rate:.1}%",
                t.hits, t.misses, t.stores, t.faults
            );
        }
        None => println!("cache-stats: disabled (set DCA_CACHE)"),
    }
    match journal {
        Some((t, bypassed)) => println!(
            "journal-stats: resumed={} recorded={} quarantined={} dropped={} faults={} \
             bypassed={bypassed}",
            t.resumed, t.recorded, t.quarantined, t.dropped, t.faults
        ),
        None => println!("journal-stats: disabled (set DCA_JOURNAL)"),
    }
    ExitCode::SUCCESS
}
