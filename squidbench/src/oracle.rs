//! The wire-vs-library oracle: every session the server served is replayed
//! through an in-process `SquidSession`, and each SQL the server returned
//! must equal the replay's SQL at the same point, byte for byte.

use std::time::Instant;

use squid_adb::ADb;
use squid_core::{Accuracy, SessionOp, SquidParams, SquidSession};
use squid_engine::Executor;

use crate::drive::SessionLog;
use crate::gen::{Gen, Intent};

/// Replay `ops` and return the session plus its SQL after each op
/// (`sqls[i]` is the SQL once `i` ops are applied).
/// An acknowledged op the library rejects is itself a mismatch.
pub fn replay<'a>(
    adb: &'a ADb,
    ops: &[SessionOp],
) -> Result<(SquidSession<'a>, Vec<Option<String>>), String> {
    let mut s = SquidSession::with_params(adb, SquidParams::default());
    let mut sqls = vec![None];
    for op in ops {
        op.apply(&mut s)
            .map_err(|e| format!("acknowledged op {op:?} fails in the library: {e}"))?;
        sqls.push(s.discovery().map(|d| d.sql()));
    }
    Ok((s, sqls))
}

#[derive(Default)]
pub struct Verdict {
    pub sessions: u64,
    pub sql_checked: u64,
    pub sql_mismatches: u64,
    pub first_mismatch: Option<String>,
    /// Final replayed SQL per (connection, slot), for durability checks.
    pub final_sql: Vec<Vec<Option<String>>>,
    pub f1_mean: f64,
    pub f1_sessions: usize,
    pub abduced_query_ms: f64,
}

/// Check every served SQL against the replay, then score and time the
/// scored sessions.
///
/// Sessions whose global index is below `scored` are scored for `f1_mean`
/// and timed for `abduced_query_ms` as they stood once their opening
/// script was applied: every run completes those scripts, so both figures
/// are a function of the seed.
pub fn check(
    adb: &ADb,
    intents: &[Intent],
    gens: &[Gen<'_>],
    logs: &[&[SessionLog]],
    scored: usize,
) -> Verdict {
    let mut v = Verdict::default();
    // One thread per connection's sessions: the load is over, so the
    // replay has the machine to itself.
    let parts: Vec<ConnCheck> = std::thread::scope(|scope| {
        let handles: Vec<_> = logs
            .iter()
            .enumerate()
            .map(|(c, conn_logs)| {
                scope.spawn(move || check_conn(adb, intents, &gens[c], c, conn_logs, scored))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    let mut scored: Vec<(usize, f64, squid_engine::Query)> = Vec::new();
    for mut p in parts {
        v.sessions += p.sessions;
        v.sql_checked += p.sql_checked;
        v.sql_mismatches += p.sql_mismatches;
        if v.first_mismatch.is_none() {
            v.first_mismatch = p.first_mismatch;
        }
        v.final_sql.push(p.final_sql);
        scored.append(&mut p.scored);
    }
    scored.sort_by_key(|s| s.0);
    v.f1_sessions = scored.len();
    v.f1_mean = scored.iter().map(|s| s.1).sum::<f64>() / scored.len().max(1) as f64;
    // Paper Fig. 11: the abduced query's own execution time, in αDB form
    // when it has one; best of three per query. The mean over queries:
    // per-intent times cluster orders of magnitude apart (1 µs to 5 ms), so
    // a median flips between clusters from seed to seed, and a geometric
    // mean follows how many near-empty queries a seed happens to draw.
    let exec = Executor::new(&adb.database);
    let times: Vec<f64> = scored
        .iter()
        .map(|(_, _, q)| {
            (0..3)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(exec.execute(std::hint::black_box(q)).ok());
                    t.elapsed().as_secs_f64() * 1e3
                })
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    v.abduced_query_ms = times.iter().sum::<f64>() / times.len().max(1) as f64;
    v
}

#[derive(Default)]
struct ConnCheck {
    sessions: u64,
    sql_checked: u64,
    sql_mismatches: u64,
    first_mismatch: Option<String>,
    final_sql: Vec<Option<String>>,
    scored: Vec<(usize, f64, squid_engine::Query)>,
}

fn check_conn(
    adb: &ADb,
    intents: &[Intent],
    gen: &Gen<'_>,
    c: usize,
    conn_logs: &[SessionLog],
    limit: usize,
) -> ConnCheck {
    let mut v = ConnCheck::default();
    for (slot, log) in conn_logs.iter().enumerate() {
        v.sessions += 1;
        let sqls = match replay(adb, &log.ops) {
            Ok((_, sqls)) => sqls,
            Err(e) => {
                v.sql_mismatches += 1;
                v.first_mismatch
                    .get_or_insert_with(|| format!("conn {c} slot {slot}: {e}"));
                v.final_sql.push(None);
                continue;
            }
        };
        for (at, served) in &log.sqls {
            v.sql_checked += 1;
            if sqls[*at] != *served {
                v.sql_mismatches += 1;
                v.first_mismatch.get_or_insert_with(|| {
                    format!(
                        "conn {c} slot {slot} after {at} ops: served {served:?}, library {:?}",
                        sqls[*at]
                    )
                });
            }
        }
        v.final_sql.push(sqls.last().cloned().flatten());
        let meta = &gen.slots[slot];
        if meta.global < limit && log.ops.len() >= meta.script_ops {
            if let Ok((s, _)) = replay(adb, &log.ops[..meta.script_ops]) {
                if let Some(d) = s.discovery() {
                    let f1 = Accuracy::of(&d.rows, &intents[meta.intent].truth).f_score;
                    let q = d.adb_query.clone().unwrap_or_else(|| d.query.clone());
                    v.scored.push((meta.global, f1, q));
                }
            }
        }
    }
    v
}
