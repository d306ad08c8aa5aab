//! The traced run's in-process half: the requests a traced phase sent are
//! replayed through each layer's public functions, with a span recorded
//! around every call. Spans live in memory and are written out at the end.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use squid_adb::{ADb, FilterSetCache};
use squid_core::{
    abduce_filters, evaluate_cached, ContextState, FsyncPolicy, Journal, SessionManager, SessionOp,
    SquidParams, SquidSession,
};
use squid_relation::RowId;
use squid_serve::parse_request;

use crate::drive::{SessionLog, TraceRec};
use crate::gen::{Class, Req};
use crate::stats;

/// One timed call. `req` ties the spans of one request together; the
/// parent of every layer span is that request's served round trip.
pub struct Span {
    pub req: u64,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub dur_ns: u64,
}

pub struct Spans {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn time<T>(&mut self, req: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let dur_ns = start.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            req,
            name,
            parent: Some(SERVED),
            start_ns: (start - self.t0).as_nanos() as u64,
            dur_ns,
        });
        out
    }

    pub fn record(&mut self, req: u64, name: &'static str, dur_ns: u64) {
        self.spans.push(Span {
            req,
            name,
            parent: None,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            dur_ns,
        });
    }

    /// Durations of every span called `name`, in microseconds.
    pub fn micros(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e3)
            .collect()
    }

    pub fn median_us(&self, name: &str) -> f64 {
        stats::median(&mut self.micros(name))
    }

    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "req\tname\tparent\tstart_ns\tdur_ns")?;
        for s in &self.spans {
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}",
                s.req,
                s.name,
                s.parent.unwrap_or("-"),
                s.start_ns,
                s.dur_ns
            )?;
        }
        w.flush()
    }
}

/// The client-side span of a served request.
pub const SERVED: &str = "serve.rtt";

/// A session's in-process twins: one inside a journaled manager (the
/// server's apply path) and a shadow without a journal, plus the state the
/// per-layer calls need.
struct Twin {
    local: u64,
    seq: u64,
    shadow: SquidSession<'static>,
    ctx: Option<(String, ContextState)>,
    cache: FilterSetCache,
}

pub struct LayerReport {
    pub spans: Spans,
    pub candidates_n: Vec<f64>,
    pub resp_bytes: Vec<f64>,
    pub journal_bytes_per_turn: f64,
    /// Served round trip minus the layers measured for the same turn.
    pub unattributed_us: Vec<f64>,
}

/// Replay traced requests in-process. Before each one, its session's twins
/// catch up, untimed, on the ops acknowledged since the twins last moved
/// (including those sent outside traced windows), so every layer sees the
/// state the server saw. Journals are written under `work` with the
/// workload's fsync policy.
pub fn replay_layers(
    adb: &Arc<ADb>,
    recs: &[TraceRec],
    logs: &[&[SessionLog]],
    policy: FsyncPolicy,
    work: &Path,
    ping_us: f64,
) -> Result<LayerReport, String> {
    let params = SquidParams::default();
    let mgr = SessionManager::with_params(Arc::clone(adb), params.clone());
    let jpath = work.join("trace-manager.journal");
    let _ = std::fs::remove_file(&jpath);
    mgr.attach_journal(Journal::open(&jpath, policy).map_err(|e| e.to_string())?);
    // Appends are timed on a journal that never syncs by itself; the sync
    // the policy implies is timed separately on a second handle.
    let apath = work.join("trace-append.journal");
    let _ = std::fs::remove_file(&apath);
    let mut scratch = Journal::open(&apath, FsyncPolicy::Never).map_err(|e| e.to_string())?;
    let sync_file = std::fs::OpenOptions::new()
        .append(true)
        .open(&apath)
        .map_err(|e| e.to_string())?;
    let mut appended = 0u64;

    let mut twins: HashMap<(usize, usize), Twin> = HashMap::new();
    let mut spans = Spans::new();
    let mut report_n = Vec::new();
    let mut resp_bytes = Vec::new();
    let mut unattributed = Vec::new();
    let new_twin = |mgr: &SessionManager| Twin {
        local: mgr.create_session(),
        seq: 0,
        shadow: SquidSession::shared_with_params(Arc::clone(adb), params.clone()),
        ctx: None,
        cache: FilterSetCache::new(adb.generation),
    };

    for (i, rec) in recs.iter().enumerate() {
        let req = i as u64;
        let key = (rec.conn, rec.step.slot);
        if rec.step.req != Req::Create {
            let t = twins.entry(key).or_insert_with(|| new_twin(&mgr));
            for op in &logs[rec.conn][rec.step.slot].ops[t.seq as usize..rec.ops_before] {
                t.seq += 1;
                mgr.apply_op_at(t.local, t.seq, op)
                    .map_err(|e| e.to_string())?;
                op.apply(&mut t.shadow).map_err(|e| e.to_string())?;
            }
        }
        spans.record(req, SERVED, rec.rtt);
        let parsed = spans.time(req, "serve.protocol.parse", || parse_request(&rec.line));
        parsed.map_err(|e| format!("traced request does not parse: {e:?}"))?;
        let encoded = spans.time(req, "serve.json.encode", || rec.resp.encode());
        resp_bytes.push(encoded.len() as f64 + 1.0);

        match &rec.step.req {
            Req::Create => {
                twins.insert(key, new_twin(&mgr));
            }
            Req::Close => {
                let t = twins.remove(&key).expect("twin exists");
                mgr.close_session(t.local).map_err(|e| e.to_string())?;
            }
            Req::Sql => {
                let t = twins.get(&key).expect("twin exists");
                spans.time(req, "core.query_gen.sql", || {
                    t.shadow.discovery().map(|d| d.sql())
                });
            }
            Req::Suggest(k) => {
                let t = twins.get(&key).expect("twin exists");
                spans.time(req, "core.recommend.suggest", || t.shadow.suggest(*k));
            }
            Req::Rows(_) | Req::Stats => {}
            Req::Turn(op) => {
                let t = twins.get_mut(&key).expect("twin exists");
                t.seq += 1;
                let seq = t.seq;
                spans
                    .time(req, "core.manager.apply", || {
                        mgr.apply_op_at(t.local, seq, op)
                    })
                    .map_err(|e| e.to_string())?;
                spans
                    .time(req, "core.session.op", || op.apply(&mut t.shadow))
                    .map_err(|e| e.to_string())?;
                spans
                    .time(req, "core.journal.append", || {
                        scratch.append(t.local, seq, op)
                    })
                    .map_err(|e| e.to_string())?;
                appended += 1;
                spans
                    .time(req, "core.journal.fsync", || {
                        scratch.sync()?;
                        if policy == FsyncPolicy::Always {
                            sync_file.sync_data()?;
                        }
                        Ok::<(), squid_core::SquidError>(())
                    })
                    .map_err(|e| e.to_string())?;
                core_layers(adb, &params, t, op, req, &mut spans, &mut report_n);
                if rec.step.req.class() == Class::Turn {
                    let layered: f64 = [
                        "serve.protocol.parse",
                        "core.manager.apply",
                        "serve.json.encode",
                    ]
                    .iter()
                    .map(|n| {
                        spans
                            .spans
                            .iter()
                            .rev()
                            .find(|s| s.req == req && s.name == *n)
                            .map_or(0.0, |s| s.dur_ns as f64 / 1e3)
                    })
                    .sum();
                    unattributed.push(rec.rtt as f64 / 1e3 - ping_us - layered);
                }
            }
        }
    }
    let _ = std::fs::remove_file(&jpath);
    let journal_bytes_per_turn = scratch.bytes() as f64 / appended.max(1) as f64;
    drop(scratch);
    let _ = std::fs::remove_file(&apath);
    Ok(LayerReport {
        spans,
        candidates_n: report_n,
        resp_bytes,
        journal_bytes_per_turn,
        unattributed_us: unattributed,
    })
}

/// Time the core layers one turn runs through, each on its own: the
/// context fold, Φ, abduction, evaluation and the inverted-index lookup of
/// an added example.
fn core_layers(
    adb: &ADb,
    params: &SquidParams,
    t: &mut Twin,
    op: &SessionOp,
    req: u64,
    spans: &mut Spans,
    candidates_n: &mut Vec<f64>,
) {
    let Some(d) = t.shadow.discovery() else {
        return;
    };
    let entity = adb
        .entity(&d.entity_table)
        .expect("discovery entity exists");
    if t.ctx.as_ref().map(|(tab, _)| tab.as_str()) != Some(d.entity_table.as_str()) {
        t.ctx = Some((d.entity_table.clone(), ContextState::new(entity)));
    }
    let (_, ctx) = t.ctx.as_mut().expect("context set above");
    let mut want: Vec<RowId> = d.example_rows.clone();
    want.sort_unstable();
    want.dedup();
    let have = ctx.rows().to_vec();
    let added: Vec<RowId> = want
        .iter()
        .copied()
        .filter(|r| have.binary_search(r).is_err())
        .collect();
    let removed: Vec<RowId> = have
        .iter()
        .copied()
        .filter(|r| want.binary_search(r).is_err())
        .collect();
    if !added.is_empty() || !removed.is_empty() {
        spans.time(req, "core.context.fold", || {
            for &r in &added {
                ctx.add_row(entity, r);
            }
            for &r in &removed {
                ctx.remove_row(entity, r);
            }
        });
    }
    let cands = spans.time(req, "core.context.candidates", || {
        ctx.candidates(entity, params)
    });
    candidates_n.push(cands.len() as f64);
    let scored = spans.time(req, "core.abduce", || {
        abduce_filters(cands, want.len(), params)
    });
    let keyed = |keys: &[String], f: &squid_core::CandidateFilter| {
        keys.iter()
            .any(|k| f.prop_id.as_str() == k.as_str() || f.attr_name.as_str() == k.as_str())
    };
    let chosen: Vec<squid_core::CandidateFilter> = scored
        .into_iter()
        .filter(|s| {
            if keyed(t.shadow.banned(), &s.filter) {
                false
            } else {
                s.included || keyed(t.shadow.pinned(), &s.filter)
            }
        })
        .map(|s| s.filter)
        .collect();
    let cache = &mut t.cache;
    spans.time(req, "core.query_gen.evaluate", || {
        evaluate_cached(entity, &chosen, cache)
    });
    if let SessionOp::AddExample(v) = op {
        let table = adb
            .database
            .table(&d.entity_table)
            .expect("entity table exists");
        if let Some(col) = table.schema().column_index(&d.projection_column) {
            spans.time(req, "relation.inverted.lookup", || {
                adb.inverted.lookup_in(v, &d.entity_table, col)
            });
        }
    }
}
