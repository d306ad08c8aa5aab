//! End-to-end benchmark of served SQuID sessions. See README.md.
//!
//! ```text
//! squidbench --workload explore|refine|durable --seed N --seconds S --trace 0|1
//!            --server-bin <squid-serve> --work <dir>
//! ```
//!
//! The last stdout line is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`.

mod drive;
mod gen;
mod oracle;
mod proc;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use squid_adb::ADb;
use squid_core::{FsyncPolicy, SessionManager, SessionOp, SquidParams};
use squid_datasets::{
    dblp_queries, generate_dblp, generate_imdb, imdb_queries, DblpConfig, ImdbConfig,
};
use squid_relation::Database;
use squid_serve::{Client, Json, RetryClient};

use drive::{Conn, Pace, Phase, SessionLog};
use gen::{Class, Gen, Intent, Kind};
use proc::Node;

/// Load connections and threads: never more than the machine's cores.
const MAX_CONNS: usize = 2;
/// Server launches whose start-up times make `setup_s`.
const SETUP_LAUNCHES: usize = 15;
/// Promotions per run; `failover_s` is their median.
const FAILOVERS: usize = 5;
/// SIGKILL/relaunch cycles per run; `recovery_s` is their median.
const RECOVERIES: usize = 15;
/// Every server compacts its journal once this many records pile up past
/// the live state. Without it, a standby attached after explore's load
/// must replay hundreds of thousands of records before its first ack,
/// overruns the primary's 10 s ack deadline, and restarts its bootstrap
/// for ever (README, known gaps).
const AUTO_COMPACT: u64 = 50_000;
/// Rounds of (fixed-rate window, saturation lead-in, saturation window);
/// tails and rates are medians over the rounds.
const ROUNDS: usize = 12;
/// Shares of `--seconds`: an untimed preheat; per round, a fixed-rate
/// window, an untimed closed-loop lead-in and a saturation window; and
/// each probed SLO rung (bisection probes at most five of the ladder's).
/// A traced run adds a traced fixed-rate window to each round and skips
/// the ladder.
const PREHEAT_SHARE: f64 = 0.05;
const NOMINAL_SHARE: f64 = 0.015;
const LEAD_SHARE: f64 = 0.005;
const SAT_SHARE: f64 = 0.05;
const RUNG_SHARE: f64 = 0.022;
/// Windows an SLO rung is cut into; its p99 is the median of theirs.
const RUNG_WINDOWS: usize = 4;
/// Pings that measure the wire floor in a traced run.
const PINGS: usize = 2000;

/// Everything that distinguishes one workload from another.
struct Workload {
    kind: Kind,
    dataset: &'static str,
    fsync: FsyncPolicy,
    /// Load the αDB from a snapshot (else the server builds it).
    snapshot: bool,
    /// A standby follows the primary during the load.
    standby_under_load: bool,
    /// Offered rate of the fixed-rate windows, requests/second.
    nominal: f64,
    /// The SLO ladder's lowest rung and the ratio between rungs.
    ladder_base: f64,
    /// p99 limit of the SLO, all requests, timed from when they were due.
    limit_ms: f64,
    /// Sessions scored for `f1_mean` and `abduced_query_ms`.
    scored: usize,
}

const LADDER_RUNGS: usize = 24;
const LADDER_RATIO: f64 = 1.1;

fn workload(kind: Kind) -> Workload {
    match kind {
        Kind::Explore => Workload {
            kind,
            dataset: "imdb",
            fsync: FsyncPolicy::Flush,
            snapshot: false,
            standby_under_load: false,
            nominal: 1000.0,
            ladder_base: 5000.0,
            limit_ms: 15.0,
            scored: 480,
        },
        Kind::Refine => Workload {
            kind,
            dataset: "dblp",
            fsync: FsyncPolicy::Flush,
            snapshot: true,
            standby_under_load: false,
            nominal: 2000.0,
            ladder_base: 5000.0,
            limit_ms: 15.0,
            scored: 120,
        },
        Kind::Durable => Workload {
            kind,
            dataset: "imdb",
            fsync: FsyncPolicy::Always,
            snapshot: true,
            standby_under_load: true,
            nominal: 1000.0,
            ladder_base: 900.0,
            limit_ms: 50.0,
            scored: 288,
        },
    }
}

fn ladder(w: &Workload) -> Vec<f64> {
    (0..LADDER_RUNGS)
        .map(|i| w.ladder_base * LADDER_RATIO.powi(i as i32))
        .collect()
}

fn fsync_name(p: FsyncPolicy) -> &'static str {
    match p {
        FsyncPolicy::Always => "always",
        FsyncPolicy::Flush => "flush",
        FsyncPolicy::Never => "never",
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut server_bin = None;
    let mut work = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = val()?;
                kind = Some(Kind::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?)
            }
            "--seed" => seed = Some(val()?.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => seconds = Some(val()?.parse().map_err(|_| "--seconds needs a number")?),
            "--trace" => trace = val()? == "1",
            "--server-bin" => server_bin = Some(PathBuf::from(val()?)),
            "--work" => work = Some(PathBuf::from(val()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        server_bin: server_bin.ok_or("--server-bin is required")?,
        work: work.ok_or("--work is required")?,
    })
}

/// Metrics in output order: name, value, unit. Notes go straight to the
/// human-readable report on stdout.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn note(&self, line: String) {
        println!("{line}");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("squidbench: {e}");
            std::process::exit(2);
        }
    };
    let work = args
        .work
        .join(format!("{}-{}", args.kind.name(), std::process::id()));
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("create {}: {e}", work.display()))
        .and_then(|()| run(&args, &work));
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(out) => println!("{out}"),
        Err(e) => {
            eprintln!("squidbench: {e}");
            std::process::exit(1);
        }
    }
}

fn server_args(w: &Workload, work: &Path, journal: &str, standby_of: Option<&str>) -> Vec<String> {
    let mut a: Vec<String> = vec![
        "--addr".into(),
        "127.0.0.1:0".into(),
        "--journal".into(),
        work.join(journal).display().to_string(),
        "--fsync".into(),
        fsync_name(w.fsync).into(),
        "--replicate-to".into(),
        "127.0.0.1:0".into(),
        "--auto-compact".into(),
        AUTO_COMPACT.to_string(),
    ];
    if w.snapshot {
        a.push("--snapshot".into());
        a.push(work.join("adb.snap").display().to_string());
    }
    if let Some(p) = standby_of {
        a.push("--standby-of".into());
        a.push(p.into());
    }
    a.push(w.dataset.into());
    a
}

/// Connect to `addr` with a bounded read timeout.
fn control(addr: &str) -> Result<Client, String> {
    let c = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    c.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    Ok(c)
}

fn counter(stats: &Json, key: &str) -> f64 {
    stats
        .get("server")
        .and_then(|s| s.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0) as f64
}

/// Poll the primary's `health` until its standby is connected and has
/// acknowledged everything.
fn wait_synced(addr: &str) -> Result<(), String> {
    let t0 = Instant::now();
    let mut c = control(addr)?;
    loop {
        let h = c.health().map_err(|e| format!("health on {addr}: {e}"))?;
        let r = h.get("replication");
        let connected = r
            .and_then(|r| r.get("standby_connected"))
            .and_then(Json::as_bool)
            == Some(true);
        let num = |k| {
            r.and_then(|r| r.get(k))
                .and_then(Json::as_u64)
                .unwrap_or(u64::MAX)
        };
        if connected && num("lag_records") == 0 {
            return Ok(());
        }
        if t0.elapsed() > Duration::from_secs(120) {
            return Err(format!(
                "standby of {addr} never caught up; last health {}",
                h.encode()
            ));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Durability: every acknowledged turn of every open session is present on
/// the node at `addr`, and each session's SQL equals its ledger replay.
#[derive(Default, Clone, Copy)]
struct Durability {
    sessions: u64,
    lost_turns: u64,
    sql_mismatches: u64,
}

fn verify_durable(
    addr: &str,
    logs: &[&[SessionLog]],
    final_sql: &[Vec<Option<String>>],
) -> Result<Durability, String> {
    let mut c = control(addr)?;
    let mut d = Durability::default();
    for (conn, conn_logs) in logs.iter().enumerate() {
        for (slot, log) in conn_logs.iter().enumerate() {
            let (Some(sid), false) = (log.sid, log.closed) else {
                continue;
            };
            d.sessions += 1;
            let applied = match c.stats(Some(sid)) {
                Ok(s) => s.get("op_seq").and_then(Json::as_u64).unwrap_or(0),
                Err(_) => 0,
            };
            d.lost_turns += (log.ops.len() as u64).saturating_sub(applied);
            let served = c.sql(sid).unwrap_or(None);
            if served != final_sql[conn][slot] {
                d.sql_mismatches += 1;
            }
        }
    }
    Ok(d)
}

/// The failover probe: a session of its own whose next `add` is the first
/// mutating turn each promoted standby acknowledges.
struct Probe {
    log: SessionLog,
    values: Vec<String>,
}

impl Probe {
    fn open(addr: &str, intent: &Intent) -> Result<Probe, String> {
        let mut c = control(addr)?;
        let sid = c.create().map_err(|e| e.to_string())?;
        let mut p = Probe {
            log: SessionLog {
                sid: Some(sid),
                ..SessionLog::default()
            },
            values: intent.values.clone(),
        };
        let target = SessionOp::SetTarget {
            table: intent.table.clone(),
            column: intent.column.clone(),
        };
        p.turn_with(
            &mut RetryClient::fleet(vec![addr.to_string()], drive::policy()),
            target,
        )?;
        Ok(p)
    }

    fn next_op(&self) -> SessionOp {
        SessionOp::AddExample(self.values[self.log.ops.len() - 1].clone())
    }

    fn turn_with(&mut self, client: &mut RetryClient, op: SessionOp) -> Result<(), String> {
        let sid = self.log.sid.expect("probe session exists");
        let body = drive::op_body(sid, self.log.ops.len() as u64 + 1, &op);
        client.call(&body).map_err(|e| format!("probe turn: {e}"))?;
        self.log.ops.push(op);
        Ok(())
    }
}

fn run(args: &Args, work: &Path) -> Result<String, String> {
    let w = workload(args.kind);
    let conns_n = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_CONNS);
    let mut rep = Report::default();
    let secs = args.seconds;
    rep.note(format!(
        "# squidbench workload={} seed={} seconds={} trace={} connections={} cores={}",
        w.kind.name(),
        args.seed,
        secs,
        args.trace as u8,
        conns_n,
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    ));

    // ---- Inputs: the dataset, the αDB the oracle replays on, intents ----
    let t = Instant::now();
    let db: Database = match w.dataset {
        "dblp" => generate_dblp(&DblpConfig::default()),
        _ => generate_imdb(&ImdbConfig::default()),
    };
    let gen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let adb = ADb::build(&db).map_err(|e| format!("αDB build: {e}"))?;
    let build_s = t.elapsed().as_secs_f64();
    let queries = match w.dataset {
        "dblp" => dblp_queries(&db),
        _ => imdb_queries(&db),
    };
    let intents = gen::intents(&db, queries);
    let snap = work.join("adb.snap");
    let snapshot_bytes = adb
        .save_snapshot(&snap)
        .map_err(|e| format!("snapshot: {e}"))? as f64;
    let t = Instant::now();
    drop(ADb::load_snapshot(&snap).map_err(|e| format!("snapshot load: {e}"))?);
    let snapshot_load_s = t.elapsed().as_secs_f64();
    let adb = Arc::new(adb);
    let hash = gen::stream_hash(w.kind, args.seed, conns_n, &intents, &adb, 4096);
    rep.note(format!(
        "# intents={} ({}) stream_hash={hash:016x}",
        intents.len(),
        intents
            .iter()
            .map(|i| i.id.as_str())
            .collect::<Vec<_>>()
            .join(",")
    ));

    // ---- setup_s: server start to `listening on`, median of launches ----
    let log = work.join("server.log");
    let jname = ["node0.journal", "node1.journal"];
    let mut setups = Vec::new();
    let mut primary: Option<Node> = None;
    for i in 0..SETUP_LAUNCHES {
        let _ = std::fs::remove_file(work.join(jname[0]));
        let node = Node::launch(
            &args.server_bin,
            &server_args(&w, work, jname[0], None),
            &log,
        )?;
        setups.push(node.setup.as_secs_f64());
        if i + 1 == SETUP_LAUNCHES {
            primary = Some(node);
        }
    }
    let mut primary = primary.expect("at least one launch");
    let setup_s = stats::median(&mut setups.clone());
    let mut standby: Option<Node> = None;
    if w.standby_under_load {
        let repl = primary.repl.clone().expect("primary replicates");
        standby = Some(Node::launch(
            &args.server_bin,
            &server_args(&w, work, jname[1], Some(&repl)),
            &log,
        )?);
        wait_synced(&primary.addr)?;
    }

    // ---- Load ----
    let mut gens: Vec<Gen> = (0..conns_n)
        .map(|c| Gen::new(w.kind, args.seed, c, conns_n, &intents, &adb))
        .collect();
    let mut conns: Vec<Conn> = (0..conns_n).map(|_| Conn::new(&primary.addr)).collect();
    let warm_failed = drive::warm_up(&mut conns, &mut gens);
    if warm_failed > 0 {
        return Err(format!("{warm_failed} warm-up requests failed"));
    }
    let mut ctl = control(&primary.addr)?;
    let stats0 = ctl.stats(None).map_err(|e| e.to_string())?;
    let mut phases: Vec<(String, Phase)> = Vec::new();
    let dur = |share: f64| Duration::from_secs_f64(secs * share);
    // Steady load before anything is timed: the first seconds of load on
    // an idle machine run measurably slower than the rest.
    let preheat = drive::run_phase(
        &mut conns,
        &mut gens,
        Pace::Closed,
        dur(PREHEAT_SHARE),
        false,
    );
    phases.push(("preheat".into(), preheat));
    // Fixed-rate and saturation windows alternate through the run, so a
    // slow stretch of the host hits a few windows of each, not a phase.
    let mut nominal_rounds = Vec::new();
    let mut traced_rounds = Vec::new();
    let mut sat_rounds = Vec::new();
    let mut lead_rounds = Vec::new();
    for _ in 0..ROUNDS {
        let go = |conns: &mut [Conn], gens: &mut [Gen], pace, share, trace| {
            drive::run_phase(conns, gens, pace, dur(share), trace)
        };
        nominal_rounds.push(go(
            &mut conns,
            &mut gens,
            Pace::Open(w.nominal),
            NOMINAL_SHARE,
            false,
        ));
        if args.trace {
            traced_rounds.push(go(
                &mut conns,
                &mut gens,
                Pace::Open(w.nominal),
                NOMINAL_SHARE,
                true,
            ));
        }
        lead_rounds.push(go(&mut conns, &mut gens, Pace::Closed, LEAD_SHARE, false));
        sat_rounds.push(go(
            &mut conns,
            &mut gens,
            Pace::Closed,
            SAT_SHARE,
            args.trace,
        ));
    }
    let mut slo = None;
    if !args.trace {
        // Bisect the fixed ladder for the highest rung that holds the SLO.
        let rungs = ladder(&w);
        let (mut lo, mut hi): (Option<usize>, usize) = (None, rungs.len());
        let mut best_rate = f64::NAN;
        while hi > lo.map_or(0, |l| l + 1) {
            let mid = (lo.map_or(0, |l| l + 1) + hi) / 2;
            let p = drive::run_phase(
                &mut conns,
                &mut gens,
                Pace::Open(rungs[mid]),
                dur(RUNG_SHARE),
                false,
            );
            let p99 = median_of(windows(&p, RUNG_WINDOWS).iter().map(|w| p99_ms(w, None)));
            let growth = late_growth_ms(&p);
            let pass = p.failed() == 0 && p99 <= w.limit_ms && growth <= w.limit_ms;
            rep.note(format!(
                "# ladder rung {mid} offered={:.0}/s completed={:.0}/s p99={p99:.3}ms late_growth={growth:.3}ms failed={} -> {}",
                rungs[mid],
                p.completed_per_s(),
                p.failed(),
                if pass { "pass" } else { "fail" }
            ));
            if pass {
                lo = Some(mid);
                best_rate = p.completed_per_s();
            } else {
                hi = mid;
            }
            phases.push((format!("rung@{:.0}", rungs[mid]), p));
        }
        // A ladder whose lowest rung fails reports half that rung: a real
        // collapse, still never zero.
        slo = Some(if lo.is_some() {
            best_rate
        } else {
            rungs[0] / 2.0
        });
    }
    let stats1 = ctl.stats(None).map_err(|e| e.to_string())?;
    let recs: Vec<drive::TraceRec> = traced_rounds
        .iter_mut()
        .flat_map(|p| std::mem::take(&mut p.trace))
        .collect();
    let evidence = nominal_rounds
        .iter()
        .chain(&traced_rounds)
        .chain(&sat_rounds)
        .fold(drive::TurnEvidence::default(), |mut e, p| {
            e.cache_hits += p.evidence.cache_hits;
            e.cache_misses += p.evidence.cache_misses;
            e.incremental += p.evidence.incremental;
            e.turns += p.evidence.turns;
            e
        });
    let health: Vec<Json> = traced_rounds
        .iter_mut()
        .chain(sat_rounds.iter_mut())
        .flat_map(|p| std::mem::take(&mut p.health))
        .collect();
    let rss_mb = primary.peak_rss_mb();
    let counters = conns.iter().fold((0u64, 0u64), |acc, c| {
        let k = c.client.counters();
        (acc.0 + k.retries, acc.1 + k.reconnects)
    });

    // ---- Wire floor and journal recovery, measured in-process ----
    let mut ping_us = f64::NAN;
    let mut recover = (f64::NAN, f64::NAN);
    if args.trace {
        let mut pings: Vec<f64> = (0..PINGS)
            .map(|_| {
                let t = Instant::now();
                let _ = ctl.ping();
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        ping_us = stats::median(&mut pings);
        let copy = work.join("recover-copy.journal");
        std::fs::copy(work.join(jname[0]), &copy).map_err(|e| format!("copy journal: {e}"))?;
        let mgr = SessionManager::with_params(Arc::clone(&adb), SquidParams::default());
        let t = Instant::now();
        let st = mgr
            .recover(&copy, FsyncPolicy::Never)
            .map_err(|e| e.to_string())?;
        recover = (t.elapsed().as_secs_f64(), st.records_applied as f64);
    }
    drop(ctl);

    // ---- Wire-vs-library oracle ----
    let logs: Vec<&[SessionLog]> = conns.iter().map(|c| c.logs.as_slice()).collect();
    let verdict = oracle::check(&adb, &intents, &gens, &logs, w.scored);
    rep.note(format!(
        "# oracle: {} sessions, {} served SQLs checked against the library replay, {} mismatches",
        verdict.sessions, verdict.sql_checked, verdict.sql_mismatches
    ));
    if let Some(m) = &verdict.first_mismatch {
        rep.note(format!("# first mismatch: {m}"));
    }

    // ---- Failover: promote cycles over a replicated pair ----
    if standby.is_none() {
        let repl = primary.repl.clone().expect("primary replicates");
        standby = Some(Node::launch(
            &args.server_bin,
            &server_args(&w, work, jname[1], Some(&repl)),
            &log,
        )?);
    }
    let mut standby = standby.expect("standby launched");
    wait_synced(&primary.addr)?;
    let mut journal_of = [jname[0], jname[1]];
    let mut probe = Probe::open(&primary.addr, &intents[0])?;
    let mut failovers = Vec::new();
    let mut promotes = Vec::new();
    let mut durability = Vec::new();
    for _ in 0..FAILOVERS {
        wait_synced(&primary.addr)?;
        let dead_addr = primary.addr.clone();
        primary.kill();
        let t0 = Instant::now();
        let role = control(&standby.addr)?
            .promote()
            .map_err(|e| format!("promote: {e}"))?;
        promotes.push(t0.elapsed().as_secs_f64());
        if role != "primary" {
            return Err(format!("promotion left the standby as {role}"));
        }
        let mut client = RetryClient::fleet(vec![dead_addr, standby.addr.clone()], drive::policy());
        let op = probe.next_op();
        probe.turn_with(&mut client, op)?;
        failovers.push(t0.elapsed().as_secs_f64());
        durability.push(check_all(&standby.addr, &logs, &verdict, &adb, &probe)?);
        // The corpse rejoins as the new primary's standby.
        let repl = standby.repl.clone().expect("standby replicates");
        journal_of.swap(0, 1);
        let rejoined = Node::launch(
            &args.server_bin,
            &server_args(&w, work, journal_of[1], Some(&repl)),
            &log,
        )?;
        primary = std::mem::replace(&mut standby, rejoined);
    }

    // ---- Recovery: SIGKILL the primary, relaunch it on its journal ----
    wait_synced(&primary.addr)?;
    standby.kill();
    let args_primary: Vec<String> = server_args(&w, work, journal_of[0], None);
    let mut recoveries = Vec::new();
    for _ in 0..RECOVERIES {
        primary.kill();
        primary = Node::launch(&args.server_bin, &args_primary, &log)?;
        recoveries.push(primary.setup.as_secs_f64());
        durability.push(check_all(&primary.addr, &logs, &verdict, &adb, &probe)?);
    }
    if let Some(r) = control(&primary.addr)?
        .stats(None)
        .ok()
        .and_then(|s| s.get("recovery").cloned())
    {
        rep.note(format!("# recovery replayed {}", r.encode()));
    }
    primary.kill();
    let lost: u64 = durability.iter().map(|d| d.lost_turns).sum();
    let dur_mismatch: u64 = durability.iter().map(|d| d.sql_mismatches).sum();
    rep.note(format!(
        "# durability: {FAILOVERS} promotions + {RECOVERIES} SIGKILL/relaunch cycles, {} session checks, {lost} acked turns lost, {dur_mismatch} SQL mismatches",
        durability.iter().map(|d| d.sessions).sum::<u64>()
    ));
    rep.note(
        "# note: SIGKILL leaves the OS page cache intact, so this proves journal replay, not flush to the device"
            .to_string(),
    );

    // ---- Accounting ----
    let merged = |name: &str, rounds: &[Phase]| (name.to_string(), drive::merge(rounds));
    let nominal_name = format!("fixed-rate@{}", w.nominal);
    let mut accounts = vec![
        merged(&nominal_name, &nominal_rounds),
        merged("saturation-lead-in", &lead_rounds),
        merged("saturation", &sat_rounds),
    ];
    if args.trace {
        accounts.push(merged("traced-fixed-rate", &traced_rounds));
    }
    let mut attempted = 0;
    let mut failed = 0;
    for (name, p) in phases.iter().chain(&accounts) {
        attempted += p.attempted();
        failed += p.failed();
        let mut late: Vec<f64> = p.samples.iter().map(|s| s.late() as f64 / 1e6).collect();
        rep.note(format!(
            "# phase {name}: attempted={} succeeded={} failed={} late_p99_ms={:.3} elapsed_s={:.2}",
            p.attempted(),
            p.attempted() - p.failed(),
            p.failed(),
            stats::quantile(&mut late, 0.99),
            p.elapsed.as_secs_f64()
        ));
    }
    let fail_ratio =
        (failed + verdict.sql_mismatches + dur_mismatch + lost) as f64 / attempted.max(1) as f64;
    rep.note(format!(
        "# fail_ratio={fail_ratio} ({failed} failed of {attempted} attempted)"
    ));
    let growth = median_of(nominal_rounds.iter().map(late_growth_ms));
    let lateness_ok = growth <= w.limit_ms;
    if !lateness_ok {
        rep.note(format!(
            "# INVALID: generator lateness grew by {growth:.3}ms within the fixed-rate windows"
        ));
    }
    let correct = verdict.sql_mismatches == 0 && lost == 0 && dur_mismatch == 0 && lateness_ok;
    let nominal = &accounts[0].1;

    if !args.trace {
        let mut turns = latencies_us(&nominal.samples, Some(Class::Turn));
        let mut reads = latencies_us(&nominal.samples, Some(Class::Read));
        // Gated metrics go into the JSON line. The fixed-rate latencies,
        // the SLO rate and the query time are reported but not gated: on a
        // shared two-core host their run-to-run spread follows the host's
        // scheduling more than the program (README).
        rep.put("setup_s", setup_s, "s");
        rep.put(
            "sat_ops_per_s",
            median_of(sat_rounds.iter().map(Phase::completed_per_s)),
            "req/s",
        );
        rep.put("f1_mean", verdict.f1_mean, "ratio");
        rep.put("recovery_s", median_of(recoveries.iter().copied()), "s");
        rep.put("failover_s", median_of(failovers.iter().copied()), "s");
        rep.put("rss_mb", rss_mb, "MiB");
        let ungated = [
            ("turn_p50_us", stats::median(&mut turns), "us", turns.len()),
            (
                "turn_p99_us",
                tail_us(&nominal_rounds, Class::Turn),
                "us",
                turns.len(),
            ),
            ("read_p50_us", stats::median(&mut reads), "us", reads.len()),
            (
                "read_p99_us",
                tail_us(&nominal_rounds, Class::Read),
                "us",
                reads.len(),
            ),
        ];
        for (name, v, unit, n) in ungated {
            rep.note(format!(
                "# metric {name:<18} {v:>14.4} {unit:<6} (not gated; n={n} at {}/s over {ROUNDS} windows)",
                w.nominal
            ));
        }
        rep.note(format!(
            "# metric {:<18} {:>14.4} req/s  (not gated; SLO limit {} ms)",
            "slo_ops_per_s",
            slo.expect("ladder ran"),
            w.limit_ms
        ));
        rep.note(format!(
            "# metric {:<18} {:>14.4} ms     (not gated; {} queries)",
            "abduced_query_ms", verdict.abduced_query_ms, verdict.f1_sessions
        ));
        rep.note(format!(
            "# f1_mean over {} scored sessions; setup launches {setups:?}",
            verdict.f1_sessions
        ));
        rep.note(format!(
            "# failover_s samples {failovers:?}; recovery_s samples {recoveries:?}"
        ));
        rep.note(format!(
            "# saturation windows req/s {:?}",
            sat_rounds
                .iter()
                .map(|p| p.completed_per_s().round())
                .collect::<Vec<_>>()
        ));
    } else {
        let traced = &accounts[3].1;
        let turn_p50 = |p: &Phase| stats::median(&mut latencies_us(&p.samples, Some(Class::Turn)));
        let untraced_turn = turn_p50(nominal);
        let overhead = turn_p50(traced) - untraced_turn;
        let layers = trace::replay_layers(&adb, &recs, &logs, w.fsync, work, ping_us)?;
        let spans_path = args.work.join(format!("spans-{}.tsv", w.kind.name()));
        layers
            .spans
            .write_tsv(&spans_path)
            .map_err(|e| format!("write spans: {e}"))?;
        rep.note(format!("# spans written to {}", spans_path.display()));
        let ev = evidence;
        let s = &layers.spans;
        let mut late: Vec<f64> = traced
            .samples
            .iter()
            .map(|x| x.late() as f64 / 1e6)
            .collect();
        // Streaming lag under load, sampled from `health` during the traced
        // phases while a standby is connected.
        let lags: Vec<(f64, f64)> = health
            .iter()
            .filter_map(|h| {
                let r = h.get("replication")?;
                if r.get("standby_connected").and_then(Json::as_bool) != Some(true) {
                    return None;
                }
                let num = |k| r.get(k).and_then(Json::as_u64).map(|v| v as f64);
                Some((num("lag_records")?, num("lag_bytes")?))
            })
            .collect();
        let mut lag_r: Vec<f64> = lags.iter().map(|l| l.0).collect();
        let lag_b = if lags.is_empty() {
            f64::NAN
        } else {
            lags.iter().map(|l| l.1).fold(0.0, f64::max)
        };
        // A layer the workload's requests never reach has no spans; it is
        // reported as 0 and named, never as a made-up figure.
        let put = |rep: &mut Report, name: &str, v: f64, unit: &'static str| {
            if v.is_finite() {
                rep.put(name, v, unit);
            } else {
                rep.note(format!(
                    "# layer {name}: not exercised by this workload, reported as 0"
                ));
                rep.put(name, 0.0, unit);
            }
        };
        put(&mut rep, "serve.wire.ping_rtt_us", ping_us, "us");
        put(
            &mut rep,
            "serve.protocol.parse_us",
            s.median_us("serve.protocol.parse"),
            "us",
        );
        put(
            &mut rep,
            "serve.json.encode_us",
            s.median_us("serve.json.encode"),
            "us",
        );
        put(
            &mut rep,
            "serve.json.resp_bytes",
            stats::median(&mut layers.resp_bytes.clone()),
            "bytes",
        );
        put(
            &mut rep,
            "serve.server.unattributed_us",
            stats::median(&mut layers.unattributed_us.clone()),
            "us",
        );
        put(
            &mut rep,
            "serve.server.shed",
            counter(&stats1, "shed") - counter(&stats0, "shed"),
            "count",
        );
        put(
            &mut rep,
            "serve.server.rejected_overloaded",
            counter(&stats1, "rejected_overloaded") - counter(&stats0, "rejected_overloaded"),
            "count",
        );
        put(
            &mut rep,
            "serve.server.rate_limited",
            counter(&stats1, "rate_limited") - counter(&stats0, "rate_limited"),
            "count",
        );
        put(&mut rep, "serve.retry.retries", counters.0 as f64, "count");
        put(
            &mut rep,
            "serve.retry.reconnects",
            counters.1 as f64,
            "count",
        );
        put(
            &mut rep,
            "serve.replication.lag_records_p99",
            stats::quantile(&mut lag_r, 0.99),
            "records",
        );
        put(&mut rep, "serve.replication.lag_bytes_max", lag_b, "bytes");
        put(
            &mut rep,
            "serve.replication.promote_s",
            stats::median(&mut promotes.clone()),
            "s",
        );
        put(
            &mut rep,
            "core.manager.apply_us",
            s.median_us("core.manager.apply"),
            "us",
        );
        put(
            &mut rep,
            "core.session.op_us",
            s.median_us("core.session.op"),
            "us",
        );
        put(
            &mut rep,
            "core.context.fold_us",
            s.median_us("core.context.fold"),
            "us",
        );
        put(
            &mut rep,
            "core.context.candidates_us",
            s.median_us("core.context.candidates"),
            "us",
        );
        put(
            &mut rep,
            "core.context.candidates_n",
            stats::median(&mut layers.candidates_n.clone()),
            "count",
        );
        put(&mut rep, "core.abduce.us", s.median_us("core.abduce"), "us");
        put(
            &mut rep,
            "core.query_gen.evaluate_us",
            s.median_us("core.query_gen.evaluate"),
            "us",
        );
        put(
            &mut rep,
            "core.query_gen.sql_us",
            s.median_us("core.query_gen.sql"),
            "us",
        );
        put(
            &mut rep,
            "core.recommend.suggest_us",
            s.median_us("core.recommend.suggest"),
            "us",
        );
        let hits = ev.cache_hits as f64;
        put(
            &mut rep,
            "core.cache.hit_ratio",
            hits / (hits + ev.cache_misses as f64).max(1.0),
            "ratio",
        );
        put(
            &mut rep,
            "core.session.incremental_ratio",
            ev.incremental as f64 / (ev.turns as f64).max(1.0),
            "ratio",
        );
        put(
            &mut rep,
            "core.journal.append_us",
            s.median_us("core.journal.append"),
            "us",
        );
        put(
            &mut rep,
            "core.journal.fsync_us",
            s.median_us("core.journal.fsync"),
            "us",
        );
        put(
            &mut rep,
            "core.journal.bytes_per_turn",
            layers.journal_bytes_per_turn,
            "bytes",
        );
        put(&mut rep, "core.manager.recover_s", recover.0, "s");
        put(
            &mut rep,
            "core.manager.records_replayed",
            recover.1,
            "count",
        );
        put(&mut rep, "adb.build_s", build_s, "s");
        put(&mut rep, "datasets.gen_s", gen_s, "s");
        put(&mut rep, "adb.snapshot_load_s", snapshot_load_s, "s");
        put(&mut rep, "adb.snapshot_bytes", snapshot_bytes, "bytes");
        put(
            &mut rep,
            "relation.inverted.lookup_us",
            s.median_us("relation.inverted.lookup"),
            "us",
        );
        put(
            &mut rep,
            "loadgen.late_p99_ms",
            stats::quantile(&mut late, 0.99),
            "ms",
        );
        put(&mut rep, "loadgen.attempted", attempted as f64, "count");
        put(
            &mut rep,
            "loadgen.completed",
            (attempted - failed) as f64,
            "count",
        );
        put(&mut rep, "trace.overhead_us", overhead, "us");
        rep.note(format!(
            "# tracing overhead: traced turn p50 minus untraced turn p50 = {overhead:.2}us (untraced {untraced_turn:.2}us)"
        ));
        for (name, v, unit) in &rep.metrics {
            println!("# layer {name:<36} {v:>14.4} {unit:<8} -> {}", moves(name));
        }
    }
    for (name, v, unit) in &rep.metrics {
        if !args.trace {
            println!("# metric {name:<18} {v:>14.4} {unit}");
        }
    }
    Ok(result_json(
        correct,
        attempted,
        failed + verdict.sql_mismatches + dur_mismatch + lost,
        &rep,
    ))
}

/// Durability of the loaded sessions plus the probe session.
fn check_all(
    addr: &str,
    logs: &[&[SessionLog]],
    verdict: &oracle::Verdict,
    adb: &ADb,
    probe: &Probe,
) -> Result<Durability, String> {
    let mut d = verify_durable(addr, logs, &verdict.final_sql)?;
    let probe_sql = oracle::replay(adb, &probe.log.ops)?.1.pop().flatten();
    let p = verify_durable(
        addr,
        &[std::slice::from_ref(&probe.log)],
        &[vec![probe_sql]],
    )?;
    d.sessions += p.sessions;
    d.lost_turns += p.lost_turns;
    d.sql_mismatches += p.sql_mismatches;
    Ok(d)
}

/// Samples of `p` cut into `k` windows of equal duration by due time.
fn windows(p: &Phase, k: usize) -> Vec<&[drive::Sample]> {
    let span = p.samples.last().map_or(1, |s| s.due + 1);
    let mut out = Vec::with_capacity(k);
    let mut start = 0;
    for i in 1..=k {
        let edge = span * i as u64 / k as u64;
        let end = start + p.samples[start..].partition_point(|s| s.due < edge);
        out.push(&p.samples[start..end]);
        start = end;
    }
    out
}

fn latencies_us(samples: &[drive::Sample], class: Option<Class>) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.ok && class.is_none_or(|c| s.class == c))
        .map(|s| s.latency() as f64 / 1e3)
        .collect()
}

fn median_of(xs: impl Iterator<Item = f64>) -> f64 {
    stats::median(&mut xs.collect::<Vec<f64>>())
}

/// p99 of `samples` in milliseconds; a failed request misses any limit.
fn p99_ms(samples: &[drive::Sample], class: Option<Class>) -> f64 {
    if samples
        .iter()
        .any(|s| !s.ok && class.is_none_or(|c| s.class == c))
    {
        return f64::INFINITY;
    }
    stats::quantile(&mut latencies_us(samples, class), 0.99) / 1e3
}

/// The p99 of a class over the fixed-rate windows: the median of the
/// windows' p99s when every window holds the 1000 samples a p99 needs,
/// else the p99 of all windows pooled.
fn tail_us(rounds: &[Phase], class: Class) -> f64 {
    let counts = rounds
        .iter()
        .map(|p| p.samples.iter().filter(|s| s.class == class).count());
    if counts.min().unwrap_or(0) >= 1000 {
        median_of(rounds.iter().map(|p| p99_ms(&p.samples, Some(class)))) * 1e3
    } else {
        p99_ms(&drive::merge(rounds).samples, Some(class)) * 1e3
    }
}

/// How much later the generator ran at the end of a phase than at its
/// start: median lateness of the last quarter minus that of the first.
fn late_growth_ms(p: &Phase) -> f64 {
    let n = p.samples.len();
    if n < 8 {
        return 0.0;
    }
    let mut first: Vec<f64> = p.samples[..n / 4]
        .iter()
        .map(|s| s.late() as f64 / 1e6)
        .collect();
    let mut last: Vec<f64> = p.samples[n - n / 4..]
        .iter()
        .map(|s| s.late() as f64 / 1e6)
        .collect();
    stats::median(&mut last) - stats::median(&mut first)
}

/// Which end-to-end metric, on which workload, a layer metric should move.
fn moves(layer: &str) -> &'static str {
    match layer {
        "serve.wire.ping_rtt_us" => "read_p50_us @ refine",
        "serve.protocol.parse_us" | "serve.json.encode_us" | "serve.json.resp_bytes" => {
            "turn_p50_us, read_p50_us @ refine"
        }
        "serve.server.unattributed_us" => "turn_p50_us @ refine",
        "serve.server.shed"
        | "serve.server.rejected_overloaded"
        | "serve.server.rate_limited"
        | "serve.retry.retries"
        | "serve.retry.reconnects" => "fail_ratio, slo_ops_per_s @ all",
        "serve.replication.lag_records_p99" | "serve.replication.lag_bytes_max" => {
            "failover_s @ durable (ungated; the only standby under load)"
        }
        "serve.replication.promote_s" => "failover_s @ all",
        "core.manager.apply_us" => "turn_p50_us @ all",
        "core.session.op_us"
        | "core.context.fold_us"
        | "core.context.candidates_us"
        | "core.context.candidates_n"
        | "core.abduce.us"
        | "core.query_gen.evaluate_us" => "turn_p50_us, turn_p99_us @ explore",
        "core.query_gen.sql_us" | "core.recommend.suggest_us" => {
            "read_p50_us, read_p99_us @ explore"
        }
        "core.cache.hit_ratio" | "core.session.incremental_ratio" => {
            "turn_p50_us @ explore vs refine"
        }
        "core.journal.append_us" | "core.journal.fsync_us" | "core.journal.bytes_per_turn" => {
            "turn_p50_us, turn_p99_us, sat_ops_per_s @ all; fsync only @ durable (ungated)"
        }
        "core.manager.recover_s" | "core.manager.records_replayed" => "recovery_s @ all",
        "adb.build_s" | "datasets.gen_s" => "setup_s @ explore",
        "adb.snapshot_load_s" | "adb.snapshot_bytes" => "setup_s @ refine, durable",
        "relation.inverted.lookup_us" => "turn_p99_us @ explore",
        "loadgen.late_p99_ms" | "loadgen.attempted" | "loadgen.completed" => {
            "validity of every open-loop figure"
        }
        "trace.overhead_us" => "cost of tracing (traced minus untraced turn_p50_us)",
        _ => "-",
    }
}

fn result_json(correct: bool, attempted: u64, failed: u64, rep: &Report) -> String {
    let metrics = Json::Obj(
        rep.metrics
            .iter()
            .map(|(name, v, unit)| {
                (
                    name.clone(),
                    Json::obj([("value", Json::Float(*v)), ("unit", Json::str(*unit))]),
                )
            })
            .collect(),
    );
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted as i64)),
        ("failed", Json::Int(failed as i64)),
        ("metrics", metrics),
    ])
    .encode()
}
