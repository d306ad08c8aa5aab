//! The load generator: one thread and one connection per generator,
//! open-loop (requests timed from when they were due) or closed-loop.

use std::time::{Duration, Instant};

use squid_core::SessionOp;
use squid_serve::{ClientError, Json, RetryClient, RetryPolicy};

use crate::gen::{Class, Gen, Req, Step};

/// What the client saw of one session: the acknowledged ops in order and
/// every SQL the server returned, tagged with how many ops preceded it.
#[derive(Default)]
pub struct SessionLog {
    pub sid: Option<u64>,
    pub ops: Vec<SessionOp>,
    pub sqls: Vec<(usize, Option<String>)>,
    pub closed: bool,
}

/// One load connection and the client-side ledger of its sessions.
pub struct Conn {
    pub client: RetryClient,
    pub logs: Vec<SessionLog>,
}

impl Conn {
    pub fn new(addr: &str) -> Conn {
        Conn {
            client: RetryClient::with_policy(addr, policy()),
            logs: Vec::new(),
        }
    }
}

/// Retry refusals and transport blips, but never long enough to hide a
/// stall: a request that needs more is counted as failed.
pub fn policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(100),
        read_timeout: Some(Duration::from_secs(10)),
    }
}

/// The wire form of a generated session op.
pub fn op_body(sid: u64, seq: u64, op: &SessionOp) -> Json {
    let (verb, mut fields): (&str, Vec<(&str, Json)>) = match op {
        SessionOp::AddExample(v) => ("add", vec![("value", Json::str(v))]),
        SessionOp::RemoveExample(v) => ("remove", vec![("value", Json::str(v))]),
        SessionOp::SetTarget { table, column } => (
            "target",
            vec![("table", Json::str(table)), ("column", Json::str(column))],
        ),
        SessionOp::PinFilter(k) => ("pin", vec![("key", Json::str(k))]),
        SessionOp::UnpinFilter(k) => ("unpin", vec![("key", Json::str(k))]),
        other => unreachable!("the generator never emits {other:?}"),
    };
    let mut members = vec![
        ("op", Json::str(verb)),
        ("session", Json::Int(sid as i64)),
        ("seq", Json::Int(seq as i64)),
    ];
    members.append(&mut fields);
    Json::obj(members)
}

fn read_body(verb: &str, sid: u64, extra: Option<(&str, usize)>) -> Json {
    let mut members = vec![("op", Json::str(verb)), ("session", Json::Int(sid as i64))];
    if let Some((k, v)) = extra {
        members.push((k, Json::Int(v as i64)));
    }
    Json::obj(members)
}

/// Wire request for a step, or `None` when its session was never created.
pub fn body_for(conn: &Conn, step: &Step) -> Option<Json> {
    if step.req == Req::Create {
        return Some(Json::obj([("op", Json::str("create"))]));
    }
    let log = conn.logs.get(step.slot)?;
    let sid = log.sid?;
    Some(match &step.req {
        Req::Create => unreachable!(),
        Req::Turn(op) => op_body(sid, log.ops.len() as u64 + 1, op),
        Req::Sql => read_body("sql", sid, None),
        Req::Rows(n) => read_body("rows", sid, Some(("limit", *n))),
        Req::Suggest(k) => read_body("suggest", sid, Some(("k", *k))),
        Req::Stats => read_body("stats", sid, None),
        Req::Close => read_body("close", sid, None),
    })
}

/// Turn evidence carried by mutating replies.
#[derive(Default, Clone, Copy)]
pub struct TurnEvidence {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub incremental: u64,
    pub turns: u64,
}

/// Send one step and fold the reply into the ledger.
pub fn execute(conn: &mut Conn, step: &Step, ev: &mut TurnEvidence) -> Result<Json, ClientError> {
    if conn.logs.len() <= step.slot {
        conn.logs.resize_with(step.slot + 1, SessionLog::default);
    }
    let body = body_for(conn, step)
        .ok_or_else(|| ClientError::BadResponse("session was never created".into()))?;
    let resp = conn.client.call(&body)?;
    let log = &mut conn.logs[step.slot];
    match &step.req {
        Req::Create => {
            log.sid = Some(
                resp.get("session")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| ClientError::BadResponse("create without session".into()))?,
            );
        }
        Req::Turn(op) => {
            log.ops.push(op.clone());
            let sql = resp.get("sql").and_then(Json::as_str).map(str::to_string);
            log.sqls.push((log.ops.len(), sql));
            let n = |k| resp.get(k).and_then(Json::as_u64).unwrap_or(0);
            ev.cache_hits += n("cache_hits");
            ev.cache_misses += n("cache_misses");
            ev.incremental +=
                (resp.get("incremental").and_then(Json::as_bool) == Some(true)) as u64;
            ev.turns += 1;
        }
        Req::Sql => {
            let sql = resp.get("sql").and_then(Json::as_str).map(str::to_string);
            log.sqls.push((log.ops.len(), sql));
        }
        Req::Close => log.closed = true,
        Req::Rows(_) | Req::Suggest(_) | Req::Stats => {}
    }
    Ok(resp)
}

/// One request as measured. Times are nanoseconds from the phase start.
#[derive(Clone, Copy)]
pub struct Sample {
    pub class: Class,
    pub due: u64,
    pub start: u64,
    pub end: u64,
    pub ok: bool,
}

impl Sample {
    /// Latency from when the request was due (open loop) or sent.
    pub fn latency(&self) -> u64 {
        self.end - self.due
    }

    pub fn late(&self) -> u64 {
        self.start - self.due
    }
}

/// A traced request: the exact line sent and the reply received.
pub struct TraceRec {
    pub conn: usize,
    /// Ops the session had acknowledged when the request was sent.
    pub ops_before: usize,
    pub step: Step,
    pub line: String,
    pub resp: Json,
    pub rtt: u64,
}

#[derive(Clone, Copy, PartialEq)]
pub enum Pace {
    /// Offered rate in requests/second over all connections.
    Open(f64),
    Closed,
}

#[derive(Default)]
pub struct Phase {
    pub samples: Vec<Sample>,
    pub elapsed: Duration,
    pub evidence: TurnEvidence,
    pub trace: Vec<TraceRec>,
    /// `health` replies sampled during a traced phase.
    pub health: Vec<Json>,
}

impl Phase {
    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }

    pub fn completed_per_s(&self) -> f64 {
        (self.attempted() - self.failed()) as f64 / self.elapsed.as_secs_f64()
    }
}

/// Concatenate phases for accounting and pooled quantiles (their sample
/// times stay relative to their own starts).
pub fn merge(phases: &[Phase]) -> Phase {
    let mut out = Phase::default();
    for p in phases {
        out.samples.extend_from_slice(&p.samples);
        out.elapsed += p.elapsed;
    }
    out
}

/// Interval between health probes in a traced phase.
const HEALTH_EVERY: Duration = Duration::from_millis(100);

/// Sleep precisely: a 1ns timer slack instead of the default 50µs, so an
/// open-loop request is sent when due, not when the kernel gets round to
/// it. Per thread; failure only costs precision.
fn tighten_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn prctl(option: i32, ...) -> i32;
        }
        const PR_SET_TIMERSLACK: i32 = 29;
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and touches
        // no memory of this process.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong);
        }
    }
}

/// Run the connections' warm-up steps closed-loop (unmeasured).
pub fn warm_up(conns: &mut [Conn], gens: &mut [Gen<'_>]) -> u64 {
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(gens.iter_mut())
            .map(|(conn, g)| {
                scope.spawn(move || {
                    let mut ev = TurnEvidence::default();
                    g.take_warmup()
                        .iter()
                        .filter(|step| execute(conn, step, &mut ev).is_err())
                        .count() as u64
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up thread panicked"))
            .sum()
    })
}

/// Drive every connection for `dur` at `pace`. With `trace`, record every
/// request's line and reply, and have connection 0 probe `health`.
pub fn run_phase(
    conns: &mut [Conn],
    gens: &mut [Gen<'_>],
    pace: Pace,
    dur: Duration,
    trace: bool,
) -> Phase {
    let n = conns.len();
    let t0 = Instant::now() + Duration::from_millis(5);
    let parts: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(gens.iter_mut())
            .enumerate()
            .map(|(c, (conn, g))| {
                scope.spawn(move || {
                    tighten_timer_slack();
                    drive_one(c, n, conn, g, pace, t0, dur, trace)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut out = Phase {
        elapsed: parts.iter().map(|p| p.elapsed).max().unwrap_or_default(),
        ..Phase::default()
    };
    for mut p in parts {
        out.samples.append(&mut p.samples);
        out.trace.append(&mut p.trace);
        out.health.append(&mut p.health);
        out.evidence.cache_hits += p.evidence.cache_hits;
        out.evidence.cache_misses += p.evidence.cache_misses;
        out.evidence.incremental += p.evidence.incremental;
        out.evidence.turns += p.evidence.turns;
    }
    out.samples.sort_by_key(|s| s.due);
    out
}

#[allow(clippy::too_many_arguments)]
fn drive_one(
    c: usize,
    n: usize,
    conn: &mut Conn,
    g: &mut Gen<'_>,
    pace: Pace,
    t0: Instant,
    dur: Duration,
    trace: bool,
) -> Phase {
    let mut out = Phase::default();
    let interval = match pace {
        Pace::Open(rate) => Some(Duration::from_secs_f64(n as f64 / rate)),
        Pace::Closed => None,
    };
    let ns = |t: Instant| t.saturating_duration_since(t0).as_nanos() as u64;
    let mut next_health = t0;
    let mut k = 0u64;
    loop {
        let due = match interval {
            // Connections are staggered across one interval.
            Some(iv) => t0 + iv.mul_f64(k as f64 + c as f64 / n as f64),
            None => Instant::now().max(t0),
        };
        if due >= t0 + dur {
            break;
        }
        k += 1;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if trace && c == 0 && Instant::now() >= next_health {
            next_health += HEALTH_EVERY;
            if let Ok(h) = conn.client.health() {
                out.health.push(h);
            }
        }
        let step = g.next_step();
        let ops_before = conn.logs.get(step.slot).map_or(0, |l| l.ops.len());
        let line = if trace {
            body_for(conn, &step)
                .map(|b| b.encode())
                .unwrap_or_default()
        } else {
            String::new()
        };
        let start = Instant::now();
        let result = execute(conn, &step, &mut out.evidence);
        let end = Instant::now();
        out.samples.push(Sample {
            class: step.req.class(),
            due: ns(due),
            start: ns(start),
            end: ns(end),
            ok: result.is_ok(),
        });
        if trace {
            if let Ok(resp) = result {
                out.trace.push(TraceRec {
                    conn: c,
                    ops_before,
                    step,
                    line,
                    resp,
                    rtt: (end - start).as_nanos() as u64,
                });
            }
        }
    }
    out.elapsed = t0.elapsed();
    out
}
