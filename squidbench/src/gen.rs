//! Seeded request generation. The workload seed fixes every request the
//! server receives; nothing here reads a server response, so the same
//! seed yields a byte-identical request stream on any machine.

use std::collections::VecDeque;

use squid_adb::ADb;
use squid_core::{SessionOp, SquidParams, SquidSession};
use squid_datasets::BenchmarkQuery;
use squid_engine::Executor;
use squid_relation::{Database, RowSet};

/// splitmix64: small, fast, and identical on every platform.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Derive an independent stream seed from a base seed and an index.
pub fn mix(seed: u64, i: u64) -> u64 {
    Rng::new(seed ^ i.wrapping_mul(0xd6e8_feb8_6659_fd93)).next_u64()
}

/// One benchmark intent: the ground-truth query's target and its output.
pub struct Intent {
    pub id: String,
    pub table: String,
    pub column: String,
    /// Distinct projected output values, in result order.
    pub values: Vec<String>,
    /// Ground-truth result rows (entity rows of `table`).
    pub truth: RowSet,
}

/// Evaluate each benchmark query to get its example pool and truth.
pub fn intents(db: &Database, queries: Vec<BenchmarkQuery>) -> Vec<Intent> {
    let exec = Executor::new(db);
    let mut out = Vec::new();
    for q in queries {
        let rs = exec.execute(&q.query).expect("benchmark query executes");
        let column = q.query.projection.to_string();
        let projected = rs.project(db, &column).expect("benchmark projection");
        let mut values: Vec<String> = Vec::with_capacity(projected.len());
        for v in projected {
            let s = v.to_string();
            if !values.contains(&s) {
                values.push(s);
            }
        }
        // Sessions add up to ten examples; smaller intents cannot supply
        // distinct examples for every script.
        if values.len() < 10 {
            continue;
        }
        out.push(Intent {
            id: q.id,
            table: q.query.root().to_string(),
            column,
            values,
            truth: rs.rows,
        });
    }
    out
}

/// One request, addressed to a session slot of the issuing connection.
#[derive(Clone, Debug, PartialEq)]
pub enum Req {
    Create,
    Turn(SessionOp),
    Sql,
    Rows(usize),
    Suggest(usize),
    Stats,
    Close,
}

/// Latency class of a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// `add`/`remove`/`pin`/`unpin`.
    Turn,
    /// `sql`/`rows`/`suggest`/`stats`.
    Read,
    /// `create`/`target`/`close`.
    Other,
}

impl Req {
    pub fn class(&self) -> Class {
        match self {
            Req::Turn(SessionOp::SetTarget { .. }) => Class::Other,
            Req::Turn(_) => Class::Turn,
            Req::Sql | Req::Rows(_) | Req::Suggest(_) | Req::Stats => Class::Read,
            Req::Create | Req::Close => Class::Other,
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Step {
    pub slot: usize,
    pub req: Req,
}

/// What the generator knows about a session it created.
pub struct Slot {
    pub intent: usize,
    /// Position in the workload's global session order (F1 sampling).
    pub global: usize,
    /// Turn ops of the opening script (`target` plus its adds): the
    /// prefix every run applies, so quality is scored after it.
    pub script_ops: usize,
    /// Examples the script has added and not removed.
    examples: Vec<String>,
    /// Refine: filter keys (property ids) of the warm session.
    keys: Vec<String>,
    /// Refine: position in the pin → unpin → remove → re-add cycle.
    phase: u8,
    pinned: String,
    removed: String,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Explore,
    Refine,
    Durable,
}

impl Kind {
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "explore" => Some(Kind::Explore),
            "refine" => Some(Kind::Refine),
            "durable" => Some(Kind::Durable),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Explore => "explore",
            Kind::Refine => "refine",
            Kind::Durable => "durable",
        }
    }
}

/// Explore: examples per session.
const EXPLORE_EXAMPLES: usize = 10;
/// Refine: warm sessions in the pool (all connections) and their size.
const REFINE_POOL: usize = 120;
const REFINE_EXAMPLES: usize = 5;
/// Durable: warm sessions in the pool and their bounds on examples.
const DURABLE_POOL: usize = 48;
const DURABLE_MIN: usize = 3;
const DURABLE_MAX: usize = 8;
/// Durable: share of requests that read back the last-written session.
const DURABLE_READS: f64 = 0.2;
/// Durable: share of requests that advance a fresh session's script.
const DURABLE_FRESH: f64 = 0.2;

/// The request stream of one connection.
pub struct Gen<'a> {
    kind: Kind,
    conn: usize,
    conns: usize,
    seed: u64,
    rng: Rng,
    intents: &'a [Intent],
    /// Intent order for explore (a seeded permutation).
    order: Vec<usize>,
    pub slots: Vec<Slot>,
    warmup: VecDeque<Step>,
    queue: VecDeque<Step>,
    /// Sessions this connection has started from the unbounded stream.
    started: usize,
    /// Durable: pool slots of this connection, and the last one written.
    pool: Vec<usize>,
    last_written: usize,
}

impl<'a> Gen<'a> {
    /// `adb` is needed only by refine, which pins filters of its warm
    /// sessions and learns their keys by running the warm-up script
    /// in-process.
    pub fn new(
        kind: Kind,
        seed: u64,
        conn: usize,
        conns: usize,
        intents: &'a [Intent],
        adb: &ADb,
    ) -> Gen<'a> {
        let mut order: Vec<usize> = (0..intents.len()).collect();
        let mut shuffle = Rng::new(mix(seed, u64::MAX));
        for i in (1..order.len()).rev() {
            order.swap(i, shuffle.below(i + 1));
        }
        let mut g = Gen {
            kind,
            conn,
            conns,
            seed,
            rng: Rng::new(mix(seed, conn as u64 + 1)),
            intents,
            order,
            slots: Vec::new(),
            warmup: VecDeque::new(),
            queue: VecDeque::new(),
            started: 0,
            pool: Vec::new(),
            last_written: 0,
        };
        // Durable reads start on the first pool session (slot 0).
        match kind {
            Kind::Explore => {}
            Kind::Refine => {
                for j in 0..REFINE_POOL.div_ceil(conns) {
                    let global = conn + conns * j;
                    if global >= REFINE_POOL {
                        break;
                    }
                    let slot = g.open_session(global % intents.len(), global, REFINE_EXAMPLES);
                    g.slots[slot].keys =
                        warm_keys(adb, &intents[g.slots[slot].intent], &g.slots[slot].examples);
                    g.pool.push(slot);
                }
                g.warmup = std::mem::take(&mut g.queue);
            }
            Kind::Durable => {
                for j in 0..DURABLE_POOL.div_ceil(conns) {
                    let global = conn + conns * j;
                    if global >= DURABLE_POOL {
                        break;
                    }
                    let slot = g.open_session(global % intents.len(), global, DURABLE_MIN);
                    g.pool.push(slot);
                }
                g.warmup = std::mem::take(&mut g.queue);
            }
        }
        g
    }

    /// Queue `create`, `target` and `n` sampled `add`s for a new slot.
    fn open_session(&mut self, intent: usize, global: usize, n: usize) -> usize {
        let slot = self.slots.len();
        let it = &self.intents[intent];
        let mut rng = Rng::new(mix(self.seed, 1 << 40 | global as u64));
        let mut idx: Vec<usize> = (0..it.values.len()).collect();
        for i in 0..n.min(idx.len()) {
            let j = i + rng.below(idx.len() - i);
            idx.swap(i, j);
        }
        let examples: Vec<String> = idx[..n.min(idx.len())]
            .iter()
            .map(|&i| it.values[i].clone())
            .collect();
        self.queue.push_back(Step {
            slot,
            req: Req::Create,
        });
        self.queue.push_back(Step {
            slot,
            req: Req::Turn(SessionOp::SetTarget {
                table: it.table.clone(),
                column: it.column.clone(),
            }),
        });
        for e in &examples {
            self.queue.push_back(Step {
                slot,
                req: Req::Turn(SessionOp::AddExample(e.clone())),
            });
            if self.kind == Kind::Explore {
                self.queue.push_back(Step {
                    slot,
                    req: Req::Sql,
                });
            }
        }
        self.slots.push(Slot {
            intent,
            global,
            script_ops: 1 + examples.len(),
            examples,
            keys: Vec::new(),
            phase: 0,
            pinned: String::new(),
            removed: String::new(),
        });
        slot
    }

    /// Steps that set up warm state before anything is measured.
    pub fn take_warmup(&mut self) -> Vec<Step> {
        self.warmup.drain(..).collect()
    }

    pub fn next_step(&mut self) -> Step {
        match self.kind {
            Kind::Explore => self.next_explore(),
            Kind::Refine => self.next_refine(),
            Kind::Durable => self.next_durable(),
        }
    }

    fn next_explore(&mut self) -> Step {
        if self.queue.is_empty() {
            let global = self.conn + self.conns * self.started;
            self.started += 1;
            let intent = self.order[global % self.order.len()];
            let slot = self.open_session(intent, global, EXPLORE_EXAMPLES);
            self.queue.push_back(Step {
                slot,
                req: Req::Rows(10),
            });
            self.queue.push_back(Step {
                slot,
                req: Req::Suggest(3),
            });
            self.queue.push_back(Step {
                slot,
                req: Req::Close,
            });
        }
        self.queue.pop_front().expect("explore queue refilled")
    }

    fn next_refine(&mut self) -> Step {
        let slot = self.pool[self.rng.below(self.pool.len())];
        if self.rng.unit() < 0.5 {
            let req = match self.rng.below(4) {
                0 => Req::Sql,
                1 => Req::Rows(10),
                2 => Req::Suggest(3),
                _ => Req::Stats,
            };
            return Step { slot, req };
        }
        let pick_key = self.rng.below(usize::MAX);
        let pick_ex = self.rng.below(usize::MAX);
        let s = &mut self.slots[slot];
        let op = match s.phase {
            0 => {
                s.pinned = s.keys[pick_key % s.keys.len()].clone();
                SessionOp::PinFilter(s.pinned.clone())
            }
            1 => SessionOp::UnpinFilter(s.pinned.clone()),
            2 => {
                s.removed = s.examples.remove(pick_ex % s.examples.len());
                SessionOp::RemoveExample(s.removed.clone())
            }
            _ => {
                s.examples.push(s.removed.clone());
                SessionOp::AddExample(s.removed.clone())
            }
        };
        s.phase = (s.phase + 1) % 4;
        Step {
            slot,
            req: Req::Turn(op),
        }
    }

    fn next_durable(&mut self) -> Step {
        let r = self.rng.unit();
        if r < DURABLE_READS {
            return Step {
                slot: self.last_written,
                req: Req::Sql,
            };
        }
        if r < DURABLE_READS + DURABLE_FRESH {
            if self.queue.is_empty() {
                let global = DURABLE_POOL + self.conn + self.conns * self.started;
                self.started += 1;
                let intent = self.order[global % self.order.len()];
                let slot = self.open_session(intent, global, 4);
                self.queue.push_back(Step {
                    slot,
                    req: Req::Close,
                });
            }
            let step = self.queue.pop_front().expect("fresh queue refilled");
            self.last_written = match step.req {
                // Reads must not chase a closed session.
                Req::Close => self.pool[0],
                _ => step.slot,
            };
            return step;
        }
        let slot = self.pool[self.rng.below(self.pool.len())];
        let pick = self.rng.below(usize::MAX);
        let s = &mut self.slots[slot];
        let values = &self.intents[s.intent].values;
        let add = match s.examples.len() {
            n if n <= DURABLE_MIN => true,
            n if n >= DURABLE_MAX => false,
            _ => pick.is_multiple_of(2),
        };
        let op = if add {
            // Probe forward from a random start for a value not in use.
            let start = (pick >> 1) % values.len();
            let v = (0..values.len())
                .map(|k| &values[(start + k) % values.len()])
                .find(|v| !s.examples.contains(v))
                .expect("intents have more values than a session holds")
                .clone();
            s.examples.push(v.clone());
            SessionOp::AddExample(v)
        } else {
            let v = s.examples.remove((pick >> 1) % s.examples.len());
            SessionOp::RemoveExample(v)
        };
        self.last_written = slot;
        Step {
            slot,
            req: Req::Turn(op),
        }
    }
}

/// Property ids of a warm session's candidate filters, learned by running
/// its warm-up script in-process.
fn warm_keys(adb: &ADb, intent: &Intent, examples: &[String]) -> Vec<String> {
    let mut s = SquidSession::with_params(adb, SquidParams::default());
    s.set_target(&intent.table, &intent.column)
        .expect("intent target exists");
    for e in examples {
        s.add_example(e).expect("intent example resolves");
    }
    let mut keys: Vec<String> = s
        .discovery()
        .map(|d| {
            d.scored
                .iter()
                .map(|f| f.filter.prop_id.to_string())
                .collect()
        })
        .unwrap_or_default();
    keys.sort();
    keys.dedup();
    assert!(!keys.is_empty(), "warm session has candidate filters");
    keys
}

/// FNV-1a over the text of each step.
pub struct StreamHash(u64);

impl StreamHash {
    pub fn new() -> StreamHash {
        StreamHash(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, conn: usize, step: &Step) {
        let text = format!("{conn} {} {:?}\n", step.slot, step.req);
        for b in text.bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Hash of the warm-up plus the first `n` steps of every connection.
pub fn stream_hash(
    kind: Kind,
    seed: u64,
    conns: usize,
    intents: &[Intent],
    adb: &ADb,
    n: usize,
) -> u64 {
    let mut h = StreamHash::new();
    for c in 0..conns {
        let mut g = Gen::new(kind, seed, c, conns, intents, adb);
        for step in g.take_warmup() {
            h.add(c, &step);
        }
        for _ in 0..n {
            h.add(c, &g.next_step());
        }
    }
    h.value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use squid_datasets::{dblp_queries, generate_dblp, generate_imdb, imdb_queries};
    use squid_datasets::{DblpConfig, ImdbConfig};

    fn fixture(kind: Kind) -> (ADb, Vec<Intent>) {
        let db = match kind {
            Kind::Refine => generate_dblp(&DblpConfig::tiny()),
            _ => generate_imdb(&ImdbConfig::tiny()),
        };
        let qs = match kind {
            Kind::Refine => dblp_queries(&db),
            _ => imdb_queries(&db),
        };
        let intents = intents(&db, qs);
        assert!(!intents.is_empty());
        (ADb::build(&db).expect("αDB builds"), intents)
    }

    #[test]
    fn same_seed_same_stream_and_other_seed_other_stream() {
        for kind in [Kind::Explore, Kind::Refine, Kind::Durable] {
            let (adb, intents) = fixture(kind);
            let text = |seed| {
                let mut out = String::new();
                for c in 0..2 {
                    let mut g = Gen::new(kind, seed, c, 2, &intents, &adb);
                    let mut steps: Vec<Step> = g.take_warmup();
                    steps.extend((0..2000).map(|_| g.next_step()));
                    out.push_str(&format!("{steps:?}"));
                }
                out
            };
            assert_eq!(text(7), text(7), "{kind:?}: same seed, same bytes");
            assert_ne!(text(7), text(8), "{kind:?}: another seed, another stream");
            let hash = |seed| stream_hash(kind, seed, 2, &intents, &adb, 2000);
            assert_eq!(hash(7), hash(7));
            assert_ne!(hash(7), hash(8));
        }
    }
}
